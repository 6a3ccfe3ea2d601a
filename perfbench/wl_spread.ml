(* spread-1m: Sf_spread.Flat push-pull rumors over a Sharded world. *)

module Sharded = Sf_core.Runner.Sharded
module Flat = Sf_spread.Flat
module Report = Sf_spread.Report
open Common
open Wl_sharded

let n = 1_000_000
let target = 0.99
let max_rounds = 60

let make seed () =
  Sharded.create ~shards ~loss_rate:0. ~init:Sharded.Scatter
    ~scenario:(scenario "ge:0.2:8") ~seed ~n ~config ()

(* Rumor [k] starts at an id drawn from the seed; every id is live (no
   churn). *)
let source ~seed k = abs ((seed * 7919) + (k * 104_729)) mod n

type rumor = { report : Report.t; rounds : sample list }

type spread_pass = { p : pass; rumors : rumor list }

let spread_pass ?tracer ~seed ~seconds () =
  let world = setup ?tracer ~domains (make seed) in
  let rumors =
    repeat (units ~seconds ~unit_s:7.0 ~min:3) (fun k ->
        let sp =
          Tracer.span tracer "Flat.create" (fun () ->
              Flat.create ~coverage_target:target ~fanout:2
                ~strategy:Sf_spread.Strategy.Push_pull ~source:(source ~seed k)
                ~seed:(seed + 6 + k) world.w)
        in
        let rec go acc =
          if Flat.reached sp || Flat.rounds sp >= max_rounds then List.rev acc
          else
            go
              (sample ~counters:(counters world.w) (fun () ->
                   Tracer.span tracer "Flat.run_round" (fun () ->
                       Flat.run_round sp ~domains))
              :: acc)
        in
        let rounds = go [] in
        { report = Flat.report sp; rounds })
  in
  let samples = List.concat_map (fun r -> r.rounds) rumors in
  { p = finish ?tracer world samples; rumors }

let rounds_to_target r =
  match r.report.Report.rounds_to_target with Some k -> k | None -> -1

(* A rumor's rounds are not alike (few informed nodes early, most of the
   work in the middle), so the like unit of this workload is a whole
   rumor, spread to target. *)
let rumor_units sp = List.map (fun r -> merge r.rounds) sp.rumors

let outcome ~checks sp =
  let missed = List.filter (fun r -> not (Report.reached r.report)) sp.rumors in
  check checks
    (Fmt.str "every rumor reached %.0f%% coverage" (100. *. target))
    (missed = []);
  List.iter
    (fun r ->
      Fmt.pr "  rumor: %d rounds, %d messages, %.2f s to target@."
        (rounds_to_target r) r.report.Report.messages (total_s r.rounds))
    sp.rumors;
  let o =
    pass_outcome ~units:(rumor_units sp) ~checks
      ~errors:(List.length missed) sp.p
  in
  {
    o with
    attempted = List.length sp.rumors;
    fingerprint =
      Option.map
        (fun fp ->
          fp
          ^ String.concat ""
              (List.map
                 (fun r ->
                   Fmt.str " rumor=%d/%d" (rounds_to_target r) r.report.Report.messages)
                 sp.rumors))
        o.fingerprint;
  }

let run ~seed ~seconds =
  with_setup_reps ~reps:3
    ~time_setup:(fun () -> setup_s (setup ~domains (make seed)))
    (outcome ~checks:(checks ()) (spread_pass ~seed ~seconds ()))

let traced tracer ~seed ~seconds =
  let untraced =
    measure_then_free (fun () -> spread_pass ~seed ~seconds ()) (fun sp ->
        actions_rate (rates (rumor_units sp)))
  in
  let checks = checks () in
  let sp = spread_pass ~tracer ~seed ~seconds () in
  let o = outcome ~checks sp in
  let spread_counters = Sharded.world_counters sp.p.world.w in
  let spread_edges = Sharded.total_edges sp.p.world.w in
  let samples = sp.p.samples and census_s = sp.p.census_s and rumors = sp.rumors in
  let traced_rate = actions_rate (rates (rumor_units sp)) in
  let first_s = sp.p.world.first_s and bytes_per_node = sp.p.world.bytes_per_node in
  let reports = List.map (fun r -> r.report) rumors in
  (* [sp] is dead from here: collect its world before the twin's. *)
  Gc.full_major ();
  (* The membership twin: the same world and rounds without the spread;
     the spread engine must leave the membership run bit-for-bit alone. *)
  let twin = setup ~domains (make seed) in
  let twin_rounds = bare_rounds ~domains twin.w (List.length samples) in
  check checks "membership twin matches the spread world's membership"
    (Sharded.world_counters twin.w = spread_counters
    && Sharded.total_edges twin.w = spread_edges);
  let messages = float_of_int (List.fold_left (fun a r -> a + r.Report.messages) 0 reports) in
  let of_reports f = float_of_int (List.fold_left (fun a r -> a + f r) 0 reports) in
  let words xs = sum (List.map (fun s -> s.words) xs) in
  {
    o with
    failures = checks.failed;
    metrics =
      [
        ("spread.round_ms.p50", 1e3 *. median (List.map (fun s -> s.dt) samples));
        ("spread.engine_share", 1. -. ratio (total_s twin_rounds) (total_s samples));
        ("spread.minor_words_per_msg", ratio (words samples -. words twin_rounds) messages);
        ("spread.duplicate_share", ratio (of_reports (fun r -> r.Report.duplicates)) messages);
        ("spread.lost_share", ratio (of_reports (fun r -> r.Report.lost)) messages);
        ( "spread.rounds_to_target",
          median (List.map (fun r -> float_of_int (rounds_to_target r)) rumors) );
        ( "spread.messages_to_target",
          median (List.map (fun r -> float_of_int r.Report.messages) reports) );
        ("sharded.first_round_s", first_s);
        ("sharded.heap_bytes_per_node", bytes_per_node);
        ("census.of_flat_s", census_s);
      ]
      @ sharded_round_layers twin_rounds
      @ trace_layers tracer ~untraced ~traced:traced_rate;
  }
