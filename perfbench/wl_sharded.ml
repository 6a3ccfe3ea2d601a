(* membership-1m and chaos-audit-10k: Sf_core.Runner.Sharded, bare and
   under Sf_check.Invariant's round-granular audit.  The set-up helpers
   are shared with the spread workload, whose world is a Sharded world. *)

module Sharded = Sf_core.Runner.Sharded
module Invariant = Sf_check.Invariant
open Common

let shards = 16
let domains = 2
let config = Sf_core.Protocol.make_config ~view_size:16 ~lower_threshold:4
let counters w () = Sharded.world_counters w

(* A world after set-up: created, then its first round run (the first
   round pays the page faults of a freshly allocated store). *)
type world = {
  w : Sharded.t;
  e0 : int;  (* edge total at creation, the ledger's base *)
  create_s : float;
  first_s : float;
  bytes_per_node : float;  (* resident bytes the world added, per slot *)
}

let setup ?tracer ~domains make =
  let rss0 = resident_bytes () in
  let t0 = wall () in
  let w = Tracer.span tracer "Sharded.create" make in
  let create_s = wall () -. t0 in
  let e0 = Sharded.total_edges w in
  let bytes_per_node = (resident_bytes () -. rss0) /. float_of_int (Sharded.capacity w) in
  let t1 = wall () in
  Tracer.span tracer "Sharded.run_round" (fun () -> Sharded.run_round w ~domains);
  { w; e0; create_s; first_s = wall () -. t1; bytes_per_node }

let setup_s s = s.create_s +. s.first_s

let bare_rounds ?tracer ~domains w k =
  repeat k (fun _ ->
      sample ~counters:(counters w) (fun () ->
          Tracer.span tracer "Sharded.run_round" (fun () ->
              Sharded.run_round w ~domains)))

(* Lemma 6.6's balance, extended for churn: an O(1) check of the whole
   run's edge accounting that needs no audit. *)
let ledger_balanced s =
  let l = Sharded.ledger s.w in
  Sharded.total_edges s.w
  = s.e0
    + (2 * l.Sharded.accepted_duplications)
    - (2 * l.Sharded.dropped_non_duplicated)
    + l.Sharded.churn_edges_added - l.Sharded.churn_edges_removed

let census ?tracer w =
  let t0 = wall () in
  let c =
    Tracer.span tracer "Census.of_flat" (fun () ->
        Sf_core.Census.of_flat (Sharded.store w))
  in
  (c.Sf_core.Census.alpha, wall () -. t0)

let fingerprint w ~alpha =
  let c = Sharded.world_counters w in
  Fmt.str "actions=%d sends=%d edges=%d alpha=%.17g" c.Sf_core.Runner.actions
    c.Sf_core.Runner.sends (Sharded.total_edges w) alpha

type pass = {
  world : world;
  samples : sample list;
  alpha : float;
  census_s : float;
}

let finish ?tracer world samples =
  let alpha, census_s = census ?tracer world.w in
  { world; samples; alpha; census_s }

(* [units] are the like units the end-to-end metrics are taken over: the
   pass's rounds or audited chunks unless given. *)
let pass_outcome ?units ~checks ~errors p =
  check checks "edge ledger balanced (Lemma 6.6)" (ledger_balanced p.world);
  {
    metrics =
      end_to_end ~setup_s:(setup_s p.world)
        ~units:(Option.value units ~default:p.samples)
        ~alpha:p.alpha;
    attempted = (Sharded.world_counters p.world.w).Sf_core.Runner.actions;
    errors;
    failures = checks.failed;
    fingerprint = Some (fingerprint p.world.w ~alpha:p.alpha);
  }

(* Build a pass, keep only what [f] extracts from it, then collect the
   world before anything else is allocated. *)
let measure_then_free pass f =
  let x = f (pass ()) in
  Gc.full_major ();
  x

(* --- membership-1m --- *)

let membership_n = 1_000_000

let membership_make seed () =
  Sharded.create ~shards ~loss_rate:0.01 ~init:Sharded.Scatter ~seed
    ~n:membership_n ~config ()

let membership_pass ?tracer ~seed ~seconds () =
  let world = setup ?tracer ~domains (membership_make seed) in
  let rounds = units ~seconds ~unit_s:0.27 ~min:3 in
  finish ?tracer world (bare_rounds ?tracer ~domains world.w rounds)

let membership ~seed ~seconds =
  with_setup_reps ~reps:3
    ~time_setup:(fun () -> setup_s (setup ~domains (membership_make seed)))
    (let p = membership_pass ~seed ~seconds () in
     pass_outcome ~checks:(checks ()) ~errors:0 p)

let membership_traced tracer ~seed ~seconds =
  let untraced =
    measure_then_free (fun () -> membership_pass ~seed ~seconds ()) (fun p ->
        actions_rate (rates p.samples))
  in
  let p = membership_pass ~tracer ~seed ~seconds () in
  let checks = checks () in
  (* The single-threaded baseline: same world on one domain. *)
  let twin = setup ~domains:1 (membership_make seed) in
  let twin_rounds = bare_rounds ~domains:1 twin.w (List.length p.samples) in
  check checks "1-domain twin Sharded.equal to the 2-domain world"
    (Sharded.equal p.world.w twin.w);
  let median_dt xs = median (List.map (fun s -> s.dt) xs) in
  let o = pass_outcome ~checks ~errors:0 p in
  {
    o with
    metrics =
      sharded_round_layers p.samples
      @ [
          ("sharded.domain_speedup", ratio (median_dt twin_rounds) (median_dt p.samples));
          ("sharded.first_round_s", p.world.first_s);
          ("sharded.heap_bytes_per_node", p.world.bytes_per_node);
          ("census.of_flat_s", p.census_s);
        ]
      @ trace_layers tracer ~untraced ~traced:(actions_rate (rates p.samples));
  }

(* --- chaos-audit-10k --- *)

(* 10^4, the size `make storm-scale` gates: the world and the audit's
   scan tables stay a few MB.  At 10^5 (~60 MB, inside a shared L3) the
   same work ran 25-37% apart from run to run, following whatever else
   shared the cache. *)
let chaos_n = 10_000

(* SSTORM's shape: bursty loss throughout, a 2-way partition, a crash
   wave over 1% of the ids, 1% churn per round, the resilience stack. *)
let chaos_scenario = "ge:0.2:8;partition@5-12:2;crash@15-20:0-99"

let chaos_policy () =
  let solve ~loss =
    let t =
      Sf_analysis.Thresholds.select_lossy ~d_hat:8 ~delta:0.01
        ~loss:(Float.min loss 0.45)
    in
    (t.Sf_analysis.Thresholds.lower_threshold, t.Sf_analysis.Thresholds.view_size)
  in
  Sf_resil.Policy.make ~solve ()

let chaos_make seed () =
  Sharded.create ~shards ~init:Sharded.Scatter ~scenario:(scenario chaos_scenario)
    ~churn:{ Sharded.churn_rate = 0.01; headroom = 1024 }
    ~resilience:(chaos_policy ()) ~seed ~n:chaos_n ~config ()

(* The same n and start without faults, churn or resilience. *)
let plain_make seed () =
  Sharded.create ~shards ~init:Sharded.Scatter ~seed ~n:chaos_n ~config ()

(* One domain: the audit's scans are single-threaded and most of the time,
   the 2-domain engine is membership-1m's to measure, and a run that needs
   every core of a small machine wanders with whatever else it runs. *)
let chaos_domains = 1

(* The audit runs in chunks of [chunk] rounds with a full structural scan
   closing each: the same scans at the same rounds as one long audited
   run with [~scan_every:chunk], timed per chunk. *)
let chunk = 10

let chaos_pass ?tracer ?(after_unit = ignore) ~seed ~seconds checks =
  let world = setup ?tracer ~domains:chaos_domains (chaos_make seed) in
  let chunks = units ~seconds ~unit_s:0.06 ~min:3 in
  let violations = ref 0 in
  let samples =
    try
      repeat chunks (fun i ->
          let s =
            sample ~counters:(counters world.w) (fun () ->
                let st =
                  Tracer.span tracer "Invariant.audited_sharded_run" (fun () ->
                      Invariant.audited_sharded_run ~mode:Invariant.Strict
                        ~scan_every:chunk ~domains:chaos_domains world.w ~rounds:chunk)
                in
                violations := !violations + st.Invariant.violation_count)
          in
          after_unit i;
          s)
    with Invariant.Violation v ->
      incr violations;
      Fmt.pr "  violation: %a@." Invariant.pp_violation v;
      []
  in
  check checks "strict round-granular audit clean" (!violations = 0 && samples <> []);
  (finish ?tracer world samples, !violations)

let chaos_name = "chaos-audit-10k"
let chaos_time_setup ~seed = setup_s (setup ~domains:chaos_domains (chaos_make seed))

(* A probe of three set-ups after every 18th chunk: 40 set-ups in all at
   --seconds 15. *)
let chaos ~seed ~seconds =
  let checks = checks () in
  let s = setups ~every:18 ~workload:chaos_name ~seed ~reps:3 in
  with_setups s
    (let p, violations = chaos_pass ~after_unit:(after_unit s) ~seed ~seconds checks in
     pass_outcome ~checks ~errors:violations p)

let chaos_traced tracer ~seed ~seconds =
  let untraced =
    measure_then_free
      (fun () -> fst (chaos_pass ~seed ~seconds (checks ())))
      (fun p -> actions_rate (rates p.samples))
  in
  let checks = checks () in
  let p, violations = chaos_pass ~tracer ~seed ~seconds checks in
  let rounds = List.length p.samples * chunk in
  let scans =
    repeat 3 (fun _ ->
        let t0 = wall () in
        let v =
          Tracer.span (Some tracer) "Invariant.scan_sharded" (fun () ->
              Invariant.scan_sharded p.world.w)
        in
        (wall () -. t0, v = []))
  in
  check checks "scan_sharded clean on the audited world" (List.for_all snd scans);
  (* The bare twin: the audit must not perturb the world. *)
  let bare = setup ~domains:chaos_domains (chaos_make seed) in
  let bare_rounds_ = bare_rounds ~domains:chaos_domains bare.w rounds in
  check checks "audited world Sharded.equal to its bare twin"
    (Sharded.equal p.world.w bare.w);
  let plain = setup ~domains:chaos_domains (plain_make seed) in
  let plain_rounds = bare_rounds ~domains:chaos_domains plain.w rounds in
  let median_dt xs = median (List.map (fun s -> s.dt) xs) in
  let o = pass_outcome ~checks ~errors:violations p in
  {
    o with
    metrics =
      sharded_round_layers bare_rounds_
      @ [
          ("sharded.first_round_s", p.world.first_s);
          ("sharded.heap_bytes_per_node", p.world.bytes_per_node);
          ("sharded.chaos_overhead", ratio (median_dt bare_rounds_) (median_dt plain_rounds));
          ("invariant.scan_sharded_ms", 1e3 *. median (List.map fst scans));
          ( "invariant.sharded_audit_share",
            1. -. ratio (total_s bare_rounds_) (total_s p.samples) );
          ("census.of_flat_s", p.census_s);
        ]
      @ trace_layers tracer ~untraced ~traced:(actions_rate (rates p.samples));
  }
