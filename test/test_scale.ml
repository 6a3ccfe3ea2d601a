(* Tests for the million-node scale path: the flat view representation,
   the Par fork-join shim, the sharded bulk-synchronous runner and its
   domain-count determinism contract, plus the hot-path fixes that rode
   along (incremental sorted live array, list-free sampling).  The
   allocation gates for the sharded hot loop are in test_alloc.ml. *)

module Runner = Sf_core.Runner
module Sharded = Sf_core.Runner.Sharded
module Protocol = Sf_core.Protocol
module Topology = Sf_core.Topology
module View = Sf_core.View
module Census = Sf_core.Census
module Sampling = Sf_core.Sampling
module Invariant = Sf_check.Invariant
module Rng = Sf_prng.Rng

let small_config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let make_system ?(seed = 21) ?(n = 60) ?(loss = 0.) ?(config = small_config)
    ?(out_degree = 4) () =
  let rng = Rng.create (seed + 1000) in
  let topology = Topology.regular rng ~n ~out_degree in
  Runner.create ~seed ~n ~loss_rate:loss ~config ~topology ()

(* --- Flat representation: cached degrees vs recount --- *)

(* Mirror a random op sequence onto a boxed view array and a Flat store and
   require, after every op, that each representation's cached degree equals
   a full occupied-slot recount and that the two representations agree. *)
let prop_degrees_match_recount =
  let nodes = 5 and s = 8 in
  QCheck.Test.make ~name:"View/Flat cached degrees match recount under ops"
    ~count:200
    QCheck.(small_list (triple small_nat small_nat small_nat))
    (fun ops ->
      let views = Array.init nodes (fun _ -> View.create s) in
      let store = View.Flat.create ~nodes ~view_size:s in
      let check_all () =
        for u = 0 to nodes - 1 do
          let boxed = View.degree views.(u) in
          let recount = ref 0 in
          for slot = 0 to s - 1 do
            if View.id_at views.(u) slot >= 0 then incr recount
          done;
          if boxed <> !recount then
            QCheck.Test.fail_reportf "view %d: cached %d <> recount %d" u boxed
              !recount;
          let flat = View.Flat.degree store u in
          if flat <> View.Flat.recount_degree store u then
            QCheck.Test.fail_reportf "flat %d: cached %d <> recount %d" u flat
              (View.Flat.recount_degree store u);
          if flat <> boxed then
            QCheck.Test.fail_reportf "node %d: flat %d <> boxed %d" u flat boxed
        done;
        true
      in
      List.for_all
        (fun (kind, u, slot) ->
          let u = u mod nodes and slot = slot mod s in
          (match kind mod 5 with
          | 0 | 1 | 2 ->
            let id = u + slot and serial = kind + (u * 100) + slot in
            View.set views.(u) slot
              { View.id; serial; anchor = None; born = 0 };
            View.Flat.set store u slot ~id ~serial ~anchor:(-1) ~born:0
          | 3 ->
            View.clear views.(u) slot;
            View.Flat.clear store u slot
          | _ ->
            View.clear_all views.(u);
            for i = 0 to s - 1 do
              View.Flat.clear store u i
            done);
          check_all ())
        ops)

(* --- Flat representation: the int32 cells --- *)

let max_cell = (1 lsl 31) - 1

let test_flat_cell_bounds () =
  let filled () =
    let store = View.Flat.create ~nodes:2 ~view_size:4 in
    View.Flat.set store 1 2 ~id:max_cell ~serial:max_int ~anchor:max_cell
      ~born:max_cell;
    View.Flat.set store 1 3 ~id:0 ~serial:min_int ~anchor:(-1) ~born:0;
    store
  in
  let store = filled () and before = filled () in
  let cell slot =
    ( (View.Flat.id_at store 1 slot, View.Flat.serial_at store 1 slot),
      (View.Flat.anchor_at store 1 slot, View.Flat.born_at store 1 slot) )
  in
  let quad = Alcotest.(pair (pair int int) (pair int int)) in
  Alcotest.check quad "2^31 - 1 round-trips in every int32 cell"
    ((max_cell, max_int), (max_cell, max_cell)) (cell 2);
  Alcotest.check quad "anchor -1 and 63-bit serials round-trip"
    ((0, min_int), (-1, 0)) (cell 3);
  List.iter
    (fun (name, id, anchor, born) ->
      (match View.Flat.set store 1 0 ~id ~serial:7 ~anchor ~born with
      | () -> Alcotest.failf "set accepted %s" name
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) (name ^ ": store unchanged") true
        (View.Flat.equal store before))
    [
      ("id 2^31", max_cell + 1, -1, 0);
      ("id -1", -1, -1, 0);
      ("anchor 2^31", 0, max_cell + 1, 0);
      ("anchor -2", 0, -2, 0);
      ("born 2^31", 0, -1, max_cell + 1);
      ("born -1", 0, -1, -1);
    ];
  (* A packet whose mixing instance no cell can hold: the receive step
     raises before placing the reinforcement. *)
  let p = View.Flat.packet () in
  p.View.Flat.src <- 5;
  p.View.Flat.m_id <- 6;
  p.View.Flat.m_born <- max_cell + 1;
  (match View.Flat.receive store 0 (Rng.create 3) ~s:4 p with
  | _ -> Alcotest.fail "receive placed an instance no cell can hold"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "rejected packet leaves the store unchanged" true
    (View.Flat.equal store before)

(* The scan [Sf_spread.Flat] ran before [View.Flat.sample_id] existed:
   count the non-self ids, one [Rng.int] over the count, then a forward
   scan to the pick. *)
let sample_view_reference store rng u =
  let s = View.Flat.view_size store in
  let candidates = ref 0 in
  for k = 0 to s - 1 do
    let id = View.Flat.id_at store u k in
    if id >= 0 && id <> u then incr candidates
  done;
  if !candidates = 0 then -1
  else begin
    let pick = Rng.int rng !candidates in
    let seen = ref 0 and found = ref (-1) in
    for k = 0 to s - 1 do
      if !found < 0 then begin
        let id = View.Flat.id_at store u k in
        if id >= 0 && id <> u then begin
          if !seen = pick then found := id;
          incr seen
        end
      end
    done;
    !found
  end

let test_sample_id_matches_scan () =
  let nodes = 6 and s = 16 in
  for seed = 1 to 200 do
    let fill = Rng.create seed in
    let store = View.Flat.create ~nodes ~view_size:s in
    for u = 0 to nodes - 1 do
      (* Sparse to full views whose ids include the node itself and
         duplicates. *)
      let k = Rng.int fill (s + 1) in
      Array.iter
        (fun slot ->
          View.Flat.set store u slot ~id:(Rng.int fill nodes) ~serial:slot
            ~anchor:(-1) ~born:0)
        (Rng.sample_indices fill ~n:s ~k)
    done;
    let a = Rng.create (seed + 500) and b = Rng.create (seed + 500) in
    for _ = 1 to 4 do
      for u = 0 to nodes - 1 do
        Alcotest.(check int)
          (Printf.sprintf "seed %d node %d" seed u)
          (sample_view_reference store a u)
          (View.Flat.sample_id store u b)
      done
    done;
    Alcotest.(check int64) (Printf.sprintf "seed %d: RNG state" seed)
      (Rng.next_int64 a) (Rng.next_int64 b)
  done

(* The footprint gate: 20 bytes per slot (three int32 cells and a 63-bit
   serial) plus the per-node degree array.  One word per field would be
   32 bytes per slot. *)
let test_flat_footprint () =
  let nodes = 10_000 and s = 16 in
  let store = View.Flat.create ~nodes ~view_size:s in
  let bytes = Obj.reachable_words (Obj.repr store) * (Sys.word_size / 8) in
  let budget = (20 * nodes * s) + ((nodes + 1) * (Sys.word_size / 8)) + 1024 in
  if bytes > budget then
    Alcotest.failf "%d-slot store takes %d bytes, over the %d-byte budget"
      (nodes * s) bytes budget

(* --- Par: the fork-join shim --- *)

let test_par_determinism () =
  let fill domains =
    let out = Array.make 37 0 in
    Sf_engine.Par.run ~domains ~tasks:37 (fun i -> out.(i) <- (i * i) + 1);
    out
  in
  Alcotest.(check bool) "3 domains = 1 domain" true (fill 1 = fill 3);
  Alcotest.(check bool) "more domains than tasks" true (fill 1 = fill 64);
  Alcotest.(check bool)
    "task failure propagates after joining" true
    (match Sf_engine.Par.run ~domains:2 ~tasks:6 (fun i ->
         if i = 4 then failwith "boom")
     with
    | () -> false
    | exception Failure _ -> true)

(* --- Sharded runner: domain-count invariance --- *)

let scale_config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let make_world () =
  Sharded.create ~shards:8 ~loss_rate:0.1 ~seed:7 ~n:600 ~config:scale_config ()

let test_domain_count_invariance () =
  let run domains =
    let w = make_world () in
    Sharded.run_rounds w ~domains 15;
    w
  in
  let a = run 1 and b = run 2 and c = run 4 in
  Alcotest.(check bool) "2 domains bit-identical" true (Sharded.equal a b);
  Alcotest.(check bool) "4 domains bit-identical" true (Sharded.equal a c);
  let census w = Census.of_flat (Sharded.store w) in
  Alcotest.(check bool) "census identical" true (census a = census c);
  Alcotest.(check bool) "counters identical" true
    (Sharded.world_counters a = Sharded.world_counters c);
  Alcotest.(check int) "rounds recorded" 15 (Sharded.rounds_completed a)

(* --- Sharded runner: the strict audit holds under loss --- *)

let test_sharded_strict_audit () =
  let w =
    Sharded.create ~shards:4 ~loss_rate:0.15 ~seed:11 ~n:400
      ~config:scale_config ()
  in
  let stats =
    Invariant.audited_sharded_run ~mode:Invariant.Strict ~scan_every:5
      ~domains:2 w ~rounds:40
  in
  Alcotest.(check int) "no violations" 0 stats.Invariant.violation_count;
  Alcotest.(check int) "all rounds audited" 40 stats.Invariant.actions_checked;
  Alcotest.(check bool) "scans ran" true (stats.Invariant.full_scans >= 8)

(* Conservation ledger sanity: the audited run checks the per-round
   deltas; here the end-to-end totals must tie the final edge count back
   to the initial ring. *)
let test_edge_ledger_totals () =
  let w = make_world () in
  let initial = Sharded.total_edges w in
  Sharded.run_rounds w ~domains:2 25;
  let dup, dropped = Sharded.conservation w in
  Alcotest.(check int) "edges = initial + 2 dup - 2 dropped"
    (initial + (2 * dup) - (2 * dropped))
    (Sharded.total_edges w)

(* --- Chaos at scale: scenario + churn + resilience on the sharded engine --- *)

let scenario s =
  match Sf_faults.Scenario.of_string s with
  | Ok sc -> sc
  | Error e -> Alcotest.fail ("scenario parse: " ^ e)

(* The section 6.3 solver the production drivers inject. *)
let chaos_policy () =
  let solve ~loss =
    let t =
      Sf_analysis.Thresholds.select_lossy ~d_hat:8 ~delta:0.01
        ~loss:(Float.min loss 0.45)
    in
    (t.Sf_analysis.Thresholds.lower_threshold, t.Sf_analysis.Thresholds.view_size)
  in
  Sf_resil.Policy.make ~estimator_window:1000 ~cooldown:4 ~solve ()

(* Bursty loss, a two-way partition, and a crash wave over the first
   tenth of the ring — the mixed regime the robustness issue targets. *)
let mixed_scenario () = scenario "ge:0.2:6;partition@4-9:2;crash@11-15:0-59"
let chaos_churn = { Sharded.churn_rate = 0.02; headroom = 64 }

let make_chaos_world ?resilience () =
  Sharded.create ~shards:8 ~seed:13 ~n:600 ~config:scale_config
    ~scenario:(mixed_scenario ()) ~churn:chaos_churn ?resilience ~probe_every:4
    ()

(* The headline determinism contract under chaos: with per-shard loss
   chains, barrier-time windows, shard-local churn and barrier-only
   resilience, the domain count must still be invisible. *)
let test_chaos_domain_invariance () =
  let run domains =
    let w = make_chaos_world ~resilience:(chaos_policy ()) () in
    Sharded.run_rounds w ~domains 20;
    w
  in
  let a = run 1 and b = run 2 and c = run 4 in
  Alcotest.(check bool) "2 domains bit-identical" true (Sharded.equal a b);
  Alcotest.(check bool) "4 domains bit-identical" true (Sharded.equal a c);
  let census w = Census.of_flat (Sharded.store w) in
  Alcotest.(check bool) "census identical" true (census a = census c);
  Alcotest.(check bool) "counters identical" true
    (Sharded.world_counters a = Sharded.world_counters c);
  (* The run actually exercised every fault class. *)
  (match Sharded.fault_statistics a with
  | None -> Alcotest.fail "scenario installed but no fault statistics"
  | Some fs ->
    let open Sf_faults.Injector in
    Alcotest.(check bool) "chance drops" true (fs.chance_drops > 0);
    Alcotest.(check bool) "burst drops" true (fs.burst_drops > 0);
    Alcotest.(check bool) "partition drops" true (fs.partition_drops > 0);
    Alcotest.(check bool) "crash drops" true (fs.crash_drops > 0));
  let cs = Sharded.churn_statistics a in
  Alcotest.(check bool) "churn happened" true (cs.Sharded.joins > 0)

(* The strict audit — extended ledger, dead-slot emptiness, M1 + parity —
   holds through the whole mixed regime. *)
let test_chaos_strict_audit () =
  let w = make_chaos_world ~resilience:(chaos_policy ()) () in
  let stats =
    Invariant.audited_sharded_run ~mode:Invariant.Strict ~scan_every:5
      ~domains:2 w ~rounds:40
  in
  Alcotest.(check int) "no violations" 0 stats.Invariant.violation_count;
  Alcotest.(check int) "all rounds audited" 40 stats.Invariant.actions_checked;
  Alcotest.(check bool) "scans ran" true (stats.Invariant.full_scans >= 8)

(* Per-shard Gilbert-Elliott chains at n = 10k: the empirical loss over
   the whole run converges to the injector's configured stationary mean,
   and a visible share of the drops lands inside bursts. *)
let test_ge_stationary_mean () =
  let w =
    Sharded.create ~shards:16 ~seed:5 ~n:10_000 ~config:scale_config
      ~scenario:(scenario "ge:0.2:8") ()
  in
  Sharded.run_rounds w ~domains:4 30;
  let wc = Sharded.world_counters w in
  let observed =
    float_of_int wc.Runner.messages_lost /. float_of_int wc.Runner.sends
  in
  Alcotest.(check bool)
    (Fmt.str "observed %.4f within 0.02 of 0.2" observed)
    true
    (Float.abs (observed -. 0.2) < 0.02);
  match Sharded.fault_statistics w with
  | None -> Alcotest.fail "scenario installed but no fault statistics"
  | Some fs ->
    let open Sf_faults.Injector in
    Alcotest.(check bool) "bursty drops recorded" true
      (fs.burst_drops > 0 && fs.burst_drops <= fs.chance_drops)

(* Churn end-to-end: the extended ledger ties the final edge count back
   to the initial ring, and one join per leave keeps the population
   stationary (up to donor-starved skips, which never fire at this n). *)
let test_churn_ledger_totals () =
  let w =
    Sharded.create ~shards:8 ~seed:19 ~n:600 ~config:scale_config
      ~churn:{ Sharded.churn_rate = 0.05; headroom = 80 }
      ()
  in
  let initial = Sharded.total_edges w in
  Sharded.run_rounds w ~domains:2 30;
  let l = Sharded.ledger w in
  Alcotest.(check int)
    "edges = initial + 2 dup - 2 dropped + added - removed"
    (initial
    + (2 * l.Sharded.accepted_duplications)
    - (2 * l.Sharded.dropped_non_duplicated)
    + l.Sharded.churn_edges_added - l.Sharded.churn_edges_removed)
    (Sharded.total_edges w);
  let cs = Sharded.churn_statistics w in
  Alcotest.(check bool) "turnover happened" true (cs.Sharded.leaves > 50);
  Alcotest.(check int) "one join per un-starved leave"
    (cs.Sharded.leaves - cs.Sharded.join_skips)
    cs.Sharded.joins;
  Alcotest.(check int) "population stationary"
    (600 - cs.Sharded.join_skips)
    (Sharded.live_count w)

(* Observe-only resilience consumes no randomness and never acts, so the
   chaotic world replays bit-for-bit against a policy-free twin while
   still producing a loss estimate. *)
let test_observe_only_resilience_identity () =
  let run resilience =
    let w = make_chaos_world ?resilience () in
    Sharded.run_rounds w ~domains:2 20;
    w
  in
  let plain = run None
  and obs = run (Some (Sf_resil.Policy.observe_only ())) in
  Alcotest.(check bool) "worlds bit-identical" true (Sharded.equal plain obs);
  Alcotest.(check bool) "thresholds untouched" true
    (Sharded.live_thresholds obs = (4, 12));
  (match Sharded.resilience_statistics plain with
  | None -> ()
  | Some _ -> Alcotest.fail "no policy installed but statistics reported");
  match Sharded.resilience_statistics obs with
  | None -> Alcotest.fail "observer installed but no statistics"
  | Some rs ->
    Alcotest.(check int) "no retunes" 0 rs.Runner.retunes;
    Alcotest.(check int) "no repairs" 0 rs.Runner.repair_attempts;
    Alcotest.(check bool) "estimator saw the loss" true
      (rs.Runner.loss_estimate > 0.)

(* --- live_nodes: incremental sorted array vs rebuild-and-sort --- *)

let test_live_nodes_incremental () =
  let r = make_system ~n:50 () in
  let module IntSet = Set.Make (Int) in
  let expected = ref IntSet.empty in
  for id = 0 to 49 do
    expected := IntSet.add id !expected
  done;
  let rng = Rng.create 99 in
  let check_snapshot () =
    let got =
      Array.to_list
        (Array.map (fun n -> n.Protocol.node_id) (Runner.live_nodes r))
    in
    (* The rebuild-and-sort baseline the incremental array must match. *)
    Alcotest.(check (list int)) "sorted live ids" (IntSet.elements !expected) got
  in
  for _ = 1 to 150 do
    if Rng.bernoulli rng 0.45 && IntSet.cardinal !expected > 5 then begin
      let live = Runner.live_nodes r in
      let victim = (Rng.choose rng live).Protocol.node_id in
      ignore (Runner.remove_node r victim);
      expected := IntSet.remove victim !expected
    end
    else begin
      let bootstrap = Runner.bootstrap_from r ~count:4 in
      let id = Runner.add_node r ~bootstrap in
      expected := IntSet.add id !expected
    end;
    check_snapshot ()
  done;
  Runner.run_rounds r 5;
  check_snapshot ()

(* --- Sampling: the list-free scan preserves the RNG stream --- *)

(* The historical implementation: fold the candidates into a list (highest
   slot first), then one [Rng.choose] over the materialized array. *)
let reference_sample ?(allow_self = false) runner rng ~node_id =
  match Runner.find_node runner node_id with
  | None -> None
  | Some node ->
    let candidates =
      View.fold
        (fun acc e ->
          if allow_self || e.View.id <> node_id then e.View.id :: acc else acc)
        [] node.Protocol.view
    in
    if candidates = [] then None
    else Some (Rng.choose rng (Array.of_list candidates))

let test_sample_matches_reference () =
  let r = make_system ~seed:3 ~n:60 ~loss:0.05 () in
  Runner.run_rounds r 10;
  let rng_new = Rng.create 123 and rng_ref = Rng.create 123 in
  for node_id = 0 to 59 do
    for _ = 1 to 5 do
      Alcotest.(check (option int))
        "same draw"
        (reference_sample r rng_ref ~node_id)
        (Sampling.sample r rng_new ~node_id)
    done
  done;
  for node_id = 0 to 9 do
    Alcotest.(check (option int))
      "same draw (allow_self)"
      (reference_sample ~allow_self:true r rng_ref ~node_id)
      (Sampling.sample ~allow_self:true r rng_new ~node_id)
  done;
  (* Equal stream positions afterwards: the rewrite consumed exactly the
     same randomness. *)
  Alcotest.(check int) "streams still aligned" (Rng.int rng_ref 1_000_000)
    (Rng.int rng_new 1_000_000)

let test_sample_many_contract () =
  let r = make_system ~n:40 () in
  Runner.run_rounds r 5;
  let rng = Rng.create 5 in
  let xs = Sampling.sample_many r rng ~node_id:0 ~k:10 in
  Alcotest.(check int) "k results on a populated view" 10 (List.length xs);
  List.iter
    (fun id ->
      Alcotest.(check bool) "valid non-self id" true (id >= 0 && id <> 0))
    xs;
  Alcotest.(check (list int))
    "unknown node: k failed attempts, empty result" []
    (Sampling.sample_many r rng ~node_id:9999 ~k:5);
  let lonely = Runner.add_node r ~bootstrap:[] in
  Alcotest.(check (list int))
    "empty view: every attempt fails, none aborts" []
    (Sampling.sample_many r rng ~node_id:lonely ~k:5);
  Alcotest.(check (list int)) "k = 0" [] (Sampling.sample_many r rng ~node_id:0 ~k:0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_degrees_match_recount;
    Alcotest.test_case "Flat int32 cell bounds" `Quick test_flat_cell_bounds;
    Alcotest.test_case "Flat.sample_id matches the spread scan" `Quick
      test_sample_id_matches_scan;
    Alcotest.test_case "Flat footprint: 20 bytes per slot" `Quick
      test_flat_footprint;
    Alcotest.test_case "Par fork-join determinism" `Quick test_par_determinism;
    Alcotest.test_case "domain-count invariance" `Quick
      test_domain_count_invariance;
    Alcotest.test_case "sharded strict audit" `Quick test_sharded_strict_audit;
    Alcotest.test_case "edge ledger totals" `Quick test_edge_ledger_totals;
    Alcotest.test_case "chaos domain-count invariance" `Quick
      test_chaos_domain_invariance;
    Alcotest.test_case "chaos strict audit" `Quick test_chaos_strict_audit;
    Alcotest.test_case "GE stationary mean at 10k" `Slow test_ge_stationary_mean;
    Alcotest.test_case "churn ledger totals" `Quick test_churn_ledger_totals;
    Alcotest.test_case "observe-only resilience identity" `Quick
      test_observe_only_resilience_identity;
    Alcotest.test_case "incremental live array" `Quick
      test_live_nodes_incremental;
    Alcotest.test_case "sample preserves RNG stream" `Quick
      test_sample_matches_reference;
    Alcotest.test_case "sample_many contract" `Quick test_sample_many_contract;
  ]
