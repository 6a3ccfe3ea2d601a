(* SCALE: the million-node ladder over the sharded flat-state runner
   (ROADMAP item 1), plus SSTORM, its chaos gate.

   The baseline ladder — n = 10^4, 10^5, 10^6 — runs bulk-synchronous
   rounds on Runner.Sharded and reports actions/second plus the process's
   peak RSS.  The 10k leg additionally:

   - replays itself under the strict invariant audit (edge ledger every
     round, full structural scan periodically) on a fresh world, and
   - re-runs on 2 domains and asserts bit-for-bit equality with the
     1-domain world (Runner.Sharded.equal) — the determinism contract of
     the sharded engine, checked in anger.

   The full ladder then adds chaos legs at 10^5 and 10^6: bursty
   Gilbert-Elliott loss (stationary mean 0.2, mean burst 8) with 1%
   join/leave churn per round, once with the adaptive resilience stack on
   and once off — the cost of surviving the regime vs merely running it.

   The whole ladder folds into BENCH_scale.json (one object per leg).
   [run ~smoke:true] is the CI gate: the 10k leg only, with both checks,
   well under a minute.  The full ladder is the artifact behind the
   committed BENCH_scale.json.

   [sstorm] is the storm-scale CI gate (budget: well under a minute),
   written to BENCH_sstorm.json: an audited n = 10^4 run under a mixed
   GE + partition + crash scenario with churn and resilience on, the
   domain-count oracle at k in {1, 2, 4}, and the injector verdict —
   every declared fault class must leave evidence in the counters.  Exit
   1 on a failed verdict, matching `sfg soak`. *)

module Sharded = Sf_core.Runner.Sharded
module Protocol = Sf_core.Protocol
module Census = Sf_core.Census
module Invariant = Sf_check.Invariant
module Json = Sf_obs.Json

let seed = 42
let loss = 0.05
let shards = 16

(* Small view: at n = 10^6 the store takes 20 bytes per slot, so
   s = 16 keeps it at 320 MB. *)
let config = Protocol.make_config ~view_size:16 ~lower_threshold:4

(* The production solver wiring: section 6.3 re-solved for the estimated
   loss, clamped below select_lossy's 0.5 domain bound. *)
let chaos_policy () =
  let solve ~loss =
    let t =
      Sf_analysis.Thresholds.select_lossy ~d_hat:8 ~delta:0.01
        ~loss:(Float.min loss 0.45)
    in
    (t.Sf_analysis.Thresholds.lower_threshold, t.Sf_analysis.Thresholds.view_size)
  in
  Sf_resil.Policy.make ~solve ()

let scenario_exn s =
  match Sf_faults.Scenario.of_string s with
  | Ok sc -> sc
  | Error e -> invalid_arg ("SCALE: scenario: " ^ e)

(* Bursty loss at stationary mean 0.2 for the chaos legs; scaled to n so
   every leg's churn headroom stays proportional. *)
let chaos_scenario () = scenario_exn "ge:0.2:8"
let chaos_churn n = { Sharded.churn_rate = 0.01; headroom = max 1024 (n / 50) }

type leg = {
  label : string;
  n : int;
  rounds : int;
  domains : int;
  resilience : bool;
  churned : bool;
  seconds : float;
  actions : int;
  peak_rss_kb : int option;
  mean_degree : float;
  alpha : float;
  audited : bool;
  audit_violations : int;
  identity_checked : bool;
  identity_ok : bool;
}

let actions_per_sec leg =
  if leg.seconds > 0. then float_of_int leg.actions /. leg.seconds else 0.

(* One timed leg: fresh world, [rounds] rounds, no audit in the timed
   region (the audit's per-round scans would dominate at 10^6). *)
let timed_leg ?(label = "baseline") ?scenario ?churn ?(resilience = false) ~n
    ~rounds ~domains ~audit () =
  let make () =
    Sharded.create ~shards ~loss_rate:loss ?scenario ?churn
      ?resilience:(if resilience then Some (chaos_policy ()) else None)
      ~seed ~n ~config ()
  in
  let audited, audit_violations, identity_checked, identity_ok =
    if not audit then (false, 0, false, false)
    else begin
      (* Strict audit on its own world: any violation raises. *)
      let w = make () in
      let stats = Invariant.audited_sharded_run ~scan_every:10 w ~rounds in
      (* Domain-count invariance: 1 domain vs 2 domains, same seed. *)
      let a = make () and b = make () in
      Sharded.run_rounds a ~domains:1 rounds;
      Sharded.run_rounds b ~domains:2 rounds;
      (true, stats.Invariant.violation_count, true, Sharded.equal a b)
    end
  in
  let w = make () in
  let elapsed = Sf_obs.Clock.stopwatch ~clock:Sf_obs.Clock.wall in
  Sharded.run_rounds w ~domains rounds;
  let seconds = elapsed () in
  let counters = Sharded.world_counters w in
  let census = Census.of_flat (Sharded.store w) in
  let leg =
    {
      label;
      n;
      rounds;
      domains;
      resilience;
      churned = churn <> None;
      seconds;
      actions = counters.Sf_core.Runner.actions;
      peak_rss_kb = Sf_obs.Clock.peak_rss_kb ();
      mean_degree =
        float_of_int (Sharded.total_edges w)
        /. float_of_int (Sharded.live_count w);
      alpha = census.Census.alpha;
      audited;
      audit_violations;
      identity_checked;
      identity_ok;
    }
  in
  Output.row
    "  %-14s n=%7d  rounds=%2d  %6.2fs  %10.0f actions/s  d=%5.2f  alpha=%.3f%s@."
    label n rounds seconds (actions_per_sec leg) leg.mean_degree leg.alpha
    (match leg.peak_rss_kb with
    | Some kb -> Fmt.str "  rss=%dMB" (kb / 1024)
    | None -> "");
  if audit then begin
    Output.check (Fmt.str "strict audit clean over %d rounds" rounds)
      (audit_violations = 0);
    Output.check "2-domain run bit-identical to 1-domain run" identity_ok
  end;
  leg

let json_of_leg leg =
  Json.Obj
    [
      ("label", Json.String leg.label);
      ("n", Json.Int leg.n);
      ("rounds", Json.Int leg.rounds);
      ("domains", Json.Int leg.domains);
      ("shards", Json.Int shards);
      ("loss", Json.Float loss);
      ("resilience", Json.Bool leg.resilience);
      ("churn", Json.Bool leg.churned);
      ("seconds", Json.Float leg.seconds);
      ("actions", Json.Int leg.actions);
      ("actions_per_sec", Json.Float (actions_per_sec leg));
      ( "peak_rss_kb",
        match leg.peak_rss_kb with Some kb -> Json.Int kb | None -> Json.Null );
      ("mean_degree", Json.Float leg.mean_degree);
      ("alpha", Json.Float leg.alpha);
      ("audited", Json.Bool leg.audited);
      ("audit_violations", Json.Int leg.audit_violations);
      ("identity_checked", Json.Bool leg.identity_checked);
      ("identity_ok", Json.Bool leg.identity_ok);
    ]

let run ~smoke () =
  Output.section
    (if smoke then "SCALE10" else "SCALE")
    "Million-node ladder on the sharded flat-state runner";
  Output.row "  s=%d dL=%d shards=%d loss=%.2f seed=%d@."
    config.Protocol.view_size config.Protocol.lower_threshold shards loss seed;
  let domains = max 1 (min shards (Domain.recommended_domain_count ())) in
  (* Ascending n, sequenced explicitly: peak RSS is the process's monotone
     high-water mark, so each leg's reading must not inherit a larger
     earlier world (and list literals evaluate right to left). *)
  let legs =
    if smoke then [ timed_leg ~n:10_000 ~rounds:30 ~domains ~audit:true () ]
    else begin
      let small = timed_leg ~n:10_000 ~rounds:30 ~domains ~audit:true () in
      let mid = timed_leg ~n:100_000 ~rounds:10 ~domains ~audit:false () in
      (* Chaos legs at each n before its bigger baseline: GE 0.2 loss,
         1% churn per round, resilience off then on. *)
      let chaos ~n ~rounds ~resilience =
        timed_leg
          ~label:(if resilience then "chaos+resil" else "chaos")
          ~scenario:(chaos_scenario ()) ~churn:(chaos_churn n) ~resilience ~n
          ~rounds ~domains ~audit:false ()
      in
      let mid_chaos = chaos ~n:100_000 ~rounds:10 ~resilience:false in
      let mid_resil = chaos ~n:100_000 ~rounds:10 ~resilience:true in
      let big = timed_leg ~n:1_000_000 ~rounds:5 ~domains ~audit:false () in
      let big_chaos = chaos ~n:1_000_000 ~rounds:5 ~resilience:false in
      let big_resil = chaos ~n:1_000_000 ~rounds:5 ~resilience:true in
      [ small; mid; mid_chaos; mid_resil; big; big_chaos; big_resil ]
    end
  in
  let failed =
    List.exists
      (fun l -> l.audit_violations > 0 || (l.identity_checked && not l.identity_ok))
      legs
  in
  if failed then failwith "SCALE: audit or determinism check failed";
  Json.Obj
    [
      ("config",
       Json.Obj
         [
           ("view_size", Json.Int config.Protocol.view_size);
           ("lower_threshold", Json.Int config.Protocol.lower_threshold);
           ("shards", Json.Int shards);
           ("loss", Json.Float loss);
           ("seed", Json.Int seed);
           ("domains", Json.Int domains);
         ]);
      ("legs", Json.List (List.map json_of_leg legs));
    ]

(* --- SSTORM: the chaos gate at n = 10^4 --- *)

let sstorm () =
  Output.section "SSTORM"
    "Chaos gate: mixed faults + churn + resilience on the sharded runner";
  let n = 10_000 and rounds = 30 in
  let scenario = scenario_exn "ge:0.2:8;partition@5-12:2;crash@15-20:0-999" in
  let churn = { Sharded.churn_rate = 0.01; headroom = 1024 } in
  let make () =
    Sharded.create ~shards ~seed ~n ~config ~scenario ~churn
      ~resilience:(chaos_policy ()) ~probe_every:8 ()
  in
  Output.row "  n=%d rounds=%d s=%d dL=%d shards=%d seed=%d@." n rounds
    config.Protocol.view_size config.Protocol.lower_threshold shards seed;
  Output.row "  scenario=%s churn=%.2f@."
    (Sf_faults.Scenario.to_string scenario)
    churn.Sharded.churn_rate;
  (* Strict audit: extended ledger every round, structural scans. *)
  let audit_world = make () in
  let stats =
    Invariant.audited_sharded_run ~mode:Invariant.Strict ~scan_every:10
      audit_world ~rounds
  in
  (* Domain-count oracle at k in {1, 2, 4}. *)
  let domain_runs =
    List.map
      (fun k ->
        let w = make () in
        let elapsed = Sf_obs.Clock.stopwatch ~clock:Sf_obs.Clock.wall in
        Sharded.run_rounds w ~domains:k rounds;
        (k, w, elapsed ()))
      [ 1; 2; 4 ]
  in
  let reference =
    match domain_runs with (_, w, _) :: _ -> w | [] -> assert false
  in
  let identity_ok =
    List.for_all (fun (_, w, _) -> Sharded.equal reference w) domain_runs
  in
  (* Injector verdict: every declared fault class left evidence. *)
  let fs =
    match Sharded.fault_statistics reference with
    | Some fs -> fs
    | None -> invalid_arg "SSTORM: scenario declared but no injector statistics"
  in
  let cs = Sharded.churn_statistics reference in
  let rs =
    match Sharded.resilience_statistics reference with
    | Some rs -> rs
    | None -> invalid_arg "SSTORM: resilience declared but no statistics"
  in
  let verdicts =
    [
      ("strict audit clean", stats.Invariant.violation_count = 0);
      ("domain counts 1/2/4 bit-identical", identity_ok);
      ("bursty loss engaged", fs.Sf_faults.Injector.burst_drops > 0);
      ("partition engaged", fs.Sf_faults.Injector.partition_drops > 0);
      ("crash wave engaged", fs.Sf_faults.Injector.crash_drops > 0);
      ("fault windows transitioned", fs.Sf_faults.Injector.fault_transitions > 0);
      ("churn turned nodes over", cs.Sharded.joins > 0);
      ("estimator confident", rs.Sf_core.Runner.estimator_confident);
    ]
  in
  List.iter (fun (what, ok) -> Output.check what ok) verdicts;
  let dl, s = Sharded.live_thresholds reference in
  Output.row
    "  faults: %d judged, %d chance (%d bursty), %d partition, %d crash; churn \
     %d joins/%d leaves; loss estimate %.3f; thresholds dL=%d s=%d@."
    fs.Sf_faults.Injector.judged fs.Sf_faults.Injector.chance_drops
    fs.Sf_faults.Injector.burst_drops fs.Sf_faults.Injector.partition_drops
    fs.Sf_faults.Injector.crash_drops cs.Sharded.joins cs.Sharded.leaves
    rs.Sf_core.Runner.loss_estimate dl s;
  let failed = List.filter (fun (_, ok) -> not ok) verdicts in
  if failed <> [] then begin
    List.iter
      (fun (what, _) -> Fmt.epr "SSTORM: failed verdict: %s@." what)
      failed;
    (* Exit 1 on a failed verdict — same convention as `sfg soak`. *)
    exit 1
  end;
  Json.Obj
    [
      ("n", Json.Int n);
      ("rounds", Json.Int rounds);
      ("shards", Json.Int shards);
      ("scenario", Json.String (Sf_faults.Scenario.to_string scenario));
      ("churn_rate", Json.Float churn.Sharded.churn_rate);
      ("audit_violations", Json.Int stats.Invariant.violation_count);
      ("rounds_audited", Json.Int stats.Invariant.actions_checked);
      ("identity_ok", Json.Bool identity_ok);
      ( "domain_runs",
        Json.List
          (List.map
             (fun (k, _, seconds) ->
               Json.Obj [ ("domains", Json.Int k); ("seconds", Json.Float seconds) ])
             domain_runs) );
      ( "faults",
        Json.Obj
          [
            ("judged", Json.Int fs.Sf_faults.Injector.judged);
            ("chance_drops", Json.Int fs.Sf_faults.Injector.chance_drops);
            ("burst_drops", Json.Int fs.Sf_faults.Injector.burst_drops);
            ("partition_drops", Json.Int fs.Sf_faults.Injector.partition_drops);
            ("crash_drops", Json.Int fs.Sf_faults.Injector.crash_drops);
            ( "fault_transitions",
              Json.Int fs.Sf_faults.Injector.fault_transitions );
          ] );
      ( "churn",
        Json.Obj
          [
            ("joins", Json.Int cs.Sharded.joins);
            ("leaves", Json.Int cs.Sharded.leaves);
            ("join_skips", Json.Int cs.Sharded.join_skips);
            ("deliveries_to_dead", Json.Int cs.Sharded.deliveries_to_dead);
            ("live", Json.Int (Sharded.live_count reference));
          ] );
      ( "resilience",
        Json.Obj
          [
            ("loss_estimate", Json.Float rs.Sf_core.Runner.loss_estimate);
            ( "estimator_confident",
              Json.Bool rs.Sf_core.Runner.estimator_confident );
            ("retunes", Json.Int rs.Sf_core.Runner.retunes);
            ("repair_attempts", Json.Int rs.Sf_core.Runner.repair_attempts);
            ("recoveries", Json.Int rs.Sf_core.Runner.recoveries);
            ("lower_threshold", Json.Int dl);
            ("view_size", Json.Int s);
          ] );
      ( "verdicts",
        Json.Obj (List.map (fun (what, ok) -> (what, Json.Bool ok)) verdicts) );
    ]
