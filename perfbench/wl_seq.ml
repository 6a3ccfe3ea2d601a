(* seq-audit-1k: the sequential Sf_core.Runner (the per-view
   Sf_core.Protocol step rule Sf_net.Driver shares) at the paper's
   configuration, under Sf_check.Invariant's per-action strict audit. *)

module Runner = Sf_core.Runner
module Invariant = Sf_check.Invariant
open Common

(* 10^3: the per-action audit folds over every live node, and at this
   size those nodes stay in a core's own cache.  At 10^4 the fold runs
   out of a shared L3 and the same work ran 13% apart from run to run. *)
let n = 1_000

(* Rounds per timed unit (~0.4 s). *)
let unit_rounds = 20

(* s = 40, dL = 18, and the even sfg start degree between them. *)
let config = Sf_core.Protocol.make_config ~view_size:40 ~lower_threshold:18
let out_degree = 28

let make seed () =
  let topology =
    Sf_core.Topology.regular (Sf_prng.Rng.create (seed + 1)) ~n ~out_degree
  in
  Runner.create ~scenario:(scenario "ge:0.1:6") ~seed ~n ~loss_rate:0.01 ~config
    ~topology ()

let created ?tracer seed =
  let t0 = wall () in
  let r = Tracer.span tracer "Runner.create" (make seed) in
  (r, wall () -. t0)

let census r =
  (Sf_core.Census.of_views
     (Seq.map
        (fun node -> (node.Sf_core.Protocol.node_id, node.Sf_core.Protocol.view))
        (Array.to_seq (Runner.live_nodes r))))
    .Sf_core.Census.alpha

let fingerprint r ~alpha =
  let c = Runner.world_counters r in
  Fmt.str "actions=%d sends=%d edges=%d alpha=%.17g" c.Runner.actions c.Runner.sends
    (Invariant.total_edges r) alpha

type pass = {
  r : Runner.t;
  setup_s : float;
  samples : sample list;
  violations : int;
  alpha : float;
}

(* One strict audited run per unit of [unit_rounds] rounds, so units are
   timed one by one; each run closes with the full scan a long run would
   have made anyway every 1000 actions. *)
let pass ?tracer ?(after_unit = ignore) ~seed ~seconds checks =
  let r, setup_s = created ?tracer seed in
  let violations = ref 0 in
  let samples =
    try
      repeat (units ~seconds ~unit_s:0.37 ~min:3) (fun i ->
          let s =
            sample ~counters:(fun () -> Runner.world_counters r) (fun () ->
                let st =
                  Tracer.span tracer "Invariant.audited_run" (fun () ->
                      Invariant.audited_run ~mode:Invariant.Strict r ~rounds:unit_rounds)
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
  check checks "strict per-action audit clean" (!violations = 0 && samples <> []);
  let alpha = census r in
  { r; setup_s; samples; violations = !violations; alpha }

let outcome ~checks p =
  {
    metrics =
      end_to_end ~setup_s:p.setup_s ~units:p.samples ~alpha:p.alpha;
    attempted = (Runner.world_counters p.r).Runner.actions;
    errors = p.violations;
    failures = checks.failed;
    fingerprint = Some (fingerprint p.r ~alpha:p.alpha);
  }

let name = "seq-audit-1k"
let time_setup ~seed = snd (created seed)

(* A probe of three set-ups after every third unit: 40 set-ups in all at
   --seconds 15. *)
let run ~seed ~seconds =
  let checks = checks () in
  let s = setups ~every:3 ~workload:name ~seed ~reps:3 in
  with_setups s (outcome ~checks (pass ~after_unit:(after_unit s) ~seed ~seconds checks))

let traced tracer ~seed ~seconds =
  let untraced =
    actions_rate (rates (pass ~seed ~seconds (checks ())).samples)
  in
  let checks = checks () in
  let p = pass ~tracer ~seed ~seconds checks in
  (* The bare twin: the same rounds without the auditor attached. *)
  let twin, _ = created seed in
  let bare =
    List.map
      (fun _ ->
        sample ~counters:(fun () -> Runner.world_counters twin) (fun () ->
            Tracer.span (Some tracer) "Runner.run_rounds" (fun () ->
                Runner.run_rounds twin unit_rounds)))
      p.samples
  in
  check checks "audited runner matches its bare twin"
    (Runner.world_counters twin = Runner.world_counters p.r
    && Invariant.total_edges twin = Invariant.total_edges p.r);
  let o = outcome ~checks p in
  let actions = float_of_int (sumi (fun s -> s.actions) p.samples) in
  {
    o with
    failures = checks.failed;
    metrics =
      [
        ("runner.step_us", 1e6 *. ratio (total_s bare) actions);
        ( "invariant.seq_audit_us_per_action",
          1e6 *. ratio (total_s p.samples -. total_s bare) actions );
      ]
      @ trace_layers tracer ~untraced ~traced:(actions_rate (rates p.samples));
  }
