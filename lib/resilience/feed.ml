(* The resilience feed every engine runs once per decision tick.

   Engines hand over their cumulative protocol counters; the feed turns
   them into deltas since the previous tick for the estimator, and — once
   the estimator is confident and the policy retunes — asks the
   controller for a new (dL, s).  The sharded engine also hands over its
   edge-ledger terms (deliveries to dead slots, churn edge flux, the edge
   total), which the estimator's churn correction consumes; engines that
   omit them feed zero deltas, the bare Lemma 6.6 inversion. *)

type t = {
  retune : bool;
  estimator : Estimator.t;
  controller : Controller.t;
  (* Counter positions at the previous tick. *)
  mutable sends : int;
  mutable duplications : int;
  mutable deletions : int;
  mutable to_dead : int;
  mutable added : int;
  mutable removed : int;
  mutable edges : int;
}

let create ?(edges = 0) policy ~initial ~capacity =
  {
    retune = policy.Policy.retune;
    estimator = Policy.estimator policy;
    controller = Policy.controller policy ~initial ~capacity;
    sends = 0;
    duplications = 0;
    deletions = 0;
    to_dead = 0;
    added = 0;
    removed = 0;
    edges;
  }

let estimator t = t.estimator
let controller t = t.controller

let tick t ?(to_dead = 0) ?(churn_edges_added = 0) ?(churn_edges_removed = 0)
    ?(edges = 0) ~sends ~duplications ~deletions () =
  Estimator.observe t.estimator ~to_dead:(to_dead - t.to_dead)
    ~churn_edges_added:(churn_edges_added - t.added)
    ~churn_edges_removed:(churn_edges_removed - t.removed)
    ~edge_delta:(edges - t.edges) ~sends:(sends - t.sends)
    ~duplications:(duplications - t.duplications)
    ~deletions:(deletions - t.deletions) ();
  t.sends <- sends;
  t.duplications <- duplications;
  t.deletions <- deletions;
  t.to_dead <- to_dead;
  t.added <- churn_edges_added;
  t.removed <- churn_edges_removed;
  t.edges <- edges;
  if t.retune && Estimator.confident t.estimator then
    Controller.decide t.controller ~loss:(Estimator.estimate t.estimator)
  else None

(* Clamp a controller target to one node: s never drops below the node's
   outdegree (retuning evicts nothing; the receive rule stops accepting
   until decay catches up) nor rises above the allocated view, and dL
   stays even in [0, s - 6]. *)
let clamped_config ~capacity ~degree (dl, s) =
  let even_up x = if x land 1 = 0 then x else x + 1 in
  let s = min capacity (max s (max 6 (even_up degree))) in
  let dl = max 0 (min dl (s - 6)) in
  let dl = if dl land 1 = 0 then dl else dl - 1 in
  (dl, s)
