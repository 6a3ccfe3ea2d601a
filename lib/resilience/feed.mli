(** The estimator → controller feed, shared by every engine.

    Once per decision tick an engine passes its {e cumulative} protocol
    counters; the feed hands the deltas since the previous tick to
    {!Estimator.observe} and, when the policy retunes and the estimator
    is {!Estimator.confident}, returns {!Controller.decide}'s verdict.
    Consumes no randomness. *)

type t

val create : ?edges:int -> Policy.t -> initial:int * int -> capacity:int -> t
(** A feed with a fresh estimator and controller per the policy
    ({!Policy.estimator}, {!Policy.controller}).  [edges] is the edge total
    at creation, the baseline of the first [edge_delta] (default [0]); pass
    it exactly when {!tick} is given [edges]. *)

val tick :
  t ->
  ?to_dead:int ->
  ?churn_edges_added:int ->
  ?churn_edges_removed:int ->
  ?edges:int ->
  sends:int ->
  duplications:int ->
  deletions:int ->
  unit ->
  (int * int) option
(** One decision tick over cumulative counter positions.  The optional
    positions are the sharded engine's edge-ledger terms (see
    {!Estimator.observe}); omitted, they feed zero deltas.  Returns the
    controller's new (dL, s), or [None]. *)

val estimator : t -> Estimator.t
val controller : t -> Controller.t

val clamped_config : capacity:int -> degree:int -> int * int -> int * int
(** [clamped_config ~capacity ~degree (dl, s)] fits a controller target
    to one node: s within [[max 6 (degree rounded up to even)], capacity]],
    dL even within [[0, s - 6]]. *)
