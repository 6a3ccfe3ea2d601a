(** Orchestration of an S&F system: nodes, lossy network, churn, and
    measurement.

    Sequential-action mode implements the paper's analysis model (a central
    scheduler runs one action at a time); timed mode runs each node on its
    own clock over the discrete-event network. *)

type t

type scheduling =
  | Poisson of float   (** initiations as a Poisson process with this rate *)
  | Periodic of float  (** fixed period with small jitter *)

(** {2 Audit events}

    An optional audit callback observes every action with enough context to
    re-check the paper's invariants from outside the runner: the initiator's
    outdegree before and after, the duplication decision, and the fate of
    the message.  [Sf_check.Invariant] is the standard consumer. *)

type delivery =
  | Accepted   (** placed in the receiver's view *)
  | Deleted    (** receiver full: both ids dropped *)
  | Lost       (** eaten by the network *)
  | To_dead    (** destination has no live handler *)
  | In_flight  (** timed mode: outcome not yet known *)

type action_outcome =
  | Audit_self_loop
  | Audit_send of { destination : int; duplicated : bool; delivery : delivery }

type audit_event =
  | Action of {
      initiator : int;
      degree_before : int;
      degree_after : int;
      outcome : action_outcome;
    }
  | Receipt of { receiver : int; accepted : bool }
      (** timed-mode delivery, asynchronous w.r.t. actions *)
  | Structural of string
      (** join/leave/reconnect/rebootstrap: edge totals changed out of band *)

val set_audit : t -> (t -> audit_event -> unit) option -> unit
(** Install (or clear) the audit callback.  The callback runs after the
    reported transition has fully taken effect. *)

val create :
  ?latency:(Sf_prng.Rng.t -> float) ->
  ?destination_loss:(int -> float) ->
  ?audit:(t -> audit_event -> unit) ->
  ?scenario:Sf_faults.Scenario.t ->
  ?obs:Sf_obs.Obs.t ->
  ?resilience:Sf_resil.Policy.t ->
  seed:int ->
  n:int ->
  loss_rate:float ->
  config:Protocol.config ->
  topology:Topology.t ->
  unit ->
  t
(** Build a system of [n] nodes with the given initial topology. All
    randomness derives from [seed].

    [scenario] routes every send through a fault plan (bursty loss,
    partitions, crashes, delay spikes, corruption — see
    {!Sf_faults.Scenario}).  Omitting it — or passing
    {!Sf_faults.Scenario.default} — reproduces the fault-free RNG stream
    byte-for-byte.  The scenario's round clock is [actions / n] in
    sequential mode and virtual time in timed mode; window boundary
    crossings surface as [Structural] audit events so the invariant auditor
    resyncs its conservation baseline.

    [obs] is the observability bundle shared by the runner, its network
    and its fault injector: all [runner_*], [net_*] and [faults_*]
    metrics land in its registry, and — when a tracer is attached —
    protocol events (Send/Drop/Deliver/Duplicate/Delete/Timer/Fault/Mark)
    are recorded, stamped with the injected round clock (sequential mode)
    or virtual time (timed mode).  A private bundle is used when omitted.
    Observation consumes no randomness: instrumented runs replay
    byte-identically.

    [resilience] installs the self-healing layer (lib/resilience): once
    per round — sequential mode only; timed mode has no rounds — the
    runner feeds a loss {!Sf_resil.Estimator} from world-counter deltas,
    lets the {!Sf_resil.Controller} retune per-node (dL, s) against the
    estimate (see {!node_config}), and lets the {!Sf_resil.Supervisor}
    drive section 5 repairs (reconnect/rebootstrap) under capped jittered
    backoff.  Decisions surface as [resil_*] metrics, [retune]/[repair]
    trace marks, and [Structural] audit events.  The resilience RNG is
    split from the root seed after every other stream, so omitting the
    option — or passing {!Sf_resil.Policy.observe_only} — replays the
    unadorned runner byte-for-byte. *)

val obs : t -> Sf_obs.Obs.t
(** The runner's observability bundle (the one passed to {!create}, or
    the private default). *)

val config : t -> Protocol.config
(** The base configuration every node starts from. *)

val node_config : t -> int -> Protocol.config
(** The configuration a node currently runs: the base config unless the
    resilience controller has retuned the node. *)

val action_count : t -> int
(** Initiate steps executed so far. *)

val minted_serials : t -> int
(** Instance serials handed out so far; every serial stored in any view is
    strictly below this bound. *)

val live_count : t -> int
val live_nodes : t -> Protocol.node array
val find_node : t -> int -> Protocol.node option
val random_live_node : t -> Protocol.node
val simulator : t -> Sf_engine.Sim.t

val is_crashed : t -> int -> bool
(** [true] while the fault scenario holds the id inside an active crash
    window (always [false] without a scenario).  Crashed nodes neither
    initiate nor receive; they resume with their stale views. *)

val fault_statistics : t -> Sf_faults.Injector.stats option
(** Fault-injection counters, when a scenario is installed. *)

val loss_rate : t -> float
(** The configured uniform chance-loss probability of the network. *)

val injector : t -> Sf_faults.Injector.t option
(** The shared fault injector, when a scenario is installed.  Read-only
    consumers (e.g. the dissemination layer judging its own messages
    against the same crash/partition windows) may query it; they must not
    draw loss verdicts through {!Sf_faults.Injector.judge} with the
    runner's RNG, which would perturb the membership stream. *)

val step : t -> unit
(** Sequential mode: one global action (random initiator, synchronous
    delivery unless lost).  Crashed nodes are skipped when picking the
    initiator; if every live node is crashed the round clock advances with
    no action. *)

val run_actions : t -> int -> unit

val run_rounds : t -> int -> unit
(** One round = [live_count t] actions (paper, section 6.5).  When a
    resilience policy is installed, each round is followed by one
    resilience tick (estimator feed, possible retune, possible supervised
    repair). *)

val start_timed : t -> scheduling -> unit
(** Switch to timed mode: every live node initiates on its own clock. *)

val run_until : t -> float -> unit
(** Timed mode: run the event loop to the given virtual time. *)

val add_node : t -> bootstrap:int list -> int
(** Join a new node whose view is seeded with [bootstrap]; returns its id. *)

val remove_node : t -> int -> Protocol.node option
(** Leave/fail: the node stops participating; its id decays out of other
    views through normal protocol operation. *)

val bootstrap_from : t -> count:int -> int list
(** Bootstrap ids for a joiner: a prefix of a random live node's view,
    filtered to live ids (the paper requires joiners to know live nodes);
    the donor's id fills any shortfall. *)

type reconnect_result =
  | Reconnected of { donor : int; probes : int; installed : int }
  | Exhausted of { probes : int }

val reconnect : t -> node_id:int -> reconnect_result
(** The section 5 reconnection rule: probe previously seen ids (then the
    current view) over the lossy network until a live node donates a copy
    of up to dL view entries, which replace the stale view. *)

val rebootstrap : t -> node_id:int -> int
(** Out-of-band recovery (the "copy another node's view" joining rule):
    replace the node's view with up to dL entries copied from a random live
    donor. Returns the number of installed entries. *)

val is_starved : t -> Protocol.node -> bool
(** No live id in the view (transient while others still hold this node's
    id; permanent once they do not). *)

val starved_nodes : t -> Protocol.node list

val is_isolated : t -> Protocol.node -> bool
(** Starved and with no surviving instance of its id anywhere — only
    reconnection can recover it. *)

val isolated_nodes : t -> Protocol.node list

val membership_graph : t -> Sf_graph.Digraph.t
(** Snapshot of the global membership multigraph over live nodes (edges to
    departed ids included — they are real view entries). *)

val count_id_instances : t -> int -> int
(** Instances of an id across all live views (decays per Lemma 6.10 after
    the node leaves). *)

val network_statistics : t -> Sf_engine.Network.statistics

type world_counters = Sharded.world_counters = {
  actions : int;
  self_loops : int;
  sends : int;
  duplications : int;
  receipts : int;
  deletions : int;
  messages_lost : int;
}

val world_counters : t -> world_counters

type rates = { duplication : float; deletion : float; loss : float }

val rates_since : t -> world_counters -> rates
(** Per-send duplication/deletion/loss rates since a counter baseline — the
    quantities balanced by Lemma 6.6. *)

(** {2 Resilience} *)

type resilience_stats = Sharded.resilience_stats = {
  loss_estimate : float;
  estimator_confident : bool;
  estimator_windows : int;
  retunes : int;
  repair_attempts : int;
  recoveries : int;
}

val resilience_statistics : t -> resilience_stats option
(** [None] unless a resilience policy was installed at {!create}. *)

(** {2 Million-node scale} *)

module Sharded = Sharded
(** The sharded flat-state engine, under its historical name. *)
