(** The sharded flat-state engine.

    A second execution engine for the same protocol, built for n in the
    10{^4}-10{^6} range: the whole world lives in one {!View.Flat} packed
    store, and rounds run as a bulk-synchronous schedule over a fixed
    number of logical shards that OCaml 5 domains execute in parallel
    between deterministic barriers.

    One round = every node initiates exactly once (phase I, per shard in
    node-id order), a barrier, then every surviving message is delivered
    (phase II, per destination shard; source shards in index order,
    messages in generation order).  Each logical shard draws from its own
    PRNG stream, split from the root seed in shard order, and touches only
    its own nodes' state — so the run is a pure function of
    [(seed, n, config, shards, loss_rate, scenario, churn, resilience)]:
    any [domains] value replays the single-domain run bit-for-bit
    ({!equal} is the oracle).

    The full robustness stack runs under the same contract: crash and
    partition windows are recomputed from the round clock at the barrier,
    stateful loss chains live per shard, churn turns the population over
    on per-shard free lists (an extra churn phase precedes phase I), and
    the resilience layer estimates/retunes/repairs at the barrier after
    phase II — see {!create}. *)

type world_counters = {
  actions : int;
  self_loops : int;
  sends : int;
  duplications : int;
  receipts : int;
  deletions : int;
  messages_lost : int;
}
(** The counter vocabulary of both engines ({!Runner.world_counters}
    re-exports it). *)

type resilience_stats = {
  loss_estimate : float;       (** current smoothed Lemma 6.6 inversion *)
  estimator_confident : bool;  (** at least one full window folded *)
  estimator_windows : int;
  retunes : int;               (** controller decisions applied *)
  repair_attempts : int;       (** supervised repair passes charged *)
  recoveries : int;            (** attempts confirmed by a healthy probe *)
}

type t

type churn = {
  churn_rate : float;
      (** per-round leave probability of each live node; every leave is
          matched by a join in the same shard, so the population is
          stationary with [churn_rate] turnover *)
  headroom : int;
      (** extra node slots beyond [n], rounded up to a multiple of the
          shard count and strided across shards ([n + c*S + i] belongs
          to shard [i]); depth of the id-reuse delay *)
}

type churn_stats = {
  joins : int;
  leaves : int;
  join_skips : int;
      (** joins skipped because the shard had no live donor left *)
  deliveries_to_dead : int;
      (** messages that arrived at a departed node's slot *)
}

type ledger = {
  accepted_duplications : int;
  dropped_non_duplicated : int;
  churn_edges_added : int;
      (** edges installed out of band by joins and rebootstraps *)
  churn_edges_removed : int;
      (** edges cleared out of band by leaves and rebootstraps *)
}
(** The extended Lemma 6.6 balance: since creation the edge total has
    moved by exactly [2*accepted_duplications - 2*dropped_non_duplicated
    + churn_edges_added - churn_edges_removed].  Crashes freeze nodes
    but destroy edges only through the messages they drop, so they need
    no term of their own. *)

type init_topology =
  | Ring
      (** node [u] starts pointing at [u+1 .. u+d0] (mod [n]): the
          historical deterministic start.  Weakly connected, but a 1-D
          cycle — views mix only at random-walk speed, so rumors crawl
          for a long time after creation. *)
  | Scatter
      (** node [u] starts pointing at [d0] hash-scattered non-self ids
          (a pure integer-hash function of [(seed, u, slot)] — no RNG
          stream is consumed, so enabling it cannot perturb the
          per-shard streams).  An expander-like random [d0]-out digraph
          whose views mix in O(log n) rounds — the start
          rumor-spreading workloads need. *)

val create :
  ?shards:int ->
  ?loss_rate:float ->
  ?init_degree:int ->
  ?init:init_topology ->
  ?scenario:Sf_faults.Scenario.t ->
  ?churn:churn ->
  ?resilience:Sf_resil.Policy.t ->
  ?probe_every:int ->
  seed:int ->
  n:int ->
  config:Protocol.config ->
  unit ->
  t
(** Build an [n]-node world whose initial topology is [init] (default
    {!Ring}) with uniform outdegree [d0]: [init_degree] (must be even,
    in [2, view_size], below [n]) or an even default between dL and s.
    [shards] (default 16) is the {e logical} shard count — part of the
    world's identity: changing it changes the run, changing the later
    [domains] argument does not.  [loss_rate] must lie in [0, 1).

    [scenario] runs crash/partition windows and stateful loss (the
    Gilbert–Elliott chain state is split per shard, so every domain
    count replays the same run); [Delay]/[Corrupt] windows are
    rejected — the engine has no latency model and no wire bytes.
    [churn] adds per-round join/leave turnover on per-shard free lists.
    [resilience] runs the estimator/controller/supervisor stack at the
    barrier after each round, probing the overlay every [probe_every]
    (default 8) rounds when recovery is enabled.  All three are part of
    the world's identity; omitting them replays the historical
    scenario-free engine bit-for-bit.

    Raises [Invalid_argument] on out-of-range arguments, unsupported
    windows, or [n < 3]. *)

val run_round : t -> domains:int -> unit
(** One bulk-synchronous round: all initiates, barrier, all
    deliveries, barrier.  [domains] is the physical parallelism used
    for this round; the result is identical for every value. *)

val run_rounds : t -> ?domains:int -> int -> unit
(** [run_rounds t ~domains r] runs [r] rounds ([domains] defaults
    to 1). *)

val config : t -> Protocol.config

val node_count : t -> int
(** The initial population [n] (also the partition block base). *)

val capacity : t -> int
(** Node slots in the store: [n] plus the rounded churn headroom. *)

val shard_count : t -> int

val rounds_completed : t -> int
(** Rounds fully executed so far. *)

val store : t -> View.Flat.t
(** The packed world state (live view: mutated by later rounds).  Its
    node count is {!capacity}; dead slots have empty views. *)

val is_live : t -> int -> bool
(** Is this node slot currently occupied by a live node?  (Without
    churn, exactly the ids in [0, n).) *)

val live_count : t -> int
(** Live nodes across all shards. *)

val shard_of : t -> int -> int
(** The shard owning a node slot: [id / chunk] for initial ids,
    [(id - n) mod shard_count] for strided headroom slots.  Layered
    engines (e.g. the dissemination layer) partition their per-node
    state by the same map so owner-only write discipline carries
    over. *)

val scenario : t -> Sf_faults.Scenario.t option
(** The installed fault scenario, if any. *)

val loss_rate : t -> float
(** The configured uniform chance-loss probability. *)

val is_crashed : t -> int -> bool
(** [true] while some crash window active {e this round} covers the
    id.  Window activity is refreshed once per round at the barrier
    (a pure function of the round clock), so the answer is stable —
    and safe to read from any domain — for the whole round. *)

val partitioned : t -> src:int -> dst:int -> bool
(** [true] when an active partition window separates the two ids
    (same contiguous-block rule as {!Sf_faults.Injector}; joiner ids
    wrap by [id mod n]).  Stable per round, like {!is_crashed}. *)

val total_edges : t -> int
(** Global outdegree sum, from the store's cached degrees. *)

val minted : t -> int array
(** Per-shard mint positions: shard [i] has handed out serials
    [i, i + S, ..., (minted.(i) - 1) * S + i] where [S] is the shard
    count — every serial stored anywhere is one of these. *)

val conservation : t -> int * int
(** [(accepted_duplications, dropped_non_duplicated)] since creation —
    the first two ledger components (see {!ledger} for the churn
    terms). *)

val ledger : t -> ledger
(** The full extended edge ledger since creation. *)

val churn_statistics : t -> churn_stats
(** Join/leave bookkeeping (all zero without churn). *)

val fault_statistics : t -> Sf_faults.Injector.stats option
(** Injector-vocabulary fault evidence — judged sends, chance/burst/
    partition/crash drops, window transitions — or [None] when the
    world runs without a scenario.  Corruptions are always 0 here. *)

val resilience_statistics : t -> resilience_stats option
(** Estimator/controller/supervisor state, or [None] when the world
    runs without a resilience policy. *)

val live_thresholds : t -> int * int
(** The (dL, s) currently in force (identical across shards; retunes
    rewrite all shards at a barrier). *)

val world_counters : t -> world_counters
(** Same counter vocabulary as the orchestrated runner, summed over
    shards. *)

val equal : t -> t -> bool
(** Bit-for-bit world equality — store contents, round clock, alive
    map, window state, free-list positions, loss-chain states, live
    thresholds, every per-shard counter and mint position.  The
    determinism oracle for domain-count invariance. *)
