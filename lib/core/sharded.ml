(* The sharded flat-state engine.

   The sequential [Runner] tops out around 1k-10k nodes: one heap object
   per node, boxed audit/trace plumbing on every action, and a strictly
   serial action loop.  [Sharded] is the million-node path: the whole
   world lives in one [View.Flat] store (20 bytes per slot in a few flat
   buffers plus cached degrees — nothing per-node for the GC to walk;
   born stamps are rounds), and the action
   loop is a bulk-synchronous variant of the paper's sequential model,
   partitioned into [shard_count] fixed *logical* shards that OCaml 5
   domains execute in parallel between deterministic barriers.

   One round = every node initiates exactly once (the paper's section 6.5
   round is n actions — here the schedule is the deterministic node order
   rather than n uniform picks; A1 showed degree behaviour is scheduler-
   robust).  Each round runs two phases:

     I.  initiate: each shard walks its own nodes in id order, applying
         the S&F initiate rule ([View.Flat.initiate], the one definition
         every engine runs).  An initiate touches only the initiator's
         view; surviving messages
         are appended, flat-encoded, to the per-(source, destination)
         arena row owned by the source shard.  Loss is drawn at send time
         from the source shard's stream.
     II. deliver (after the barrier): each shard drains the arena rows
         addressed to it — source shards in index order, messages in
         generation order — applying the S&F receive rule
         ([View.Flat.receive]) to its own nodes with draws from its own
         stream.

   Determinism across domain counts is by construction, not by locking:
   every PRNG draw comes from one of [shard_count] streams split from the
   root seed in fixed order; each stream is consumed by exactly one
   logical shard whose work — its own nodes in phase I, a deterministically
   ordered inbox in phase II — does not depend on how logical shards are
   packed onto domains.  Serials are minted per shard with stride
   [shard_count] (shard i mints i, i + S, i + 2S, ...), so minting is
   collision-free and shard-local.  The only cross-shard data flow is the
   arena matrix: row [src] is written solely by shard [src] in phase I and
   read after the barrier, so the spawn/join edges of [Sf_engine.Par] are
   the only synchronization needed.  Hence any [domains] value replays the
   [domains = 1] run bit-for-bit — asserted by [equal] in the tests and
   the SCALE bench.

   Chaos at scale.  The engine optionally runs the full robustness stack
   under the same determinism contract:

   - [?scenario] threads an [Sf_faults.Scenario.t] through the round loop.
     Stateful loss processes (the Gilbert–Elliott chain position) are
     per-shard values created from the shared model, so every chain step
     draws from the owning shard's stream; crash and partition windows
     are pure functions of the round clock, recomputed once per round by
     the coordinator at the barrier and only read inside the phases.
     Verdict order per send mirrors [Sf_faults.Injector.judge]: crash
     drop (no randomness), partition drop (no randomness), chance loss
     (shard-stream draw).  Delay and corruption windows are rejected —
     this engine has no latency model and no wire bytes.
   - [?churn] adds join/leave turnover.  The store is allocated with
     [headroom] extra node slots beyond the initial population; slots
     [n + c*S + i] are owned by shard [i] (shard-strided, like serial
     minting) and threaded on a per-shard free list.  Each round opens
     with a churn phase before phase I: every shard walks its own live
     nodes in id order, draws leaves at the configured rate (clearing the
     view and recycling the slot at the back of the free list), then
     performs one join per leave — popping a slot, bootstrapping an even
     number of entries from a donor drawn among the shard's own live
     nodes.  All of it is shard-local, so phase determinism is untouched.
   - [?resilience] runs the Sf_resil stack at the barrier after phase II,
     on the coordinator: the estimator is fed the round's summed counter
     deltas ([Sf_resil.Feed]), controller retunes rewrite the per-shard
     (dL, s) thresholds (phase I reads the shard's live dL, phase II
     bounds acceptance by the live s), and the
     supervisor probes in-degree isolation and weak connectivity every
     [probe_every] rounds, rebootstrapping stragglers from a dedicated
     resilience stream split from the root seed after the shard streams.

   The edge ledger extends Lemma 6.6 accordingly: a round moves the edge
   total by 2*accepted duplications - 2*dropped non-duplicated messages
   + edges created by joins/rebootstraps - edges destroyed by
   leaves/rebootstraps ([ledger] exposes all four; crashes freeze nodes
   but destroy edges only through the messages they drop, so they need no
   term of their own). *)

module Flat = View.Flat

(* The counter vocabulary shared with the sequential runner ([Runner]
   re-exports both types). *)
type world_counters = {
  actions : int;
  self_loops : int;
  sends : int;
  duplications : int;
  receipts : int;
  deletions : int;
  messages_lost : int;
}

type resilience_stats = {
  loss_estimate : float;
  estimator_confident : bool;
  estimator_windows : int;
  retunes : int;
  repair_attempts : int;
  recoveries : int;
}

(* Growable flat arena of in-flight messages, [fields] ints per message:
   dst, src, duplicated (0/1), mixing id, mixing serial, mixing born,
   reinforcement serial.  (The reinforcement id is the source id and
   both anchors are derived from the duplication flag, so neither is
   stored; the reinforcement is born in the sending round.) *)
type arena = { mutable buf : int array; mutable len : int }

let fields = 7

let arena_create () = { buf = Array.make (fields * 64) 0; len = 0 }

let arena_clear a = a.len <- 0

let arena_push a ~dst ~src ~dup ~m_id ~m_serial ~m_born ~r_serial =
  let need = a.len + fields in
  if need > Array.length a.buf then begin
    let grown = Array.make (max need (2 * Array.length a.buf)) 0 in
    Array.blit a.buf 0 grown 0 a.len;
    a.buf <- grown
  end;
  let b = a.buf and i = a.len in
  b.(i) <- dst;
  b.(i + 1) <- src;
  b.(i + 2) <- dup;
  b.(i + 3) <- m_id;
  b.(i + 4) <- m_serial;
  b.(i + 5) <- m_born;
  b.(i + 6) <- r_serial;
  a.len <- need

type churn = {
  churn_rate : float;  (* per-round leave probability of each live node *)
  headroom : int;  (* extra node slots beyond n, rounded up to a multiple
                      of the shard count and strided across shards *)
}

type churn_stats = {
  joins : int;
  leaves : int;
  join_skips : int;  (* joins skipped because a shard had no live donor *)
  deliveries_to_dead : int;
}

type ledger = {
  accepted_duplications : int;
  dropped_non_duplicated : int;
  churn_edges_added : int;  (* installed by joins and rebootstraps *)
  churn_edges_removed : int;  (* cleared by leaves and rebootstraps *)
}

(* Per-shard counters.  The edge-conservation ledger (Lemma 6.6 at round
   granularity) is the last four: a round moves the global edge count by
   exactly 2 * Accepted_dup - 2 * Dropped_nondup + Edges_added
   - Edges_removed. *)
type counter =
  | Actions
  | Self_loops
  | Sends
  | Duplications
  | Receipts
  | Deletions
  | Lost
  | Burst_drops  (* subset of Lost drawn in a Bad state *)
  | Crash_drops
  | Partition_drops
  | Joins
  | Leaves
  | Join_skips
  | To_dead
  | Accepted_dup
  | Dropped_nondup
  | Edges_added
  | Edges_removed

let counters = 18

let[@inline] slot = function
  | Actions -> 0
  | Self_loops -> 1
  | Sends -> 2
  | Duplications -> 3
  | Receipts -> 4
  | Deletions -> 5
  | Lost -> 6
  | Burst_drops -> 7
  | Crash_drops -> 8
  | Partition_drops -> 9
  | Joins -> 10
  | Leaves -> 11
  | Join_skips -> 12
  | To_dead -> 13
  | Accepted_dup -> 14
  | Dropped_nondup -> 15
  | Edges_added -> 16
  | Edges_removed -> 17

(* All mutable per-shard state: touched only by the domain currently
   running this shard, reduced by the coordinator between barriers. *)
type shard = {
  index : int;
  lo : int;  (* first owned node *)
  hi : int;  (* one past the last owned node *)
  owned : int array;  (* every owned slot, ascending: lo..hi-1, extras *)
  rng : Sf_prng.Rng.t;
  out : arena array;  (* row of the arena matrix: one per destination shard *)
  loss : Sf_faults.Loss.t option;
      (* this shard's stateful loss process (Gilbert–Elliott chain
         position); [None] on the scenario-free path, which must replay
         the historical stream bit-for-bit *)
  mutable cfg_dl : int;  (* live thresholds — rewritten only by the *)
  mutable cfg_s : int;   (* coordinator at barriers (resilience retunes) *)
  mutable live : int;  (* live owned nodes *)
  free : int array;  (* ring buffer of free owned slots *)
  mutable free_head : int;
  mutable free_len : int;
  serials : View.minter;  (* mints index, index + S, index + 2S, ... *)
  counts : int array;  (* the counter block, indexed by [slot] *)
  packet : Flat.packet;  (* scratch message of the step rule *)
}

(* Barrier-time resilience state, touched only by the coordinator. *)
type resil = {
  r_policy : Sf_resil.Policy.t;
  r_rng : Sf_prng.Rng.t;  (* split from the root after the shard streams *)
  r_feed : Sf_resil.Feed.t;
  r_supervisor : Sf_resil.Supervisor.t;
  r_probe_every : int;
  mutable r_pending : bool;  (* a repair attempt awaits its follow-up probe *)
}

type t = {
  config : Protocol.config;
  n : int;  (* initial population; also the partition block base *)
  capacity : int;  (* node slots in the store: n + rounded headroom *)
  shard_count : int;
  chunk : int;  (* initial nodes per shard; shard of node u < n is u / chunk *)
  loss_rate : float;
  scenario : Sf_faults.Scenario.t option;
  churn_spec : churn option;
  store : Flat.t;
  alive : int array;  (* 1 = live; each slot written only by its owner
                         shard (churn phase) or the coordinator (barriers) *)
  shards : shard array;
  mutable rounds : int;
  (* Active-window state: pure functions of (scenario, round), recomputed
     once per round by the coordinator before phase I; read-only inside
     the phases. *)
  mutable active_crashes : (int * int) list;
  mutable active_parts : int list;
  window_active : bool array;
  mutable fault_transitions : int;
  resil : resil option;
}

let[@inline] add sh c k = sh.counts.(slot c) <- sh.counts.(slot c) + k
let[@inline] bump sh c = add sh c 1

(* A counter summed over shards (coordinator only). *)
let total t c = Array.fold_left (fun acc sh -> acc + sh.counts.(slot c)) 0 t.shards

type init_topology = Ring | Scatter

(* SplitMix64-style finalizer truncated to OCaml's 63-bit ints: the
   Scatter start derives every initial edge from this pure function of
   (seed, u, k), so it consumes no RNG stream — enabling it cannot
   perturb the per-shard streams, and the result is identical for every
   shard/domain layout. *)
let scatter_target ~seed ~n u k =
  let h =
    ref
      ((seed * 0x1E3779B97F4A7C15)
      + (u * 0x3F58476D1CE4E5B9)
      + (k * 0x14D049BB133111EB))
  in
  h := !h lxor (!h lsr 30);
  h := !h * 0x3F58476D1CE4E5B9;
  h := !h lxor (!h lsr 27);
  h := !h * 0x14D049BB133111EB;
  h := !h lxor (!h lsr 31);
  let v = !h land max_int mod (n - 1) in
  if v >= u then v + 1 else v

let create ?(shards = 16) ?(loss_rate = 0.) ?init_degree ?(init = Ring)
    ?scenario ?churn ?resilience ?(probe_every = 8) ~seed ~n ~config () =
  if n < 3 then invalid_arg "Runner.Sharded.create: need at least 3 nodes";
  if shards < 1 then invalid_arg "Runner.Sharded.create: need at least 1 shard";
  if loss_rate < 0. || loss_rate >= 1. then
    invalid_arg "Runner.Sharded.create: loss rate outside [0, 1)";
  if probe_every < 1 then
    invalid_arg "Runner.Sharded.create: probe_every must be >= 1";
  (match scenario with
  | None -> ()
  | Some sc ->
    List.iter
      (fun w ->
        match w.Sf_faults.Scenario.fault with
        | Sf_faults.Scenario.Delay _ | Sf_faults.Scenario.Corrupt _ ->
          invalid_arg
            (Fmt.str
               "Runner.Sharded.create: %s windows are not supported on the \
                sharded engine (no latency model, no wire bytes)"
               (Sf_faults.Scenario.fault_kind w.Sf_faults.Scenario.fault))
        | Sf_faults.Scenario.Partition _ | Sf_faults.Scenario.Crash _ -> ())
      sc.Sf_faults.Scenario.windows);
  (match churn with
  | None -> ()
  | Some c ->
    if c.churn_rate < 0. || c.churn_rate >= 1. then
      invalid_arg "Runner.Sharded.create: churn rate outside [0, 1)";
    if c.headroom < 0 then
      invalid_arg "Runner.Sharded.create: negative churn headroom");
  let view_size = config.Protocol.view_size in
  let d0 =
    match init_degree with
    | Some d ->
      if d < 2 || d > view_size || d >= n || d land 1 = 1 then
        invalid_arg
          "Runner.Sharded.create: init_degree must be even, >= 2, <= view \
           size and < n";
      d
    | None ->
      (* Between dL and s, like the orchestrated runner's default start. *)
      let d = (view_size + config.Protocol.lower_threshold) / 2 in
      let d = min d (n - 1) in
      let d = if d land 1 = 1 then d - 1 else d in
      max 2 d
  in
  let chunk = (n + shards - 1) / shards in
  (* Headroom slots live at n + c*S + i (owned by shard i): strided like
     serial minting, so every shard can mint fresh node slots without
     coordination. *)
  let per_shard_extra =
    match churn with
    | None -> 0
    | Some c -> (c.headroom + shards - 1) / shards
  in
  let capacity = n + (per_shard_extra * shards) in
  let root = Sf_prng.Rng.create seed in
  let store = Flat.create ~nodes:capacity ~view_size in
  (* Streams are split from the root in shard order — explicitly, because
     the split advances the root and the order is part of the seed
     contract.  The resilience stream, when present, splits after all
     shard streams, so enabling resilience never perturbs them. *)
  let shard_list = ref [] in
  for index = 0 to shards - 1 do
    let lo = min n (index * chunk) and hi = min n ((index + 1) * chunk) in
    let owned =
      Array.init
        (hi - lo + per_shard_extra)
        (fun k -> if k < hi - lo then lo + k else n + ((k - (hi - lo)) * shards) + index)
    in
    let free = Array.make (max 1 (Array.length owned)) 0 in
    for c = 0 to per_shard_extra - 1 do
      free.(c) <- n + (c * shards) + index
    done;
    let sh =
      {
        index;
        lo;
        hi;
        owned;
        rng = Sf_prng.Rng.split root;
        out = Array.init shards (fun _ -> arena_create ());
        loss =
          (match scenario with
          | None -> None
          | Some sc -> Some (Sf_faults.Loss.create sc.Sf_faults.Scenario.loss));
        cfg_dl = config.Protocol.lower_threshold;
        cfg_s = view_size;
        live = hi - lo;
        free;
        free_head = 0;
        free_len = per_shard_extra;
        serials = { View.next = index; stride = shards };
        counts = Array.make counters 0;
        packet = Flat.packet ();
      }
    in
    shard_list := sh :: !shard_list
  done;
  let shards_arr = Array.of_list (List.rev !shard_list) in
  (* Uniform even outdegree d0 — the section 4 requirement — installed
     shard by shard so initial serials are shard-strided like every
     later mint.  Ring: u points at u+1 .. u+d0 mod n (the historical
     deterministic start; weakly connected, but a 1-D cycle, so views
     mix only at random-walk speed).  Scatter: u points at d0
     hash-scattered non-self ids — an expander-like start whose views
     mix in O(log n) rounds, which rumor-spreading workloads need. *)
  Array.iter
    (fun sh ->
      for u = sh.lo to sh.hi - 1 do
        for k = 0 to d0 - 1 do
          let id =
            match init with
            | Ring -> (u + k + 1) mod n
            | Scatter -> scatter_target ~seed ~n u k
          in
          Flat.set store u k ~id ~serial:(View.mint sh.serials) ~anchor:(-1)
            ~born:0
        done
      done)
    shards_arr;
  let alive = Array.make capacity 0 in
  Array.fill alive 0 n 1;
  let resil =
    Option.map
      (fun policy ->
        let r_rng = Sf_prng.Rng.split root in
        {
          r_policy = policy;
          r_rng;
          (* The edge baseline includes the start just installed, or the
             first window would see a spurious +n*d0 drift. *)
          r_feed =
            Sf_resil.Feed.create ~edges:(Flat.total_edges store) policy
              ~initial:(config.Protocol.lower_threshold, view_size)
              ~capacity:view_size;
          r_supervisor = Sf_resil.Policy.supervisor policy ~rng:r_rng;
          r_probe_every = probe_every;
          r_pending = false;
        })
      resilience
  in
  {
    config;
    n;
    capacity;
    shard_count = shards;
    chunk;
    loss_rate;
    scenario;
    churn_spec = churn;
    store;
    alive;
    shards = shards_arr;
    rounds = 0;
    active_crashes = [];
    active_parts = [];
    window_active =
      (match scenario with
      | None -> [||]
      | Some sc -> Array.make (List.length sc.Sf_faults.Scenario.windows) false);
    fault_transitions = 0;
    resil;
  }

let shard_of t id = if id < t.n then id / t.chunk else (id - t.n) mod t.shard_count

(* --- Barrier-time window state (coordinator only) --- *)

(* Recompute the active crash ranges and partition splits for the round
   about to run.  Activity is a pure function of the round clock, so the
   phases can consult it from any shard without synchronization. *)
let refresh_windows t =
  match t.scenario with
  | None -> ()
  | Some sc ->
    let now = float_of_int t.rounds in
    let crashes = ref [] and parts = ref [] in
    List.iteri
      (fun k w ->
        let active =
          w.Sf_faults.Scenario.start <= now && now < w.Sf_faults.Scenario.stop
        in
        if active <> t.window_active.(k) then begin
          t.window_active.(k) <- active;
          t.fault_transitions <- t.fault_transitions + 1
        end;
        if active then
          match w.Sf_faults.Scenario.fault with
          | Sf_faults.Scenario.Crash { first; last } ->
            crashes := (first, last) :: !crashes
          | Sf_faults.Scenario.Partition { parts = p } -> parts := p :: !parts
          | Sf_faults.Scenario.Delay _ | Sf_faults.Scenario.Corrupt _ -> ())
      sc.Sf_faults.Scenario.windows;
    t.active_crashes <- List.rev !crashes;
    t.active_parts <- List.rev !parts

(* Both window queries run per send; they recurse at top level rather
   than through [List.exists], whose predicate closure would allocate. *)
let rec in_ranges id = function
  | [] -> false
  | (first, last) :: rest -> (id >= first && id <= last) || in_ranges id rest

let is_crashed t id = in_ranges id t.active_crashes

let rec split_by t ~src ~dst = function
  | [] -> false
  | parts :: rest ->
    Sf_faults.Scenario.block ~n:t.n ~parts src
    <> Sf_faults.Scenario.block ~n:t.n ~parts dst
    || split_by t ~src ~dst rest

let partitioned t ~src ~dst = split_by t ~src ~dst t.active_parts

(* --- Per-shard free list of node slots (ring buffer) --- *)

let free_push sh slot =
  sh.free.((sh.free_head + sh.free_len) mod Array.length sh.free) <- slot;
  sh.free_len <- sh.free_len + 1

let free_pop sh =
  let slot = sh.free.(sh.free_head) in
  sh.free_head <- (sh.free_head + 1) mod Array.length sh.free;
  sh.free_len <- sh.free_len - 1;
  slot

(* --- Churn phase (before phase I; every shard touches only its own
   slots and its own stream) --- *)

let clear_view t u =
  let d = Flat.degree t.store u in
  if d > 0 then
    for slot = 0 to t.config.Protocol.view_size - 1 do
      Flat.clear t.store u slot
    done;
  d

(* Install an even bootstrap into node [v]'s (empty) view, copied from
   [donor]'s: the donor's own id first, then the donor's entries in slot
   order up to max 2 dL, padded with the donor id to an even count, all as
   anchored copies with fresh serials from [v]'s owning shard [sh].  Refs
   to [v] itself are skipped (a node must not be born pointing at
   itself), and with [live_only] so are ids of dead slots.  Returns the
   number of installed entries. *)
let bootstrap t sh rng ~v ~donor ~live_only =
  let store = t.store in
  let view_size = t.config.Protocol.view_size in
  let born = t.rounds in
  let target = max 2 sh.cfg_dl in
  let installed = ref 0 in
  let install id =
    let sl = Flat.random_empty_slot store v rng in
    Flat.set store v sl ~id ~serial:(View.mint sh.serials) ~anchor:donor ~born;
    incr installed
  in
  install donor;
  let k = ref 0 in
  while !installed < target && !k < view_size do
    let id = Flat.id_at store donor !k in
    if id >= 0 && id <> v && ((not live_only) || t.alive.(id) = 1) then install id;
    incr k
  done;
  if !installed land 1 = 1 then install donor;
  !installed

let churn_shard t spec sh =
  let rate = spec.churn_rate in
  let leavers = ref 0 in
  Array.iter
    (fun u ->
      if t.alive.(u) = 1 && Sf_prng.Rng.bernoulli sh.rng rate then begin
        add sh Edges_removed (clear_view t u);
        t.alive.(u) <- 0;
        sh.live <- sh.live - 1;
        free_push sh u;
        bump sh Leaves;
        incr leavers
      end)
    sh.owned;
  (* One join per leave: the population is stationary with [rate]
     turnover.  Slots are popped oldest-first, delaying id reuse by the
     full depth of the free list. *)
  let owned_n = Array.length sh.owned in
  for _ = 1 to !leavers do
    if sh.live = 0 then bump sh Join_skips
    else begin
      let slot = free_pop sh in
      let donor = ref sh.owned.(Sf_prng.Rng.int sh.rng owned_n) in
      while t.alive.(!donor) = 0 do
        donor := sh.owned.(Sf_prng.Rng.int sh.rng owned_n)
      done;
      (* No liveness filter on the copied ids: the donor's entries may
         point at other shards' nodes, whose alive bits are concurrently
         churning; stale ids simply decay like any dead reference. *)
      add sh Edges_added
        (bootstrap t sh sh.rng ~v:slot ~donor:!donor ~live_only:false);
      t.alive.(slot) <- 1;
      sh.live <- sh.live + 1;
      bump sh Joins
    end
  done

(* A send the verdict dropped: a non-duplicated pair leaves the overlay. *)
let dropped sh c ~dup =
  bump sh c;
  if not dup then bump sh Dropped_nondup

(* Phase I: every owned live, un-crashed node initiates once, in id
   order. *)
let initiate_shard t sh =
  (* The previous round's outbox row has been fully drained (the barrier
     guarantees it); reclaim it before writing this round's messages. *)
  Array.iter arena_clear sh.out;
  let store = t.store in
  let born = t.rounds in
  let p = sh.packet in
  Array.iter
    (fun u ->
      (* Dead slots hold no node; crashed nodes freeze (no initiations —
         the source half of Injector.judge's crash verdict). *)
      if t.alive.(u) = 1 && not (is_crashed t u) then begin
        bump sh Actions;
        if
          not
            (Flat.initiate store u ~self:u sh.rng ~dl:sh.cfg_dl
               ~serials:sh.serials ~born p)
        then bump sh Self_loops
        else begin
          let target = p.dst and dup = p.dup in
          bump sh Sends;
          if dup then bump sh Duplications;
          (* Verdict order mirrors Sf_faults.Injector.judge: crash drop
             (no randomness), partition drop (no randomness), then the
             chance-loss draw from this shard's stream. *)
          if is_crashed t target then dropped sh Crash_drops ~dup
          else if partitioned t ~src:u ~dst:target then
            dropped sh Partition_drops ~dup
          else begin
            let lost =
              match sh.loss with
              | None ->
                t.loss_rate > 0. && Sf_prng.Rng.bernoulli sh.rng t.loss_rate
              | Some l ->
                Sf_faults.Loss.drop l sh.rng ~chance:t.loss_rate ~src:u
                  ~dst:target
            in
            if lost then begin
              (match sh.loss with
              | Some l when Sf_faults.Loss.in_burst l -> bump sh Burst_drops
              | Some _ | None -> ());
              dropped sh Lost ~dup
            end
            else
              arena_push
                sh.out.(shard_of t target)
                ~dst:target ~src:u
                ~dup:(if dup then 1 else 0)
                ~m_id:p.m_id ~m_serial:p.m_serial ~m_born:p.m_born
                ~r_serial:p.r_serial
          end
        end
      end)
    sh.owned

(* Phase II: drain the arena rows addressed to this shard — source
   shards in index order, messages in generation order — applying the
   receive rule under the shard's live s to owned nodes. *)
let deliver_shard t sh =
  let store = t.store in
  let p = sh.packet in
  for src_shard = 0 to t.shard_count - 1 do
    let a = t.shards.(src_shard).out.(sh.index) in
    let b = a.buf in
    let i = ref 0 in
    while !i < a.len do
      let dst = b.(!i) in
      let dup = b.(!i + 2) = 1 in
      if t.alive.(dst) = 0 then
        (* The destination left (or its slot was never live): the sender
           cannot know — the message is simply lost on the floor. *)
        dropped sh To_dead ~dup
      else begin
        bump sh Receipts;
        let src = b.(!i + 1) in
        let anchor = if dup then src else -1 in
        p.src <- src;
        p.r_serial <- b.(!i + 6);
        p.r_anchor <- anchor;
        p.r_born <- t.rounds;
        p.m_id <- b.(!i + 3);
        p.m_serial <- b.(!i + 4);
        p.m_anchor <- anchor;
        p.m_born <- b.(!i + 5);
        if Flat.receive store dst sh.rng ~s:sh.cfg_s p then begin
          if dup then bump sh Accepted_dup
        end
        else dropped sh Deletions ~dup
      end;
      i := !i + fields
    done
  done

let config t = t.config
let node_count t = t.n
let capacity t = t.capacity
let shard_count t = t.shard_count
let scenario t = t.scenario
let loss_rate t = t.loss_rate
let rounds_completed t = t.rounds
let store t = t.store
let total_edges t = Flat.total_edges t.store
let is_live t id = id >= 0 && id < t.capacity && t.alive.(id) = 1
let live_count t = Array.fold_left (fun acc sh -> acc + sh.live) 0 t.shards

let minted t =
  Array.map (fun sh -> (sh.serials.View.next - sh.index) / t.shard_count) t.shards

let conservation t = (total t Accepted_dup, total t Dropped_nondup)

let ledger t =
  {
    accepted_duplications = total t Accepted_dup;
    dropped_non_duplicated = total t Dropped_nondup;
    churn_edges_added = total t Edges_added;
    churn_edges_removed = total t Edges_removed;
  }

let churn_statistics t =
  {
    joins = total t Joins;
    leaves = total t Leaves;
    join_skips = total t Join_skips;
    deliveries_to_dead = total t To_dead;
  }

let fault_statistics t =
  Option.map
    (fun _ ->
      {
        Sf_faults.Injector.judged = total t Sends;
        chance_drops = total t Lost;
        burst_drops = total t Burst_drops;
        partition_drops = total t Partition_drops;
        crash_drops = total t Crash_drops;
        corruptions = 0;
        fault_transitions = t.fault_transitions;
      })
    t.scenario

let world_counters t =
  {
    actions = total t Actions;
    self_loops = total t Self_loops;
    sends = total t Sends;
    duplications = total t Duplications;
    receipts = total t Receipts;
    deletions = total t Deletions;
    messages_lost = total t Lost;
  }

(* --- Barrier-time resilience (coordinator only) --- *)

(* Rebootstrap node [v] from [donor] at a barrier: clear the stale view
   and install a bootstrap, charging both sides of the churn edge ledger
   to [v]'s owning shard.  Copied ids are liveness-filtered — the alive
   array is quiescent between barriers. *)
let rebootstrap t r ~v ~donor =
  let sh = t.shards.(shard_of t v) in
  add sh Edges_removed (clear_view t v);
  add sh Edges_added (bootstrap t sh r.r_rng ~v ~donor ~live_only:true)

(* A random live node satisfying [accept]: bounded rejection sampling,
   then a deterministic wrap-around scan from the last draw so a thin
   target set cannot stall the barrier. *)
let draw_live t r ~accept =
  let attempt = ref 0 and found = ref (-1) and last = ref 0 in
  while !found < 0 && !attempt < 64 do
    let u = Sf_prng.Rng.int r.r_rng t.capacity in
    last := u;
    if t.alive.(u) = 1 && accept u then found := u;
    incr attempt
  done;
  if !found >= 0 then !found
  else begin
    let u = ref !last and steps = ref 0 in
    while !found < 0 && !steps < t.capacity do
      if t.alive.(!u) = 1 && accept !u then found := !u
      else begin
        u := (!u + 1) mod t.capacity;
        incr steps
      end
    done;
    !found
  end

(* Overlay health probe: in-degree isolation (a live node nobody points
   at and that points at nobody) and weak connectivity (union-find over
   the live subgraph, self-edges and dead refs ignored). *)
let probe_and_repair t r =
  let store = t.store in
  let view_size = t.config.Protocol.view_size in
  let cap = t.capacity in
  let parent = Array.init cap (fun i -> i) in
  let comp_size = Array.make cap 1 in
  let find i =
    let root = ref i in
    while parent.(!root) <> !root do
      root := parent.(!root)
    done;
    let c = ref i in
    while parent.(!c) <> !root do
      let next = parent.(!c) in
      parent.(!c) <- !root;
      c := next
    done;
    !root
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then
      if comp_size.(ra) >= comp_size.(rb) then begin
        parent.(rb) <- ra;
        comp_size.(ra) <- comp_size.(ra) + comp_size.(rb)
      end
      else begin
        parent.(ra) <- rb;
        comp_size.(rb) <- comp_size.(rb) + comp_size.(ra)
      end
  in
  let indeg = Array.make cap 0 in
  for u = 0 to cap - 1 do
    if t.alive.(u) = 1 then
      for k = 0 to view_size - 1 do
        let id = Flat.id_at store u k in
        if id >= 0 && id <> u && id < cap && t.alive.(id) = 1 then begin
          indeg.(id) <- indeg.(id) + 1;
          union u id
        end
      done
  done;
  (* Largest live component (smallest root breaks ties — determinism). *)
  let largest_root = ref (-1) and largest = ref 0 in
  for u = 0 to cap - 1 do
    if t.alive.(u) = 1 && find u = u && comp_size.(u) > !largest then begin
      largest := comp_size.(u);
      largest_root := u
    end
  done;
  let isolated = ref [] and minority_roots = ref [] in
  for u = cap - 1 downto 0 do
    if t.alive.(u) = 1 then begin
      if Flat.degree store u = 0 && indeg.(u) = 0 then
        isolated := u :: !isolated
      else if find u = u && u <> !largest_root then
        minority_roots := u :: !minority_roots
    end
  done;
  let healthy = !isolated = [] && !minority_roots = [] in
  if not healthy then begin
    (* Cap the repair batch: a catastrophically sick world heals over
       several supervised attempts rather than one unbounded barrier. *)
    let budget = ref 128 in
    List.iter
      (fun v ->
        if !budget > 0 then begin
          let donor =
            draw_live t r ~accept:(fun u ->
                u <> v && Flat.degree store u >= 2)
          in
          if donor >= 0 then begin
            rebootstrap t r ~v ~donor;
            decr budget
          end
        end)
      !isolated;
    List.iter
      (fun v ->
        if !budget > 0 then begin
          let lr = !largest_root in
          let donor =
            draw_live t r ~accept:(fun u ->
                u <> v && find u = lr && Flat.degree store u >= 2)
          in
          if donor >= 0 then begin
            rebootstrap t r ~v ~donor;
            decr budget
          end
        end)
      !minority_roots
  end;
  healthy

let resil_tick t =
  match t.resil with
  | None -> ()
  | Some r ->
    (* Churn-aware Lemma 6.6 inversion: the ledger's out-of-band edge
       flux (bootstraps, leaves, rebootstraps), the sends swallowed by
       departed slots and the overlay's edge-count drift are exactly the
       terms that biased the bare estimate under churn and fault
       transients. *)
    (match
       Sf_resil.Feed.tick r.r_feed ~to_dead:(total t To_dead)
         ~churn_edges_added:(total t Edges_added)
         ~churn_edges_removed:(total t Edges_removed)
         ~edges:(Flat.total_edges t.store) ~sends:(total t Sends)
         ~duplications:(total t Duplications) ~deletions:(total t Deletions) ()
     with
    | None -> ()
    | Some (dl, s) ->
      (* Applied to every shard at the barrier: phases only read. *)
      Array.iter
        (fun sh ->
          sh.cfg_dl <- dl;
          sh.cfg_s <- s)
        t.shards);
    if r.r_policy.Sf_resil.Policy.recover && t.rounds mod r.r_probe_every = 0
    then begin
      let now = float_of_int t.rounds in
      if Sf_resil.Supervisor.due r.r_supervisor ~now then begin
        if probe_and_repair t r then begin
          if r.r_pending then begin
            Sf_resil.Supervisor.record_success r.r_supervisor;
            r.r_pending <- false
          end
          else Sf_resil.Supervisor.record_healthy r.r_supervisor
        end
        else begin
          ignore (Sf_resil.Supervisor.record_attempt r.r_supervisor ~now);
          r.r_pending <- true
        end
      end
    end

let resilience_statistics t =
  match t.resil with
  | None -> None
  | Some r ->
    let estimator = Sf_resil.Feed.estimator r.r_feed in
    Some
      {
        loss_estimate = Sf_resil.Estimator.estimate estimator;
        estimator_confident = Sf_resil.Estimator.confident estimator;
        estimator_windows = Sf_resil.Estimator.windows estimator;
        retunes = Sf_resil.Controller.retunes (Sf_resil.Feed.controller r.r_feed);
        repair_attempts = Sf_resil.Supervisor.attempts r.r_supervisor;
        recoveries = Sf_resil.Supervisor.recoveries r.r_supervisor;
      }

let live_thresholds t =
  let sh = t.shards.(0) in
  (sh.cfg_dl, sh.cfg_s)

let run_round t ~domains =
  refresh_windows t;
  (match t.churn_spec with
  | Some spec when spec.churn_rate > 0. ->
    Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
        churn_shard t spec t.shards.(i))
  | Some _ | None -> ());
  Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
      initiate_shard t t.shards.(i));
  Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
      deliver_shard t t.shards.(i));
  t.rounds <- t.rounds + 1;
  resil_tick t

let run_rounds t ?(domains = 1) rounds =
  for _ = 1 to rounds do
    run_round t ~domains
  done

(* Bit-for-bit world equality: the domain-count determinism oracle.
   Covers the full store (ids, serials, anchors, born stamps, cached
   degrees), the round clock, the alive map, the window state, and every
   per-shard counter, threshold, free-list position, loss-chain state
   and mint position. *)
let equal a b =
  let free_equal x y =
    x.free_len = y.free_len
    &&
    let same = ref true in
    for k = 0 to x.free_len - 1 do
      if
        x.free.((x.free_head + k) mod Array.length x.free)
        <> y.free.((y.free_head + k) mod Array.length y.free)
      then same := false
    done;
    !same
  in
  a.n = b.n && a.capacity = b.capacity
  && a.shard_count = b.shard_count
  && a.rounds = b.rounds
  && a.fault_transitions = b.fault_transitions
  && a.window_active = b.window_active
  && a.alive = b.alive
  && Flat.equal a.store b.store
  && Array.for_all2
       (fun (x : shard) (y : shard) ->
         x.serials.View.next = y.serials.View.next
         && x.counts = y.counts
         && x.cfg_dl = y.cfg_dl && x.cfg_s = y.cfg_s
         && x.live = y.live && free_equal x y
         && (match (x.loss, y.loss) with
            | None, None -> true
            | Some lx, Some ly ->
              Sf_faults.Loss.in_burst lx = Sf_faults.Loss.in_burst ly
            | None, Some _ | Some _, None -> false))
       a.shards b.shards
