(* Orchestration of an S&F system.

   Two execution modes mirror the paper's two levels of realism:

   - *Sequential actions* (the analysis model, section 5): a central loop
     repeatedly picks a uniformly random live node, runs its initiate step,
     and — if the message survives loss — runs the receive step
     synchronously.  All reproduction experiments use this mode.
   - *Timed execution* (the practical implementation the paper sketches):
     every node initiates on its own periodic or Poisson clock and messages
     travel through the discrete-event network with latency.  The
     [ablation_scheduler] bench shows both modes agree on degree behaviour.

   The runner also provides churn (joins and leaves), snapshots of the
   global membership graph, and the world-level counters used to verify
   Lemmas 6.6/6.7 (duplication = loss + deletion). *)

type scheduling = Poisson of float | Periodic of float

(* --- Audit events ---

   Every action (and, in timed mode, every delivery) is reported to an
   optional audit callback with enough context to re-check the paper's
   invariants from outside: the initiator's outdegree before and after, the
   duplication decision, and the fate of the message.  [Sf_check.Invariant]
   is the standard consumer; the runner itself never interprets events. *)

type delivery =
  | Accepted   (* placed in the receiver's view *)
  | Deleted    (* receiver full: both ids dropped *)
  | Lost       (* eaten by the network *)
  | To_dead    (* destination has no live handler *)
  | In_flight  (* timed mode: outcome not yet known *)

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

(* --- Resilience state (lib/resilience) ---

   Installed by passing [?resilience] to [create]; absent, every code
   path below matches [None] once and the runner is bit-for-bit the
   pre-resilience runner.  The estimator feeds on world-counter deltas
   once per round, the controller retunes per-node (dL, s) against the
   estimated loss, and the supervisor drives section 5 repairs under
   backoff — see [resil_tick] at the bottom of this file. *)
type resil = {
  policy : Sf_resil.Policy.t;
  feed : Sf_resil.Feed.t;
  supervisor : Sf_resil.Supervisor.t;
  (* Per-node retuned configs; nodes absent here run the base config. *)
  node_configs : (int, Protocol.config) Hashtbl.t;
  mutable ticks : int;              (* resilience decision ticks (rounds) *)
  g_estimate : Sf_obs.Metrics.gauge;
  g_true : Sf_obs.Metrics.gauge;
  c_retunes : Sf_obs.Metrics.counter;
  c_repair_attempts : Sf_obs.Metrics.counter;
  c_recoveries : Sf_obs.Metrics.counter;
  h_backoff : Sf_obs.Metrics.histogram;
}

type t = {
  config : Protocol.config;
  resilience : resil option;
  scheduler_rng : Sf_prng.Rng.t;  (* picks initiators and timing *)
  protocol_rng : Sf_prng.Rng.t;   (* slot selections inside nodes *)
  sim : Sf_engine.Sim.t;
  network : Protocol.message Sf_engine.Network.t;
  (* Fault scenario engine (lib/faults); [None] means fault-free.  The
     injector's round clock is actions / initial population in sequential
     mode and virtual time in timed mode. *)
  injector : Sf_faults.Injector.t option;
  initial_population : int;
  nodes : (int, Protocol.node) Hashtbl.t;
  (* Live array, kept sorted by node id *incrementally*: joins and leaves
     splice by binary search (one O(n) blit), never a rebuild-and-sort.
     The former [live_dirty] scheme re-materialized the whole array from
     the hash table and re-sorted it after every join/leave — O(n log n)
     per churn event, and hot at scale.  [live_buf] carries slack
     capacity; [live_snapshot] is the exact-length view handed to
     callers, re-blitted lazily after a change. *)
  mutable live_buf : Protocol.node array;
  mutable live_len : int;
  mutable live_snapshot : Protocol.node array;
  mutable live_snapshot_stale : bool;
  serials : View.minter;
  mutable actions : int;           (* initiate steps executed *)
  mutable next_node_id : int;
  mutable timed : scheduling option;
  (* Observability: registry counters replace the former ad-hoc world
     counters (they survive node removal just the same — one O(1)
     increment per update); the gauge tracks the live population. *)
  obs : Sf_obs.Obs.t;
  total_self_loops : Sf_obs.Metrics.counter;
  total_sends : Sf_obs.Metrics.counter;
  total_duplications : Sf_obs.Metrics.counter;
  total_receipts : Sf_obs.Metrics.counter;
  total_deletions : Sf_obs.Metrics.counter;
  total_reconnections : Sf_obs.Metrics.counter;
  total_rebootstraps : Sf_obs.Metrics.counter;
  live_gauge : Sf_obs.Metrics.gauge;
  (* Audit plumbing. *)
  mutable audit : (t -> audit_event -> unit) option;
  mutable last_receive : Protocol.receive_result option;
  mutable suppress_receipt : bool;  (* true inside a synchronous send *)
}

let set_audit t audit = t.audit <- audit

let emit t event = match t.audit with Some f -> f t event | None -> ()

let obs t = t.obs

(* The config a node currently runs: the base config until the adaptive
   controller has retuned the node.  Without resilience this is one match
   on [None] — no table, no cost. *)
let node_config t id =
  match t.resilience with
  | None -> t.config
  | Some r -> (
    match Hashtbl.find_opt r.node_configs id with
    | Some config -> config
    | None -> t.config)

(* The injected trace clock: the sequential round clock (actions per
   initial node) before [start_timed], virtual time after — matching the
   fault injector's clock, and never an ambient wall clock. *)
let obs_now t =
  match t.timed with
  | Some _ -> Sf_engine.Sim.now t.sim
  | None -> float_of_int t.actions /. float_of_int (max 1 t.initial_population)

let trace t event =
  if Sf_obs.Obs.tracing t.obs then Sf_obs.Obs.trace t.obs ~now:(obs_now t) event

(* Surface fault-window boundary crossings as structural audit events, so
   the invariant auditor resyncs its edge-conservation baseline exactly when
   the fault regime changes. *)
let poll_faults t =
  match t.injector with
  | None -> ()
  | Some injector ->
    Sf_faults.Injector.refresh injector;
    List.iter
      (fun reason ->
        trace t (Sf_obs.Trace.Fault { transition = reason });
        emit t (Structural reason))
      (Sf_faults.Injector.transitions injector)

let is_crashed t id =
  match t.injector with
  | None -> false
  | Some injector -> Sf_faults.Injector.is_crashed injector id

let fault_statistics t = Option.map Sf_faults.Injector.statistics t.injector

let handler t node message =
  Sf_obs.Metrics.incr t.total_receipts;
  let result =
    Protocol.receive (node_config t node.Protocol.node_id) t.protocol_rng node
      message
  in
  t.last_receive <- Some result;
  (match result with
  | Protocol.Accepted -> ()
  | Protocol.Deleted ->
    Sf_obs.Metrics.incr t.total_deletions;
    trace t (Sf_obs.Trace.Delete { node = node.Protocol.node_id }));
  (* Synchronous deliveries are reported inside the enclosing action
     event; only asynchronous (timed-mode) deliveries stand alone. *)
  if not t.suppress_receipt then
    emit t
      (Receipt
         {
           receiver = node.Protocol.node_id;
           accepted = (result = Protocol.Accepted);
         })

(* Binary search over the sorted prefix [0, live_len): the index of [id],
   or the insertion point that keeps the array sorted. *)
let live_position t id =
  let lo = ref 0 and hi = ref t.live_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.live_buf.(mid).Protocol.node_id < id then lo := mid + 1 else hi := mid
  done;
  !lo

let live_insert t node =
  let id = node.Protocol.node_id in
  let pos = live_position t id in
  if pos < t.live_len && t.live_buf.(pos).Protocol.node_id = id then
    t.live_buf.(pos) <- node
  else begin
    if t.live_len = Array.length t.live_buf then begin
      (* Grow; the tail slack keeps references to whatever node happened
         to be used as filler, which is fine — only [0, live_len) is live. *)
      let grown = Array.make (max 8 (2 * t.live_len)) node in
      Array.blit t.live_buf 0 grown 0 t.live_len;
      t.live_buf <- grown
    end;
    Array.blit t.live_buf pos t.live_buf (pos + 1) (t.live_len - pos);
    t.live_buf.(pos) <- node;
    t.live_len <- t.live_len + 1
  end;
  t.live_snapshot_stale <- true

let live_remove t id =
  let pos = live_position t id in
  if pos < t.live_len && t.live_buf.(pos).Protocol.node_id = id then begin
    Array.blit t.live_buf (pos + 1) t.live_buf pos (t.live_len - pos - 1);
    t.live_len <- t.live_len - 1;
    t.live_snapshot_stale <- true
  end

let install_node t node =
  Hashtbl.replace t.nodes node.Protocol.node_id node;
  Sf_engine.Network.register t.network node.Protocol.node_id (handler t node);
  live_insert t node;
  Sf_obs.Metrics.set t.live_gauge (float_of_int (Hashtbl.length t.nodes))

let create ?(latency = Sf_engine.Network.default_latency) ?destination_loss ?audit
    ?scenario ?obs ?resilience ~seed ~n ~loss_rate ~config ~topology () =
  let root = Sf_prng.Rng.create seed in
  let scheduler_rng = Sf_prng.Rng.split root in
  let protocol_rng = Sf_prng.Rng.split root in
  let network_rng = Sf_prng.Rng.split root in
  (* Split last, and only when the layer is enabled: the three streams
     above are byte-identical with and without resilience, which is what
     keeps the observe-only identity test honest. *)
  let resil_rng = Option.map (fun _ -> Sf_prng.Rng.split root) resilience in
  let sim = Sf_engine.Sim.create () in
  let obs = match obs with Some o -> o | None -> Sf_obs.Obs.create () in
  let metrics = Sf_obs.Obs.metrics obs in
  let injector =
    Option.map
      (fun sc -> Sf_faults.Injector.create ~metrics ~scenario:sc ~n ())
      scenario
  in
  let network =
    Sf_engine.Network.create ~latency ?destination_loss ?injector ~obs ~sim
      ~resilience:(Option.is_some resilience) ~rng:network_rng ~loss_rate ()
  in
  let resilience =
    match (resilience, resil_rng) with
    | Some policy, Some rng ->
      Some
        {
          policy;
          feed =
            Sf_resil.Feed.create policy
              ~initial:(config.Protocol.lower_threshold, config.Protocol.view_size)
              ~capacity:config.Protocol.view_size;
          supervisor = Sf_resil.Policy.supervisor policy ~rng;
          node_configs = Hashtbl.create (2 * n);
          ticks = 0;
          (* Registered eagerly so exports show the resilience series from
             round zero, not from the first decision. *)
          g_estimate = Sf_obs.Metrics.gauge metrics "resil_loss_estimate";
          g_true = Sf_obs.Metrics.gauge metrics "resil_loss_true";
          c_retunes = Sf_obs.Metrics.counter metrics "resil_retunes_total";
          c_repair_attempts =
            Sf_obs.Metrics.counter metrics "resil_repair_attempts_total";
          c_recoveries = Sf_obs.Metrics.counter metrics "resil_recoveries_total";
          h_backoff = Sf_obs.Metrics.histogram metrics "resil_backoff_rounds";
        }
    | _ -> None
  in
  let t =
    {
      config;
      resilience;
      scheduler_rng;
      protocol_rng;
      sim;
      network;
      injector;
      initial_population = n;
      nodes = Hashtbl.create (2 * n);
      live_buf = [||];
      live_len = 0;
      live_snapshot = [||];
      live_snapshot_stale = false;
      serials = { View.next = 0; stride = 1 };
      actions = 0;
      next_node_id = n;
      timed = None;
      obs;
      total_self_loops = Sf_obs.Metrics.counter metrics "runner_self_loops";
      total_sends = Sf_obs.Metrics.counter metrics "runner_sends";
      total_duplications = Sf_obs.Metrics.counter metrics "runner_duplications";
      total_receipts = Sf_obs.Metrics.counter metrics "runner_receipts";
      total_deletions = Sf_obs.Metrics.counter metrics "runner_deletions";
      total_reconnections = Sf_obs.Metrics.counter metrics "runner_reconnections";
      total_rebootstraps = Sf_obs.Metrics.counter metrics "runner_rebootstraps";
      live_gauge = Sf_obs.Metrics.gauge metrics "runner_live_nodes";
      audit;
      last_receive = None;
      suppress_receipt = false;
    }
  in
  for u = 0 to n - 1 do
    let node = Protocol.create_node ~config ~node_id:u in
    List.iter
      (fun v ->
        match View.random_empty_slot node.Protocol.view t.protocol_rng with
        | None -> invalid_arg "Runner.create: topology exceeds view size"
        | Some slot ->
          View.set node.Protocol.view slot
            { View.id = v; serial = View.mint t.serials; anchor = None; born = 0 })
      (topology u);
    install_node t node
  done;
  Option.iter
    (fun inj ->
      Sf_faults.Injector.set_clock inj (fun () ->
          match t.timed with
          | Some _ -> Sf_engine.Sim.now t.sim
          | None ->
            float_of_int t.actions /. float_of_int (max 1 t.initial_population)))
    t.injector;
  (* Network trace records (send/deliver/drop) must carry the same clock
     as the runner's own records, not the virtual clock — which never
     advances in sequential mode. *)
  Sf_engine.Network.set_trace_clock network (fun () -> obs_now t);
  t

let config t = t.config
let action_count t = t.actions
let minted_serials t = t.serials.View.next
let live_count t = Hashtbl.length t.nodes
let network_statistics t = Sf_engine.Network.statistics t.network
let loss_rate t = Sf_engine.Network.loss_rate t.network
let injector t = t.injector
let simulator t = t.sim

(* The array layout is sorted by id, never hash-table iteration order, so
   random node picks are reproducible; incremental maintenance makes it
   identical to the historical rebuild-and-sort (ids are unique). *)
let live_nodes t =
  if t.live_snapshot_stale || Array.length t.live_snapshot <> t.live_len then begin
    t.live_snapshot <- Array.sub t.live_buf 0 t.live_len;
    t.live_snapshot_stale <- false
  end;
  t.live_snapshot

let find_node t id = Hashtbl.find_opt t.nodes id

let random_live_node t =
  let live = live_nodes t in
  if Array.length live = 0 then invalid_arg "Runner.random_live_node: no live nodes";
  Sf_prng.Rng.choose t.scheduler_rng live

(* One initiate step at [node]; the transport depends on the mode.  The
   action counter increments only after the audit event fires, so the
   sequential round clock (actions / n) is constant across the whole action
   — initiate, loss draw, synchronous receive and audit all see the same
   round. *)
let initiate_at t ~synchronous node =
  let degree_before = Protocol.degree node in
  let result =
    Protocol.initiate
      (node_config t node.Protocol.node_id)
      t.protocol_rng ~serials:t.serials ~clock:t.actions node
  in
  let outcome =
    match result with
    | Protocol.Self_loop ->
      Sf_obs.Metrics.incr t.total_self_loops;
      Audit_self_loop
    | Protocol.Send { destination; message; duplicated } ->
      Sf_obs.Metrics.incr t.total_sends;
      if duplicated then begin
        Sf_obs.Metrics.incr t.total_duplications;
        trace t (Sf_obs.Trace.Duplicate { node = node.Protocol.node_id })
      end;
      let delivery =
        if synchronous then begin
          let lost_before =
            (Sf_engine.Network.statistics t.network).Sf_engine.Network.messages_lost
          in
          t.suppress_receipt <- true;
          t.last_receive <- None;
          let delivered =
            Sf_engine.Network.send_immediate t.network
              ~src:node.Protocol.node_id ~duplicated ~dst:destination message
          in
          t.suppress_receipt <- false;
          let lost_after =
            (Sf_engine.Network.statistics t.network).Sf_engine.Network.messages_lost
          in
          if delivered then
            match t.last_receive with
            | Some Protocol.Deleted -> Deleted
            | Some Protocol.Accepted | None -> Accepted
          else if lost_after > lost_before then Lost
          else To_dead
        end
        else begin
          Sf_engine.Network.send t.network ~src:node.Protocol.node_id ~duplicated
            ~dst:destination message;
          In_flight
        end
      in
      Audit_send { destination; duplicated; delivery }
  in
  emit t
    (Action
       {
         initiator = node.Protocol.node_id;
         degree_before;
         degree_after = Protocol.degree node;
         outcome;
       });
  t.actions <- t.actions + 1;
  result

(* --- Sequential-action mode --- *)

(* Crashed nodes do not initiate.  The fault-free path — and any scenario
   without crash windows — keeps the historical single [Rng.choose] per
   step, so the scheduler RNG stream is untouched; only while a crash
   window is actually active does the pick rejection-sample. *)
let step t =
  poll_faults t;
  let crash_gate =
    match t.injector with
    | None -> None
    | Some injector ->
      if
        Sf_faults.Injector.has_crash_windows injector
        && Sf_faults.Injector.crash_active injector
      then Some injector
      else None
  in
  match crash_gate with
  | None -> ignore (initiate_at t ~synchronous:true (random_live_node t))
  | Some injector ->
    let live = live_nodes t in
    let up node =
      not (Sf_faults.Injector.is_crashed injector node.Protocol.node_id)
    in
    if Array.exists up live then begin
      let rec pick () =
        let node = Sf_prng.Rng.choose t.scheduler_rng live in
        if up node then node else pick ()
      in
      ignore (initiate_at t ~synchronous:true (pick ()))
    end
    else
      (* Every live node is frozen: the round clock still has to advance or
         the crash window would never end. *)
      t.actions <- t.actions + 1

let run_actions t k =
  for _ = 1 to k do
    step t
  done

(* [run_rounds] is defined at the bottom of this file: it interleaves
   rounds with the resilience tick, which needs the connectivity probes
   below. *)

(* --- Timed mode --- *)

let schedule_node t scheduling node =
  let delay () =
    match scheduling with
    | Poisson rate -> Sf_prng.Rng.exponential t.scheduler_rng rate
    | Periodic period ->
      (* Jitter the period slightly: loosely synchronized nodes. *)
      period *. (0.95 +. (0.1 *. Sf_prng.Rng.float t.scheduler_rng))
  in
  let rec tick () =
    (* The node may have left since this event was scheduled. *)
    if Hashtbl.mem t.nodes node.Protocol.node_id then begin
      trace t (Sf_obs.Trace.Timer { node = node.Protocol.node_id });
      poll_faults t;
      (* A crashed node skips its initiation but keeps its clock running, so
         it resumes — with its stale view — when the window closes. *)
      if not (is_crashed t node.Protocol.node_id) then
        ignore (initiate_at t ~synchronous:false node);
      Sf_engine.Sim.schedule t.sim ~delay:(delay ()) tick
    end
  in
  Sf_engine.Sim.schedule t.sim ~delay:(delay ()) tick

let start_timed t scheduling =
  if t.timed <> None then invalid_arg "Runner.start_timed: already started";
  t.timed <- Some scheduling;
  Array.iter (schedule_node t scheduling) (live_nodes t)

let run_until t horizon =
  ignore (Sf_engine.Sim.run ~horizon t.sim)

(* --- Churn --- *)

let add_node t ~bootstrap =
  let id = t.next_node_id in
  t.next_node_id <- id + 1;
  let node = Protocol.create_node ~config:t.config ~node_id:id in
  List.iter
    (fun v ->
      match View.random_empty_slot node.Protocol.view t.protocol_rng with
      | None -> invalid_arg "Runner.add_node: bootstrap exceeds view size"
      | Some slot ->
        View.set node.Protocol.view slot
          { View.id = v; serial = View.mint t.serials; anchor = None; born = t.actions })
    bootstrap;
  install_node t node;
  (match t.timed with Some s -> schedule_node t s node | None -> ());
  trace t (Sf_obs.Trace.Mark { label = "add_node" });
  emit t (Structural "add_node");
  id

let remove_node t id =
  match Hashtbl.find_opt t.nodes id with
  | None -> None
  | Some node ->
    Hashtbl.remove t.nodes id;
    Sf_engine.Network.unregister t.network id;
    live_remove t id;
    Sf_obs.Metrics.set t.live_gauge (float_of_int (Hashtbl.length t.nodes));
    trace t (Sf_obs.Trace.Mark { label = "remove_node" });
    emit t (Structural "remove_node");
    Some node

(* Bootstrap ids for a joiner: a copy of (a prefix of) a random live node's
   view — the joining rule the paper suggests in section 5.  The paper
   requires the joiner to know ids of *live* nodes, so entries pointing at
   departed nodes are filtered out (a joiner that only knows dead ids would
   start disconnected); the donor's own id fills any shortfall. *)
let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let bootstrap_from t ~count =
  let donor = random_live_node t in
  let live ids = List.filter (fun id -> Hashtbl.mem t.nodes id) ids in
  let ids = take count (live (View.ids donor.Protocol.view)) in
  let shortfall = count - List.length ids in
  if shortfall <= 0 then ids
  else ids @ List.init shortfall (fun _ -> donor.Protocol.node_id)

(* --- Reconnection (paper, section 5 joining rule) ---

   A node whose neighbors have all departed can no longer exchange ids: its
   sends go to dead destinations and nobody holds its id.  The paper's
   remedy is the joining rule: reconnect "by probing previously seen ids".
   [reconnect] probes the node's seen-cache (then its current view ids) in
   order; each probe costs a request and a response message, both subject
   to loss.  The first live, responsive target donates a copy of up to dL
   ids from its view, which replace the stale view.  Donated entries are
   copies the donor keeps, so they are anchored at the donor — the same
   dependence accounting as duplication. *)

(* Replace [node]'s view with anchored copies of [donor]'s id and of the
   first dL ids of [donor]'s view that satisfy [keep] — read after the
   clear, so a node that is its own donor copies nothing — padded with
   the donor's id to an even outdegree (Observation 5.1).  Returns the
   number installed. *)
let reinstall t node ~donor ~keep =
  let view = node.Protocol.view in
  View.clear_all view;
  let donated =
    List.filter keep
      (take t.config.Protocol.lower_threshold (View.ids donor.Protocol.view))
  in
  let installed = ref 0 in
  let install id =
    match View.random_empty_slot view t.protocol_rng with
    | None -> ()
    | Some slot ->
      View.set view slot
        {
          View.id;
          serial = View.mint t.serials;
          anchor = Some donor.Protocol.node_id;
          born = t.actions;
        };
      incr installed
  in
  install donor.Protocol.node_id;
  List.iter install donated;
  if View.degree view mod 2 = 1 then install donor.Protocol.node_id;
  !installed

type reconnect_result =
  | Reconnected of { donor : int; probes : int; installed : int }
  | Exhausted of { probes : int }

let reconnect t ~node_id =
  match Hashtbl.find_opt t.nodes node_id with
  | None -> invalid_arg "Runner.reconnect: unknown node"
  | Some node ->
    let loss = Sf_engine.Network.loss_rate t.network in
    let view_ids =
      List.filter (fun id -> id <> node_id) (View.ids node.Protocol.view)
    in
    let candidates =
      List.sort_uniq compare (node.Protocol.seen_ids @ view_ids)
      |> List.filter (fun id -> id <> node_id)
    in
    (* Preserve seen-cache recency order ahead of view order. *)
    let ordered =
      List.filter (fun id -> List.mem id candidates) node.Protocol.seen_ids
      @ List.filter (fun id -> not (List.mem id node.Protocol.seen_ids)) candidates
    in
    let probes = ref 0 in
    let rec try_candidates = function
      | [] -> Exhausted { probes = !probes }
      | candidate :: rest ->
        incr probes;
        let request_arrives = not (Sf_prng.Rng.bernoulli t.protocol_rng loss) in
        (match (request_arrives, Hashtbl.find_opt t.nodes candidate) with
        | true, Some donor ->
          let response_arrives = not (Sf_prng.Rng.bernoulli t.protocol_rng loss) in
          if response_arrives then begin
            let installed = reinstall t node ~donor ~keep:(fun _ -> true) in
            Sf_obs.Metrics.incr t.total_reconnections;
            trace t (Sf_obs.Trace.Mark { label = "reconnect" });
            emit t (Structural "reconnect");
            Reconnected
              { donor = donor.Protocol.node_id; probes = !probes; installed }
          end
          else try_candidates rest
        | _ -> try_candidates rest)
    in
    try_candidates ordered

(* Out-of-band re-bootstrap — the other half of the paper's joining rule
   ("a node can obtain these ids by copying another node's view").  Models
   contacting a bootstrap/rendezvous service: a random live donor's view is
   copied, as for a fresh joiner.  Used when probing previously seen ids is
   exhausted (e.g. a node that joined and lost all its neighbors before
   ever receiving a message). *)
let rebootstrap t ~node_id =
  match Hashtbl.find_opt t.nodes node_id with
  | None -> invalid_arg "Runner.rebootstrap: unknown node"
  | Some node ->
    let rec pick_donor () =
      let donor = random_live_node t in
      if donor.Protocol.node_id <> node_id || live_count t <= 1 then donor
      else pick_donor ()
    in
    let donor = pick_donor () in
    let installed =
      reinstall t node ~donor ~keep:(fun id ->
          id <> node_id && Hashtbl.mem t.nodes id)
    in
    Sf_obs.Metrics.incr t.total_rebootstraps;
    trace t (Sf_obs.Trace.Mark { label = "rebootstrap" });
    emit t (Structural "rebootstrap");
    installed

(* A node is starved when its view holds no live id: every send is wasted.
   Starvation is transient while other live nodes still hold the node's id
   (an incoming message restocks the view); it is permanent — *isolation* —
   once no instance of the id survives anywhere.  A real node detects
   isolation by timeout on prolonged silence; the simulator can see both
   conditions directly. *)
let is_starved t node =
  View.fold
    (fun acc e -> acc && not (Hashtbl.mem t.nodes e.View.id))
    true node.Protocol.view

let starved_nodes t =
  Array.to_list (live_nodes t) |> List.filter (is_starved t)

let count_id_instances t id =
  Array.fold_left
    (fun acc node -> acc + View.count_id node.Protocol.view id)
    0 (live_nodes t)

let is_isolated t node =
  is_starved t node && count_id_instances t node.Protocol.node_id = 0

let isolated_nodes t = List.filter (is_isolated t) (starved_nodes t)

(* --- Measurement --- *)

let membership_graph t =
  let g = Sf_graph.Digraph.create () in
  Array.iter
    (fun node ->
      Sf_graph.Digraph.ensure_vertex g node.Protocol.node_id;
      View.iter
        (fun _ e -> Sf_graph.Digraph.add_edge g node.Protocol.node_id e.View.id)
        node.Protocol.view)
    (live_nodes t);
  g

type world_counters = Sharded.world_counters = {
  actions : int;
  self_loops : int;
  sends : int;
  duplications : int;
  receipts : int;
  deletions : int;
  messages_lost : int;
}

let world_counters t =
  let net = Sf_engine.Network.statistics t.network in
  let count = Sf_obs.Metrics.count in
  {
    actions = t.actions;
    self_loops = count t.total_self_loops;
    sends = count t.total_sends;
    duplications = count t.total_duplications;
    receipts = count t.total_receipts;
    deletions = count t.total_deletions;
    messages_lost = net.Sf_engine.Network.messages_lost;
  }

(* Empirical per-send probabilities for the Lemma 6.6 balance check. *)
type rates = { duplication : float; deletion : float; loss : float }

let rates_since t (baseline : world_counters) =
  let now = world_counters t in
  let sends = now.sends - baseline.sends in
  if sends <= 0 then { duplication = 0.; deletion = 0.; loss = 0. }
  else
    let f x = float_of_int x /. float_of_int sends in
    {
      duplication = f (now.duplications - baseline.duplications);
      deletion = f (now.deletions - baseline.deletions);
      loss = f (now.messages_lost - baseline.messages_lost);
    }

(* --- Resilience decision loop (lib/resilience) ---

   One tick per round, after the round's actions: feed the estimator from
   world-counter deltas, let the controller retune per-node thresholds
   against the estimated loss, and let the supervisor drive section 5
   repairs under backoff.  Everything here is skipped in one [None] match
   when the layer is disabled. *)

let apply_retune t r pair =
  Array.iter
    (fun node ->
      let dl, s =
        Sf_resil.Feed.clamped_config
          ~capacity:(View.size node.Protocol.view)
          ~degree:(Protocol.degree node) pair
      in
      Hashtbl.replace r.node_configs node.Protocol.node_id
        (Protocol.make_config ~view_size:s ~lower_threshold:dl))
    (live_nodes t);
  Sf_obs.Metrics.incr r.c_retunes;
  trace t (Sf_obs.Trace.Mark { label = "retune" });
  (* Structural: the auditor must resync its per-node thresholds. *)
  emit t (Structural "retune")

(* One supervised repair pass.  The health probe is the simulator's
   privileged view (isolation and weak connectivity are directly visible);
   a repair attempt applies the section 5 joining rule to every isolated
   node and re-bootstraps one member of each minority component, then
   probes again — success resets the backoff, failure widens it. *)
let supervise t r =
  let now = float_of_int r.ticks in
  if Sf_resil.Supervisor.due r.supervisor ~now then begin
    let split () =
      live_count t > 1
      && not (Sf_graph.Digraph.is_weakly_connected (membership_graph t))
    in
    let isolated = isolated_nodes t in
    if isolated = [] && not (split ()) then
      Sf_resil.Supervisor.record_healthy r.supervisor
    else begin
      List.iter
        (fun node ->
          match reconnect t ~node_id:node.Protocol.node_id with
          | Reconnected _ -> ()
          | Exhausted _ ->
            ignore (rebootstrap t ~node_id:node.Protocol.node_id))
        isolated;
      if split () then begin
        let components =
          Sf_graph.Digraph.weakly_connected_components (membership_graph t)
          |> List.sort (fun a b ->
                 compare (List.length b) (List.length a))
        in
        match components with
        | [] | [ _ ] -> ()
        | _largest :: minorities ->
          List.iter
            (fun component ->
              match
                List.find_opt (fun id -> Hashtbl.mem t.nodes id) component
              with
              | None -> ()
              | Some id -> ignore (rebootstrap t ~node_id:id))
            minorities
      end;
      Sf_obs.Metrics.incr r.c_repair_attempts;
      let delay = Sf_resil.Supervisor.record_attempt r.supervisor ~now in
      Sf_obs.Metrics.observe r.h_backoff delay;
      trace t (Sf_obs.Trace.Mark { label = "repair" });
      (* Reconnect/rebootstrap act synchronously, so re-probing now tells
         whether the attempt healed the graph. *)
      if isolated_nodes t = [] && not (split ()) then begin
        Sf_resil.Supervisor.record_success r.supervisor;
        Sf_obs.Metrics.incr r.c_recoveries
      end
    end
  end

let resil_tick t =
  match t.resilience with
  | None -> ()
  | Some r ->
    r.ticks <- r.ticks + 1;
    let decision =
      Sf_resil.Feed.tick r.feed ~sends:(Sf_obs.Metrics.count t.total_sends)
        ~duplications:(Sf_obs.Metrics.count t.total_duplications)
        ~deletions:(Sf_obs.Metrics.count t.total_deletions) ()
    in
    Sf_obs.Metrics.set r.g_estimate
      (Sf_resil.Estimator.estimate (Sf_resil.Feed.estimator r.feed));
    (* Ground truth from the transport's windowed counters, for dashboards
       and estimator cross-checks; under non-stationary loss the window
       tracks the current regime where a cumulative rate would lag. *)
    (match Sf_engine.Network.loss_window t.network with
    | Some (sent, lost) when sent > 0 ->
      Sf_obs.Metrics.set r.g_true (float_of_int lost /. float_of_int sent)
    | _ -> ());
    Option.iter (apply_retune t r) decision;
    if r.policy.Sf_resil.Policy.recover then supervise t r

(* A round = as many actions as live nodes (each node initiates once in
   expectation), the paper's round definition in section 6.5.  The
   resilience tick runs between rounds (a no-op when the layer is off);
   timed mode has no rounds, so resilience decisions are
   sequential-mode-only — documented in the interface. *)
let run_rounds t rounds =
  for _ = 1 to rounds do
    run_actions t (live_count t);
    resil_tick t
  done

type resilience_stats = Sharded.resilience_stats = {
  loss_estimate : float;
  estimator_confident : bool;
  estimator_windows : int;
  retunes : int;
  repair_attempts : int;
  recoveries : int;
}

let resilience_statistics t =
  Option.map
    (fun r ->
      let estimator = Sf_resil.Feed.estimator r.feed in
      {
        loss_estimate = Sf_resil.Estimator.estimate estimator;
        estimator_confident = Sf_resil.Estimator.confident estimator;
        estimator_windows = Sf_resil.Estimator.windows estimator;
        retunes = Sf_obs.Metrics.count r.c_retunes;
        repair_attempts = Sf_resil.Supervisor.attempts r.supervisor;
        recoveries = Sf_resil.Supervisor.recoveries r.supervisor;
      })
    t.resilience

module Sharded = Sharded
