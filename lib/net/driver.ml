(* The reusable UDP select-loop driver: every owned node has a datagram
   socket bound to 127.0.0.1 on port [base_port + id], messages travel as
   actual datagrams, and nodes initiate on jittered periodic timers — the
   "practical implementation" the paper sketches in section 5, running on
   a real network stack instead of the discrete-event simulator.

   One driver owns a contiguous *slice* [first, first + count) of a global
   id space of [n] nodes.  The single-process deployment is the
   whole-space slice; a node-host process
   ({!Nodehost}) owns one slice while sibling processes own the others,
   all sharing the same port map — the address of node [i] is
   [base_port + i] no matter which process computes it, so datagrams cross
   process boundaries with no routing layer.

   The loop multiplexes all owned sockets (plus any registered control
   channels) with [Unix.select]: wait for readable fds or the next timer,
   drain datagrams (sockets are non-blocking), decode and run the receive
   step, then run the initiate steps that have come due.  Send-side loss
   injection keeps loss experiments controlled even though loopback UDP
   rarely drops on its own.

   Wire versions: at [version = 1] (default) the driver is byte-identical
   to the historical one-message-per-datagram deployment.  At [version =
   2] it speaks {!Codec} v2 — outbound messages queue per destination and
   flush as batched datagrams once the peer is known to speak v2,
   negotiated per-peer by hello datagrams: a v2 driver sends v1 frames to
   unknown peers (a real v1 process understands them) plus a capped number
   of hellos advertising its own port range; a v2 peer replies with its
   range and both sides upgrade, while a v1 peer stays silent and the
   sender permanently downgrades after the cap.

   An optional fault scenario (lib/faults) generalizes the send-side loss
   draw exactly as in the simulator; [set_partition_filter] adds the
   cross-process form of a partition window, where a controller tells each
   process which block it is in and the send path drops cross-block
   datagrams.  Fire-and-forget UDP matches S&F's assumptions exactly: no
   connection state, no retransmission, the sender never learns whether
   the message arrived. *)

(* Hellos sent to one destination before concluding it speaks v1 only.
   The probe is per-datagram-destination, so the cost of a wrong guess is
   eight 7-byte datagrams per silent peer over the run. *)
let hello_cap = 8

type node_state = {
  node : Sf_core.Protocol.node;
  (* Mutable: a crash-restart closes the socket for the duration of the
     window and rebinds a fresh one on the same port at resume. *)
  mutable socket : Unix.file_descr;
  mutable next_fire : float;
  (* The node's current thresholds; starts at the cluster config and
     diverges under adaptive retuning. *)
  mutable config : Sf_core.Protocol.config;
  (* Per-node resilience feed (lib/resilience): each node runs its own
     loss estimator over its own protocol counters — a deployed node has
     nobody else's — and its own threshold controller. *)
  resil : Sf_resil.Feed.t option;
  (* Crash-restart bookkeeping (resilience mode only). *)
  mutable down : bool;       (* socket closed by an active crash window *)
  mutable snapshot : int list;  (* bounded view snapshot taken at crash *)
}

(* A datagram held back by an active delay window: release time, sending
   socket, wire bytes, destination. *)
type delayed_datagram = {
  release_at : float;
  via : Unix.file_descr;
  packet : bytes;
  target : Unix.sockaddr;
}

(* An outbound v2 batch under construction: messages for one destination
   accumulated within a loop iteration, flushed as one datagram.  The
   sender is remembered as a node index (not a socket) so a crash-rebind
   between enqueue and flush cannot leak a closed fd. *)
type pending_batch = {
  mutable items : (Sf_core.Protocol.message * bool) list;  (* rev; flag = corrupt *)
  mutable batched : int;
  src_index : int;
}

(* A callback run on a schedule by the event loop (heartbeats, probes). *)
type periodic = {
  every : float;
  mutable due_at : float;
  callback : unit -> unit;
}

type t = {
  base_port : int;
  n_global : int;  (* the full id space; owned slice is [first, first+count) *)
  first : int;
  version : int;   (* wire ceiling: 1 = historical, 2 = batching + hellos *)
  period : float;
  loss_rate : float;
  (* Injected clock: tests drive virtual time; production uses
     [Sf_obs.Clock.wall] — the tree's single sanctioned wall-clock
     source. *)
  now : unit -> float;
  started : float;  (* clock reading at creation; trace stamps are rounds
                       since then, matching the injector's round clock *)
  rng : Sf_prng.Rng.t;
  injector : Sf_faults.Injector.t option;
  resilience : Sf_resil.Policy.t option;
  (* Cross-process repair scheduling (resilience mode with [recover]):
     probes find isolated owned nodes and the supervisor spaces the
     rebootstrap attempts under capped backoff.  Its jitter draws from a
     dedicated stream so the protocol RNG is untouched. *)
  supervisor : Sf_resil.Supervisor.t option;
  mutable repair_pending : bool;
  mutable next_probe : float;
  nodes : node_state array;  (* index i holds global id [first + i] *)
  (* Bumped whenever a socket is closed or rebound, so the run loop knows
     to rebuild its select set. *)
  mutable socket_generation : int;
  read_buffer : bytes;
  (* Which global ids are known to speak v2 ('\001' = yes), and how many
     hellos each destination has been sent (saturating at [hello_cap]). *)
  peer_v2 : Bytes.t;
  hello_tries : Bytes.t;
  (* v2 outbound batches: per-destination queues plus first-enqueue order
     so flushes are deterministic. *)
  pending : (int, pending_batch) Hashtbl.t;
  mutable pending_order : int list;  (* rev *)
  (* Control channels: extra fds in the select set, each draining itself
     via its callback (a node-host's stdin and control socket). *)
  mutable channels : (Unix.file_descr * (unit -> unit)) list;
  mutable periodics : periodic list;
  mutable stop_requested : bool;
  (* Cross-process partition window: with [Some parts], cross-block
     datagrams are dropped at the sender (blocks per the injector's
     partition arithmetic, identical in every process). *)
  mutable filter_parts : int option;
  obs : Sf_obs.Obs.t;
  (* Registry counters (one O(1) increment each, the same cost as the
     mutable int fields they replaced); [statistics] reads them back. *)
  c_sent : Sf_obs.Metrics.counter;
  c_dropped : Sf_obs.Metrics.counter;  (* injected loss (any fault cause) *)
  c_received : Sf_obs.Metrics.counter;
  c_corrupted : Sf_obs.Metrics.counter;
  c_delayed : Sf_obs.Metrics.counter;
  c_crash_dropped : Sf_obs.Metrics.counter;
  c_oversized : Sf_obs.Metrics.counter;
  c_truncated : Sf_obs.Metrics.counter;
  c_decode_errors : Sf_obs.Metrics.counter;
  c_send_errors : Sf_obs.Metrics.counter;
  c_rejoins : Sf_obs.Metrics.counter;  (* crash-restart rejoin recoveries *)
  c_retunes : Sf_obs.Metrics.counter;  (* per-node threshold retunes *)
  c_emitted : Sf_obs.Metrics.counter;  (* datagrams actually sent on the wire *)
  c_messages_received : Sf_obs.Metrics.counter;  (* decoded protocol messages *)
  c_batches : Sf_obs.Metrics.counter;
  c_frames : Sf_obs.Metrics.counter;
  c_hellos_sent : Sf_obs.Metrics.counter;
  c_hellos_received : Sf_obs.Metrics.counter;
  c_crc_rejected : Sf_obs.Metrics.counter;
  c_filtered : Sf_obs.Metrics.counter;
  c_repairs : Sf_obs.Metrics.counter;  (* supervised rebootstrap attempts *)
  (* Codec profiling, timed with the injected clock. *)
  encode_span : Sf_obs.Span.t;
  decode_span : Sf_obs.Span.t;
  (* Whole initiate-action latency (protocol step + encode + sendto). *)
  action_span : Sf_obs.Span.t;
  mutable delayed : delayed_datagram list;
  (* Global serials start at the offset and step by the stride: sibling
     processes use stride = process count and distinct offsets, so
     concurrently minted serials never collide across the cluster. *)
  serials : Sf_core.View.minter;
  mutable actions : int;
}

let address_of t node_id =
  Unix.ADDR_INET (Unix.inet_addr_loopback, t.base_port + node_id)

let create ?(period = 0.01) ?(now = Sf_obs.Clock.wall) ?scenario ?obs ?resilience
    ?(version = 1) ?(first = 0) ?count ?(serial_stride = 1) ?(serial_offset = 0)
    ~base_port ~n ~config ~loss_rate ~seed ~topology () =
  let count = match count with Some c -> c | None -> n - first in
  if n <= 0 then invalid_arg "Driver.create: need at least one node";
  if base_port < 1024 || base_port + n > 65_535 then
    invalid_arg "Driver.create: port range out of bounds";
  if first < 0 || count < 1 || first + count > n then
    invalid_arg "Driver.create: owned slice outside the id space";
  if version < 1 || version > 2 then
    invalid_arg "Driver.create: unknown wire version";
  if serial_stride < 1 || serial_offset < 0 || serial_offset >= serial_stride
  then invalid_arg "Driver.create: bad serial striding";
  let rng = Sf_prng.Rng.create seed in
  let obs = match obs with Some o -> o | None -> Sf_obs.Obs.create () in
  let metrics = Sf_obs.Obs.metrics obs in
  let injector =
    Option.map
      (fun sc -> Sf_faults.Injector.create ~metrics ~scenario:sc ~n ())
      scenario
  in
  (* The supervisor exists only under a recovering policy, and its jitter
     stream is separate from the protocol RNG: non-recovering runs replay
     byte-identically to drivers that predate the supervisor. *)
  let supervisor =
    match resilience with
    | Some policy when policy.Sf_resil.Policy.recover ->
      Some
        (Sf_resil.Policy.supervisor policy
           ~rng:(Sf_prng.Rng.create (seed lxor 0x5f17)))
    | _ -> None
  in
  let start = now () in
  let t =
    {
      base_port;
      n_global = n;
      first;
      version;
      period;
      loss_rate;
      now;
      started = start;
      rng;
      injector;
      resilience;
      supervisor;
      repair_pending = false;
      next_probe = start +. (2.0 *. period);
      nodes = [||];
      socket_generation = 0;
      read_buffer = Bytes.create Codec.recv_buffer_size;
      peer_v2 = Bytes.make n '\000';
      hello_tries = Bytes.make n '\000';
      pending = Hashtbl.create 64;
      pending_order = [];
      channels = [];
      periodics = [];
      stop_requested = false;
      filter_parts = None;
      obs;
      c_sent = Sf_obs.Metrics.counter metrics "cluster_datagrams_sent";
      c_dropped = Sf_obs.Metrics.counter metrics "cluster_datagrams_dropped";
      c_received = Sf_obs.Metrics.counter metrics "cluster_datagrams_received";
      c_corrupted = Sf_obs.Metrics.counter metrics "cluster_datagrams_corrupted";
      c_delayed = Sf_obs.Metrics.counter metrics "cluster_datagrams_delayed";
      c_crash_dropped =
        Sf_obs.Metrics.counter metrics "cluster_datagrams_crash_dropped";
      c_oversized = Sf_obs.Metrics.counter metrics "cluster_datagrams_oversized";
      c_truncated = Sf_obs.Metrics.counter metrics "cluster_datagrams_truncated";
      c_decode_errors = Sf_obs.Metrics.counter metrics "cluster_decode_errors";
      c_send_errors = Sf_obs.Metrics.counter metrics "cluster_send_errors";
      c_rejoins = Sf_obs.Metrics.counter metrics "cluster_rejoins";
      c_retunes = Sf_obs.Metrics.counter metrics "cluster_retunes";
      c_emitted = Sf_obs.Metrics.counter metrics "cluster_datagrams_emitted";
      c_messages_received =
        Sf_obs.Metrics.counter metrics "cluster_messages_received";
      c_batches = Sf_obs.Metrics.counter metrics "cluster_batches_sent";
      c_frames = Sf_obs.Metrics.counter metrics "cluster_frames_sent";
      c_hellos_sent = Sf_obs.Metrics.counter metrics "cluster_hellos_sent";
      c_hellos_received =
        Sf_obs.Metrics.counter metrics "cluster_hellos_received";
      c_crc_rejected =
        Sf_obs.Metrics.counter metrics "cluster_frames_crc_rejected";
      c_filtered = Sf_obs.Metrics.counter metrics "cluster_datagrams_filtered";
      c_repairs = Sf_obs.Metrics.counter metrics "cluster_repair_attempts";
      encode_span = Sf_obs.Span.create ~clock:now metrics "codec_encode_seconds";
      decode_span = Sf_obs.Span.create ~clock:now metrics "codec_decode_seconds";
      action_span =
        Sf_obs.Span.create ~clock:now metrics "cluster_action_seconds";
      delayed = [];
      serials = { Sf_core.View.next = serial_offset; stride = serial_stride };
      actions = 0;
    }
  in
  (* One round of the scenario clock = one firing period elapsed. *)
  Option.iter
    (fun inj ->
      Sf_faults.Injector.set_clock inj (fun () -> (now () -. start) /. period))
    injector;
  (* Track every socket opened so far: if node k's bind (or anything after
     it) fails, the k sockets already open must not leak. *)
  let opened = ref [] in
  let make_node node_id =
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    opened := socket :: !opened;
    Unix.set_nonblock socket;
    Unix.setsockopt socket Unix.SO_REUSEADDR true;
    Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + node_id));
    let node = Sf_core.Protocol.create_node ~config ~node_id in
    List.iter
      (fun v ->
        match Sf_core.View.random_empty_slot node.Sf_core.Protocol.view rng with
        | None -> invalid_arg "Driver.create: topology exceeds view size"
        | Some slot ->
          Sf_core.View.set node.Sf_core.Protocol.view slot
            { Sf_core.View.id = v; serial = Sf_core.View.mint t.serials; anchor = None; born = 0 })
      (topology node_id);
    {
      node;
      socket;
      (* Stagger first firings across one period. *)
      next_fire = start +. (period *. Sf_prng.Rng.float rng);
      config;
      resil =
        Option.map
          (fun policy ->
            Sf_resil.Feed.create policy
              ~initial:
                ( config.Sf_core.Protocol.lower_threshold,
                  config.Sf_core.Protocol.view_size )
              ~capacity:config.Sf_core.Protocol.view_size)
          resilience;
      down = false;
      snapshot = [];
    }
  in
  match Array.init count (fun i -> make_node (first + i)) with
  | nodes -> { t with nodes }
  | exception e ->
    List.iter
      (fun socket -> try Unix.close socket with Unix.Unix_error _ -> ())
      !opened;
    raise e

let node_count t = Array.length t.nodes
let owned_range t = (t.first, Array.length t.nodes)
let request_stop t = t.stop_requested <- true
let add_channel t fd callback = t.channels <- (fd, callback) :: t.channels

let add_periodic t ~every callback =
  t.periodics <-
    { every; due_at = t.now () +. every; callback } :: t.periodics

let set_partition_filter t ~parts =
  (match parts with
  | Some p when p < 2 -> invalid_arg "Driver.set_partition_filter: parts < 2"
  | _ -> ());
  t.filter_parts <- parts

(* The injector's partition rule, applied locally: every process computes
   the same block for the same id, so the drop decision is consistent
   cluster-wide without coordination. *)
let filtered t ~src ~dst =
  match t.filter_parts with
  | None -> false
  | Some parts ->
    let block = Sf_faults.Scenario.block ~n:t.n_global ~parts in
    block src <> block dst

let shutdown t =
  Array.iter
    (fun ns -> try Unix.close ns.socket with Unix.Unix_error _ -> ())
    t.nodes

let is_crashed t node_id =
  match t.injector with
  | None -> false
  | Some injector -> Sf_faults.Injector.is_crashed injector node_id

(* Trace stamps are rounds since creation — the same unit as the
   injector's round clock, and derived from the injected [now] so
   virtual-clock tests stay deterministic. *)
let trace t event =
  if Sf_obs.Obs.tracing t.obs then
    Sf_obs.Obs.trace t.obs ~now:((t.now () -. t.started) /. t.period) event

(* Born stamps: whole firing periods since creation, the unit of the
   trace stamps and the injector clock.  Floored at 0 so a wall clock
   stepped backwards cannot produce a stamp the view store rejects; at
   the 0.1 ms period of a saturated host, 2^31 periods is ~60 hours. *)
let born_stamp t =
  max 0 (int_of_float ((t.now () -. t.started) /. t.period))

(* A signal landing mid-sendto must not cost the datagram: retry on EINTR
   (the kernel sent nothing), count everything else as a send error —
   including ECONNREFUSED, which on loopback means a previous datagram
   bounced off a closed (crashed or killed) port. *)
let rec transmit t ~via ~packet ~target =
  match Unix.sendto via packet 0 (Bytes.length packet) [] target with
  | _ -> Sf_obs.Metrics.incr t.c_emitted
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> transmit t ~via ~packet ~target
  | exception Unix.Unix_error _ -> Sf_obs.Metrics.incr t.c_send_errors

(* --- v2 per-peer negotiation ---

   Conservative default: an unknown peer gets plain v1 datagrams (which
   any peer understands) plus up to [hello_cap] hellos advertising this
   driver's whole port slice as v2.  A v2 peer replies with its own range
   the first time the hello teaches it anything, upgrading both directions;
   a v1 peer never replies and the probing stops at the cap — a permanent
   per-peer downgrade with zero lost traffic either way. *)

let peer_speaks_v2 t id = Bytes.get t.peer_v2 id = '\001'

let maybe_hello t (ns : node_state) destination =
  let tries = Char.code (Bytes.get t.hello_tries destination) in
  if tries < hello_cap then begin
    Bytes.set t.hello_tries destination (Char.chr (tries + 1));
    let lo = t.base_port + t.first in
    let hi = t.base_port + t.first + Array.length t.nodes - 1 in
    Sf_obs.Metrics.incr t.c_hellos_sent;
    transmit t ~via:ns.socket ~packet:(Codec.encode_hello ~lo ~hi)
      ~target:(address_of t destination)
  end

let handle_hello t (ns : node_state) ~from ~lo ~hi =
  Sf_obs.Metrics.incr t.c_hellos_received;
  if t.version >= 2 then begin
    let lo_id = max 0 (lo - t.base_port) in
    let hi_id = min (t.n_global - 1) (hi - t.base_port) in
    let newly = ref false in
    for id = lo_id to hi_id do
      if not (peer_speaks_v2 t id) then begin
        newly := true;
        Bytes.set t.peer_v2 id '\001'
      end
    done;
    (* Reply once per newly learned range, to the advertiser's source
       address: the exchange terminates because a reply that teaches the
       peer nothing new draws no further reply. *)
    if !newly then begin
      let lo = t.base_port + t.first in
      let hi = t.base_port + t.first + Array.length t.nodes - 1 in
      Sf_obs.Metrics.incr t.c_hellos_sent;
      transmit t ~via:ns.socket ~packet:(Codec.encode_hello ~lo ~hi) ~target:from
    end
  end

(* --- v2 outbound batching --- *)

let delay_factor t =
  match t.injector with
  | None -> 1.0
  | Some injector -> Sf_faults.Injector.delay_factor injector

(* The socket a queued batch leaves through: the enqueuing node's unless a
   crash window closed it mid-iteration, then any live sibling's. *)
let live_socket t src_index =
  let ns = t.nodes.(src_index) in
  if not ns.down then Some ns.socket
  else
    Array.fold_left
      (fun acc ns -> match acc with Some _ -> acc | None when not ns.down -> Some ns.socket | None -> None)
      None t.nodes

let flush_destination t destination (q : pending_batch) =
  Hashtbl.remove t.pending destination;
  let items = List.rev q.items in
  match
    Sf_obs.Span.time t.encode_span (fun () ->
        Codec.encode_batch (List.map fst items))
  with
  | [ packet ] -> (
    (* Corrupt verdicts flip one payload byte of their own frame after
       encoding: the receiver's CRC rejects exactly that frame. *)
    List.iteri
      (fun i (_, corrupt) ->
        if corrupt then begin
          Sf_obs.Metrics.incr t.c_corrupted;
          Codec.corrupt_frame packet i
        end)
      items;
    Sf_obs.Metrics.incr t.c_batches;
    Sf_obs.Metrics.add t.c_frames q.batched;
    match live_socket t q.src_index with
    | None -> Sf_obs.Metrics.incr t.c_send_errors
    | Some via ->
      let factor = delay_factor t in
      if factor > 1.0 then begin
        Sf_obs.Metrics.incr t.c_delayed;
        t.delayed <-
          {
            release_at = t.now () +. (factor *. t.period);
            via;
            packet;
            target = address_of t destination;
          }
          :: t.delayed
      end
      else transmit t ~via ~packet ~target:(address_of t destination))
  | _ ->
    (* Queues flush at [max_batch], so the encoder cannot split. *)
    assert false

let flush_batches t =
  match t.pending_order with
  | [] -> ()
  | order ->
    t.pending_order <- [];
    List.iter
      (fun destination ->
        match Hashtbl.find_opt t.pending destination with
        | Some q -> flush_destination t destination q
        | None -> ())  (* flushed early at max_batch; entry is stale *)
      (List.rev order)

let enqueue_frame t (ns : node_state) ~destination ~message ~corrupt =
  let q =
    match Hashtbl.find_opt t.pending destination with
    | Some q -> q
    | None ->
      let q =
        {
          items = [];
          batched = 0;
          src_index = ns.node.Sf_core.Protocol.node_id - t.first;
        }
      in
      Hashtbl.add t.pending destination q;
      t.pending_order <- destination :: t.pending_order;
      q
  in
  q.items <- (message, corrupt) :: q.items;
  q.batched <- q.batched + 1;
  if q.batched >= Codec.max_batch then flush_destination t destination q

(* Per-node resilience tick, run after each initiation: feed the node's
   counters, and apply a controller decision clamped to this node.  The
   controller's cooldown is counted in these ticks, i.e. in firings. *)
let resil_tick t (ns : node_state) =
  let node = ns.node in
  match
    Option.bind ns.resil (fun feed ->
        Sf_resil.Feed.tick feed ~sends:node.Sf_core.Protocol.messages_sent
          ~duplications:node.Sf_core.Protocol.duplications
          ~deletions:node.Sf_core.Protocol.deletions ())
  with
  | None -> ()
  | Some pair ->
    let dl, s =
      Sf_resil.Feed.clamped_config
        ~capacity:(Sf_core.View.size node.Sf_core.Protocol.view)
        ~degree:(Sf_core.Protocol.degree node) pair
    in
    ns.config <- Sf_core.Protocol.make_config ~view_size:s ~lower_threshold:dl;
    Sf_obs.Metrics.incr t.c_retunes;
    trace t (Sf_obs.Trace.Mark { label = "retune" })

(* One initiate step at [ns]; the message goes out as a datagram (or joins
   a batch) unless the loss draw — or an active fault window, or the
   cross-process partition filter — eats it. *)
let fire_inner t ns =
  t.actions <- t.actions + 1;
  trace t (Sf_obs.Trace.Timer { node = ns.node.Sf_core.Protocol.node_id });
  match
    Sf_core.Protocol.initiate ns.config t.rng ~serials:t.serials
      ~clock:(born_stamp t) ns.node
  with
  | Sf_core.Protocol.Self_loop -> ()
  | Sf_core.Protocol.Send { destination; message; duplicated } -> (
    let src = ns.node.Sf_core.Protocol.node_id in
    Sf_obs.Metrics.incr t.c_sent;
    trace t (Sf_obs.Trace.Send { src; dst = destination; duplicated });
    if filtered t ~src ~dst:destination then begin
      Sf_obs.Metrics.incr t.c_filtered;
      Sf_obs.Metrics.incr t.c_dropped;
      trace t (Sf_obs.Trace.Drop { src; dst = destination; cause = "filtered" })
    end
    else
      let verdict =
        match t.injector with
        | None ->
          if Sf_prng.Rng.bernoulli t.rng t.loss_rate then `Drop else `Deliver
        | Some injector -> (
          match
            Sf_faults.Injector.judge injector t.rng ~chance:t.loss_rate ~src
              ~dst:destination
          with
          | Sf_faults.Injector.Deliver -> `Deliver
          | Sf_faults.Injector.Corrupt_payload -> `Corrupt
          | Sf_faults.Injector.Drop _ -> `Drop)
      in
      match verdict with
      | `Drop ->
        Sf_obs.Metrics.incr t.c_dropped;
        trace t (Sf_obs.Trace.Drop { src; dst = destination; cause = "injected" })
      | (`Deliver | `Corrupt) as fate ->
        if destination >= 0 && destination < t.n_global then begin
          if t.version >= 2 && peer_speaks_v2 t destination then
            enqueue_frame t ns ~destination ~message
              ~corrupt:(fate = `Corrupt)
          else begin
            (* Unknown or v1 peer: historical v1 datagram (plus, in v2
               mode, a capped hello probe riding alongside). *)
            if t.version >= 2 then maybe_hello t ns destination;
            let packet =
              Sf_obs.Span.time t.encode_span (fun () -> Codec.encode message)
            in
            (match fate with
            | `Corrupt ->
              (* Flip the magic byte: real corrupted bytes on the wire,
                 which the receiving codec rejects — the datagram is spent
                 but the error path is exercised. *)
              Sf_obs.Metrics.incr t.c_corrupted;
              Bytes.set packet 0
                (Char.chr (Char.code (Bytes.get packet 0) lxor 0xff))
            | `Deliver -> ());
            let factor = delay_factor t in
            if factor > 1.0 then begin
              (* Loopback latency is negligible, so a delay window holds
                 the datagram for [factor] firing periods instead. *)
              Sf_obs.Metrics.incr t.c_delayed;
              t.delayed <-
                {
                  release_at = t.now () +. (factor *. t.period);
                  via = ns.socket;
                  packet;
                  target = address_of t destination;
                }
                :: t.delayed
            end
            else
              transmit t ~via:ns.socket ~packet
                ~target:(address_of t destination)
          end
        end)

let fire t ns = Sf_obs.Span.time t.action_span (fun () -> fire_inner t ns)

let flush_delayed t ~now =
  match t.delayed with
  | [] -> ()
  | delayed ->
    let due, pending = List.partition (fun d -> d.release_at <= now) delayed in
    t.delayed <- pending;
    (* The list is newest-first; release oldest-first. *)
    List.iter
      (fun d -> transmit t ~via:d.via ~packet:d.packet ~target:d.target)
      (List.rev due)

(* Drain every pending datagram on a readable socket.  A crashed receiver
   discards instead of processing: messages arriving during the window are
   lost, not queued for the resume. *)
let drain t ns =
  let continue = ref true in
  while !continue do
    match Unix.recvfrom ns.socket t.read_buffer 0 (Bytes.length t.read_buffer) [] with
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
      (* Linux loopback: a pending ICMP port-unreachable (our earlier
         datagram to a crashed node's closed port) can surface here; it
         carries no datagram, so keep draining. *)
      ()
    | length, from ->
      let dst = ns.node.Sf_core.Protocol.node_id in
      if is_crashed t dst then begin
        Sf_obs.Metrics.incr t.c_crash_dropped;
        trace t (Sf_obs.Trace.Drop { src = -1; dst; cause = "crash" })
      end
      else begin
        Sf_obs.Metrics.incr t.c_received;
        if length >= Bytes.length t.read_buffer then
          (* recvfrom filled the whole buffer, so the datagram may have
             been truncated to it: foreign traffic, larger than anything
             either codec version produces. *)
          Sf_obs.Metrics.incr t.c_oversized
        else
          let deliver message =
            Sf_obs.Metrics.incr t.c_messages_received;
            trace t (Sf_obs.Trace.Deliver { dst; accepted = true });
            ignore (Sf_core.Protocol.receive ns.config t.rng ns.node message)
          in
          match
            Sf_obs.Span.time t.decode_span (fun () ->
                Codec.decode_datagram ~max_version:t.version t.read_buffer
                  ~length)
          with
          | Ok (Codec.Msg_v1 message) -> deliver message
          | Ok (Codec.Batch batch) ->
            if batch.Codec.truncated then begin
              Sf_obs.Metrics.incr t.c_truncated;
              trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
            end;
            if batch.Codec.bad_crc > 0 then begin
              Sf_obs.Metrics.add t.c_crc_rejected batch.Codec.bad_crc;
              trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
            end;
            if batch.Codec.bad_entry > 0 then begin
              Sf_obs.Metrics.add t.c_decode_errors batch.Codec.bad_entry;
              trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
            end;
            List.iter deliver batch.Codec.messages
          | Ok (Codec.Hello { lo; hi }) -> handle_hello t ns ~from ~lo ~hi
          | Error (Codec.Too_short _) ->
            Sf_obs.Metrics.incr t.c_truncated;
            trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
          | Error (Codec.Oversized _) -> Sf_obs.Metrics.incr t.c_oversized
          | Error _ ->
            Sf_obs.Metrics.incr t.c_decode_errors;
            trace t (Sf_obs.Trace.Deliver { dst; accepted = false })
      end
  done

(* --- Crash-restart with state recovery (resilience mode only) ---

   Without resilience a crash window only freezes the node (timers skip,
   arrivals are discarded) — the socket stays bound and the view survives,
   which models a paused process.  With resilience the crash is real:
   entering the window saves a bounded snapshot of the view (up to dL ids,
   the same bound the section 5 joining rule donates) and closes the
   socket, so in-flight datagrams bounce off a dead port; leaving it
   rebinds a fresh socket on the same port and rejoins by reinstalling the
   snapshot as fresh instances — falling back to copying a live
   neighbour's view (the paper's "copy another node's view" rule) when the
   snapshot is empty. *)

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let crash_down t (ns : node_state) =
  let keep = max 2 ns.config.Sf_core.Protocol.lower_threshold in
  ns.snapshot <- take keep (Sf_core.View.ids ns.node.Sf_core.Protocol.view);
  (try Unix.close ns.socket with Unix.Unix_error _ -> ());
  ns.down <- true;
  t.socket_generation <- t.socket_generation + 1;
  trace t (Sf_obs.Trace.Mark { label = "crash_down" })

(* Ids to rejoin with when no snapshot survives: a live owned neighbour's
   id and view — the paper's "copy another node's view" joining rule. *)
let donor_ids t ~node_id =
  let n = Array.length t.nodes in
  let rec pick tries =
    if tries = 0 then []
    else
      let candidate = t.nodes.(Sf_prng.Rng.int t.rng n) in
      if candidate.node.Sf_core.Protocol.node_id <> node_id && not candidate.down
      then
        candidate.node.Sf_core.Protocol.node_id
        :: List.filter
             (fun id -> id <> node_id)
             (Sf_core.View.ids candidate.node.Sf_core.Protocol.view)
      else pick (tries - 1)
  in
  pick 8

(* Reinstall [ids] as the node's whole view: fresh instances, even prefix
   (Observation 5.1), at most the joining bound dL. *)
let install_ids t (ns : node_state) ids =
  let view = ns.node.Sf_core.Protocol.view in
  Sf_core.View.clear_all view;
  let keep = max 2 ns.config.Sf_core.Protocol.lower_threshold in
  let ids = take (min keep (Sf_core.View.size view)) ids in
  let ids = take (List.length ids land lnot 1) ids in
  List.iteri
    (fun slot id ->
      Sf_core.View.set view slot
        { Sf_core.View.id; serial = Sf_core.View.mint t.serials; anchor = None; born = born_stamp t })
    ids

let rejoin t (ns : node_state) =
  let node_id = ns.node.Sf_core.Protocol.node_id in
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock socket;
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, t.base_port + node_id));
  ns.socket <- socket;
  (* Ids to rejoin with: the crash snapshot, else a live neighbour's view. *)
  let ids = match ns.snapshot with [] -> donor_ids t ~node_id | ids -> ids in
  install_ids t ns ids;
  ns.down <- false;
  ns.snapshot <- [];
  t.socket_generation <- t.socket_generation + 1;
  Sf_obs.Metrics.incr t.c_rejoins;
  trace t (Sf_obs.Trace.Mark { label = "rejoin" })

let sync_crash_states t =
  if Option.is_some t.resilience then
    Array.iter
      (fun ns ->
        let crashed = is_crashed t ns.node.Sf_core.Protocol.node_id in
        if crashed && not ns.down then crash_down t ns
        else if (not crashed) && ns.down then rejoin t ns)
      t.nodes

(* --- Supervised connectivity repair ---

   In a multi-process cluster a node can lose its whole view to causes no
   crash window announces (its neighbours' processes were kill -9'd and
   their views of it decayed).  The probe finds owned, live, isolated
   (degree-0) nodes and rebootstraps them from a live sibling's view — the
   same joining rule as a rejoin — with the supervisor spacing attempts
   under capped backoff and confirming recovery on the next probe. *)

let probe_repairs t ~now =
  match t.supervisor with
  | None -> ()
  | Some sup ->
    if now >= t.next_probe then begin
      t.next_probe <- now +. (2.0 *. t.period);
      let round = (now -. t.started) /. t.period in
      let isolated =
        Array.to_list t.nodes
        |> List.filter (fun ns ->
               (not ns.down)
               && (not (is_crashed t ns.node.Sf_core.Protocol.node_id))
               && Sf_core.Protocol.degree ns.node = 0)
      in
      match isolated with
      | [] ->
        if t.repair_pending then begin
          t.repair_pending <- false;
          Sf_resil.Supervisor.record_success sup
        end
        else Sf_resil.Supervisor.record_healthy sup
      | isolated ->
        if Sf_resil.Supervisor.due sup ~now:round then begin
          ignore (Sf_resil.Supervisor.record_attempt sup ~now:round);
          t.repair_pending <- true;
          Sf_obs.Metrics.incr t.c_repairs;
          List.iter
            (fun ns ->
              match donor_ids t ~node_id:ns.node.Sf_core.Protocol.node_id with
              | [] -> ()
              | ids ->
                install_ids t ns ids;
                trace t (Sf_obs.Trace.Mark { label = "rebootstrap" }))
            isolated
        end
    end

(* Run the driver for [duration] wall-clock seconds (or until
   [request_stop], typically from a control-channel callback). *)
let run t ~duration =
  t.stop_requested <- false;
  let deadline = t.now () +. duration in
  (* The select set excludes crashed (closed) sockets and is rebuilt
     whenever a crash-restart closes or rebinds one. *)
  let select_set () =
    let by_socket = Hashtbl.create (Array.length t.nodes) in
    let sockets =
      Array.to_list t.nodes
      |> List.filter_map (fun ns ->
             if ns.down then None
             else begin
               Hashtbl.replace by_socket ns.socket ns;
               Some ns.socket
             end)
    in
    (sockets, by_socket)
  in
  let generation = ref t.socket_generation in
  let index = ref (select_set ()) in
  let rec loop () =
    let now = t.now () in
    if now >= deadline || t.stop_requested then flush_batches t
    else begin
      (match t.injector with
      | None -> ()
      | Some injector -> Sf_faults.Injector.refresh injector);
      sync_crash_states t;
      if t.socket_generation <> !generation then begin
        generation := t.socket_generation;
        index := select_set ()
      end;
      flush_delayed t ~now;
      (* Fire all due timers, rescheduling with jitter.  A crashed node
         skips its initiation but keeps its timer running, so it resumes —
         restored from its snapshot (resilience) or with its stale view —
         when the window closes. *)
      Array.iter
        (fun ns ->
          if ns.next_fire <= now then begin
            if not (is_crashed t ns.node.Sf_core.Protocol.node_id) then begin
              fire t ns;
              resil_tick t ns
            end;
            ns.next_fire <-
              now +. (t.period *. (0.9 +. (0.2 *. Sf_prng.Rng.float t.rng)))
          end)
        t.nodes;
      List.iter
        (fun p ->
          if p.due_at <= now then begin
            p.due_at <- now +. p.every;
            p.callback ()
          end)
        t.periodics;
      probe_repairs t ~now;
      (* Batches queued this iteration leave before the loop sleeps: batch
         latency is bounded by one iteration, not by the fill rate. *)
      flush_batches t;
      let next_timer =
        Array.fold_left (fun acc ns -> Float.min acc ns.next_fire) infinity t.nodes
      in
      let next_release =
        List.fold_left (fun acc d -> Float.min acc d.release_at) infinity t.delayed
      in
      let next_periodic =
        List.fold_left (fun acc p -> Float.min acc p.due_at) infinity t.periodics
      in
      let next_probe =
        match t.supervisor with None -> infinity | Some _ -> t.next_probe
      in
      let next_event =
        Float.min (Float.min next_timer next_release)
          (Float.min next_periodic next_probe)
      in
      let timeout = Float.max 0. (Float.min (next_event -. now) (deadline -. now)) in
      let sockets, by_socket = !index in
      let fds =
        List.rev_append (List.rev_map fst t.channels) sockets
      in
      (* EINTR: a signal (SIGALRM, SIGTERM via a handler, a profiler tick)
         interrupting the wait is routine, not an error; EAGAIN is how some
         kernels report a transient resource squeeze on select.  Both mean
         "try again" — the deadline/stop check at the loop head bounds the
         retry. *)
      match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> loop ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            match List.assq_opt fd t.channels with
            | Some callback -> callback ()
            | None -> (
              match Hashtbl.find_opt by_socket fd with
              | Some ns -> drain t ns
              | None -> ()))
          readable;
        loop ()
    end
  in
  loop ()

(* --- Measurement (mirrors the simulator's monitors) --- *)

let views t =
  Array.to_seq t.nodes
  |> Seq.map (fun ns -> (ns.node.Sf_core.Protocol.node_id, ns.node.Sf_core.Protocol.view))

let outdegree_summary t =
  let summary = Sf_stats.Summary.create () in
  Array.iter
    (fun ns -> Sf_stats.Summary.add_int summary (Sf_core.Protocol.degree ns.node))
    t.nodes;
  summary

let independence_census t = Sf_core.Census.of_views (views t)

let membership_graph t =
  let g = Sf_graph.Digraph.create () in
  Array.iter
    (fun ns ->
      Sf_graph.Digraph.ensure_vertex g ns.node.Sf_core.Protocol.node_id;
      Sf_core.View.iter
        (fun _ e ->
          Sf_graph.Digraph.add_edge g ns.node.Sf_core.Protocol.node_id e.Sf_core.View.id)
        ns.node.Sf_core.Protocol.view)
    t.nodes;
  g

let is_weakly_connected t = Sf_graph.Digraph.is_weakly_connected (membership_graph t)

let fault_statistics t = Option.map Sf_faults.Injector.statistics t.injector

type statistics = {
  actions : int;
  datagrams_sent : int;
  datagrams_dropped : int;
  datagrams_received : int;
  datagrams_corrupted : int;
  datagrams_delayed : int;
  datagrams_crash_dropped : int;
  datagrams_oversized : int;
  datagrams_truncated : int;
  decode_errors : int;
  send_errors : int;
  rejoins : int;
  retunes : int;
  datagrams_emitted : int;
  messages_received : int;
  batches_sent : int;
  frames_sent : int;
  hellos_sent : int;
  hellos_received : int;
  frames_crc_rejected : int;
  datagrams_filtered : int;
  repair_attempts : int;
  recoveries : int;
}

let statistics (t : t) =
  let count = Sf_obs.Metrics.count in
  {
    actions = t.actions;
    datagrams_sent = count t.c_sent;
    datagrams_dropped = count t.c_dropped;
    datagrams_received = count t.c_received;
    datagrams_corrupted = count t.c_corrupted;
    datagrams_delayed = count t.c_delayed;
    datagrams_crash_dropped = count t.c_crash_dropped;
    datagrams_oversized = count t.c_oversized;
    datagrams_truncated = count t.c_truncated;
    decode_errors = count t.c_decode_errors;
    send_errors = count t.c_send_errors;
    rejoins = count t.c_rejoins;
    retunes = count t.c_retunes;
    datagrams_emitted = count t.c_emitted;
    messages_received = count t.c_messages_received;
    batches_sent = count t.c_batches;
    frames_sent = count t.c_frames;
    hellos_sent = count t.c_hellos_sent;
    hellos_received = count t.c_hellos_received;
    frames_crc_rejected = count t.c_crc_rejected;
    datagrams_filtered = count t.c_filtered;
    repair_attempts = count t.c_repairs;
    recoveries =
      (match t.supervisor with
      | None -> 0
      | Some sup -> Sf_resil.Supervisor.recoveries sup);
  }

let obs t = t.obs

(* Per-action latency quantile (seconds) from the action span histogram;
   [nan] before any action. *)
let action_latency_quantile t q =
  Sf_obs.Metrics.quantile (Sf_obs.Span.histogram t.action_span) q
