(* Send & Forget (S&F), Figure 5.1 of the paper.

   An *action* is split into two *steps*, each atomic at one node:

   - [initiate] at u: select two distinct view slots uniformly at random; if
     either is empty nothing happens (a self-loop transformation).
     Otherwise, with v and w the ids in the slots, send the message [u, w]
     to v, then clear both slots unless d(u) has reached the lower threshold
     [dL], in which case the entries are *duplicated* (kept).
   - [receive] at v: place both received ids into uniformly chosen empty
     slots, unless the live s leaves no room for two, in which case both
     are *deleted*.

   The sender never learns whether its message arrived: loss sits between
   the two steps, exactly as in the paper's non-atomic action model.

   The rule itself is [View.Flat.initiate]/[View.Flat.receive], shared
   with the sharded engine; this module adds the per-node counters and
   the seen-cache. *)

type config = {
  view_size : int;        (* s: number of view slots, even, >= 6 *)
  lower_threshold : int;  (* dL: outdegree at/below which sends duplicate *)
}

let make_config ~view_size ~lower_threshold =
  if view_size < 6 then invalid_arg "Protocol.make_config: view size must be >= 6";
  if view_size mod 2 <> 0 then invalid_arg "Protocol.make_config: view size must be even";
  if lower_threshold < 0 || lower_threshold > view_size - 6 then
    invalid_arg "Protocol.make_config: need 0 <= dL <= s - 6";
  if lower_threshold mod 2 <> 0 then
    invalid_arg "Protocol.make_config: dL must be even";
  { view_size; lower_threshold }

type message = {
  reinforcement : View.entry;  (* the sender's own id, [u] in [u, w] *)
  mixing : View.entry;         (* the forwarded id, [w] in [u, w] *)
}

(* Bound on the per-node cache of previously seen ids (used only by the
   reconnection path of section 5, never by regular protocol actions). *)
let seen_cache_capacity = 32

type node = {
  node_id : int;
  view : View.t;
  mutable initiated_actions : int;
  mutable self_loop_actions : int;
  mutable messages_sent : int;
  mutable duplications : int;
  mutable messages_received : int;
  mutable deletions : int;
  (* Recently received ids, newest first, deduplicated and bounded.  The
     paper's joining rule lets a reconnecting node probe "previously seen
     ids"; this cache is that memory. *)
  mutable seen_ids : int list;
}

let create_node ~config ~node_id =
  {
    node_id;
    view = View.create config.view_size;
    initiated_actions = 0;
    self_loop_actions = 0;
    messages_sent = 0;
    duplications = 0;
    messages_received = 0;
    deletions = 0;
    seen_ids = [];
  }

let remember_seen node id =
  if id <> node.node_id then begin
    let rest = List.filter (fun x -> x <> id) node.seen_ids in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    node.seen_ids <- id :: take (seen_cache_capacity - 1) rest
  end

let degree node = View.degree node.view

type initiate_result =
  | Self_loop                      (* an empty slot was selected; no effect *)
  | Send of { destination : int; message : message; duplicated : bool }

let entry ~id ~serial ~anchor ~born =
  { View.id; serial; anchor = (if anchor < 0 then None else Some anchor); born }

let anchor_int = function None -> -1 | Some a -> a

(* The initiate step: [View.Flat.initiate] on the node's one-node store,
   plus the node's counters.  [serials] mints instance numbers; [clock]
   stamps creation times. *)
let initiate config rng ~serials ~clock node =
  node.initiated_actions <- node.initiated_actions + 1;
  let p = View.Flat.packet () in
  if
    View.Flat.initiate node.view 0 ~self:node.node_id rng
      ~dl:config.lower_threshold ~serials ~born:clock p
  then begin
    if p.dup then node.duplications <- node.duplications + 1;
    node.messages_sent <- node.messages_sent + 1;
    let reinforcement =
      entry ~id:p.src ~serial:p.r_serial ~anchor:p.r_anchor ~born:p.r_born
    in
    let mixing =
      entry ~id:p.m_id ~serial:p.m_serial ~anchor:p.m_anchor ~born:p.m_born
    in
    Send { destination = p.dst; message = { reinforcement; mixing }; duplicated = p.dup }
  end
  else begin
    node.self_loop_actions <- node.self_loop_actions + 1;
    Self_loop
  end

type receive_result = Accepted | Deleted

(* The receive step: [View.Flat.receive] under the node's live s, plus the
   node's counters and seen-cache. *)
let receive config rng node { reinforcement = r; mixing = m } =
  node.messages_received <- node.messages_received + 1;
  remember_seen node r.View.id;
  remember_seen node m.View.id;
  let p =
    {
      View.Flat.dst = node.node_id;
      dup = false;
      src = r.View.id;
      r_serial = r.View.serial;
      r_anchor = anchor_int r.View.anchor;
      r_born = r.View.born;
      m_id = m.View.id;
      m_serial = m.View.serial;
      m_anchor = anchor_int m.View.anchor;
      m_born = m.View.born;
    }
  in
  if View.Flat.receive node.view 0 rng ~s:config.view_size p then Accepted
  else begin
    node.deletions <- node.deletions + 1;
    Deleted
  end

(* Observation 5.1: outdegree stays within [dL, s] (starting states included)
   and even. *)
let invariant_holds config node =
  let d = degree node in
  d mod 2 = 0 && d >= 0 && d <= config.view_size
