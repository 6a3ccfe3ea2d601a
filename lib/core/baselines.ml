(* Baseline gossip-membership protocols from the paper's taxonomy
   (section 3.1), implemented over the same view abstraction so their
   behaviour under message loss can be contrasted with S&F:

   - [Shuffle] (flipper style, delete-on-send with a bidirectional
     exchange): creates no spatial dependence, but every lost request or
     reply destroys the ids it carried, so the edge count bleeds away under
     loss — the failure mode S&F's duplication mechanism repairs.
   - [Cyclon] (Voulgaris, Gavidia, van Steen): shuffle with age-based
     target selection — entries carry a birth stamp and each exchange
     targets the *oldest* entry, which doubles as failure detection:
     entries pointing at dead nodes are the ones that age, so they are
     purged first.  Measurable with [kill]/[revive] churn.
   - [Push_pull] (Lpbcast/Allavena style, keep-on-send): immune to loss —
     only copies travel — but every transfer leaves a correlated copy
     behind, accumulating exactly the spatial dependence S&F avoids.
   - [Push_only] (reinforcement-only): loss-immune and dependence-free, but
     it has no mixing component, so views stagnate; it is the "impractical"
     straw man the paper mentions.

   All baselines run in the sequential-action model (a uniformly random node
   initiates per action), matching how S&F is analyzed. *)

type kind =
  | Shuffle of { exchange_size : int }
  | Cyclon of { exchange_size : int }
  | Push_pull of { gossip_size : int }
  | Push_only

type node = { id : int; view : View.t }

type t = {
  kind : kind;
  loss_rate : float;
  rng : Sf_prng.Rng.t;
  nodes : node array;
  dead : bool array;  (* killed nodes drop all traffic *)
  serials : View.minter;
  mutable actions : int;
  mutable messages_sent : int;
  mutable messages_lost : int;
}

let create ~seed ~n ~view_size ~loss_rate ~kind ~topology =
  let rng = Sf_prng.Rng.create seed in
  let t =
    {
      kind;
      loss_rate;
      rng;
      nodes = Array.init n (fun id -> { id; view = View.create view_size });
      dead = Array.make n false;
      serials = { View.next = 0; stride = 1 };
      actions = 0;
      messages_sent = 0;
      messages_lost = 0;
    }
  in
  Array.iter
    (fun node ->
      List.iter
        (fun v ->
          match View.random_empty_slot node.view t.rng with
          | None -> invalid_arg "Baselines.create: topology exceeds view size"
          | Some slot ->
            View.set node.view slot { View.id = v; serial = View.mint t.serials; anchor = None; born = 0 })
        (topology node.id))
    t.nodes;
  t

let node_count t = Array.length t.nodes

(* A message to [dst] survives the lossy channel with probability 1 - loss
   and only if the destination is alive. *)
let transmit t ~dst =
  t.messages_sent <- t.messages_sent + 1;
  if Sf_prng.Rng.bernoulli t.rng t.loss_rate || t.dead.(dst) then begin
    t.messages_lost <- t.messages_lost + 1;
    false
  end
  else true

(* Remove and return up to [k] uniformly chosen entries from a view. *)
let extract_random_entries t view k =
  let filled = ref [] in
  View.iter (fun slot _ -> filled := slot :: !filled) view;
  let slots = Array.of_list !filled in
  Sf_prng.Rng.shuffle t.rng slots;
  let take = min k (Array.length slots) in
  let out = ref [] in
  for i = 0 to take - 1 do
    (match View.get view slots.(i) with
    | Some e -> out := e :: !out
    | None -> assert false);
    View.clear view slots.(i)
  done;
  !out

(* Copy up to [k] uniformly chosen entries (without removing them). *)
let copy_random_entries t view k =
  let entries = Array.of_list (View.entries view) in
  Sf_prng.Rng.shuffle t.rng entries;
  Array.to_list (Array.sub entries 0 (min k (Array.length entries)))

(* Install entries into empty slots, dropping the excess (shuffle semantics:
   the receiver freed slots by extracting its reply first). *)
let install_into_empty t view entries =
  List.iter
    (fun e ->
      match View.random_empty_slot view t.rng with
      | Some slot -> View.set view slot e
      | None -> ())
    entries

(* Install entries, overwriting uniformly random occupied slots when the
   view is full (push-pull merge semantics). *)
let install_with_replacement t view entries =
  List.iter
    (fun e ->
      match View.random_empty_slot view t.rng with
      | Some slot -> View.set view slot e
      | None ->
        let slot = Sf_prng.Rng.int t.rng (View.size view) in
        View.set view slot e)
    entries

let random_neighbor t node =
  let entries = Array.of_list (View.entries node.view) in
  if Array.length entries = 0 then None
  else Some (Sf_prng.Rng.choose t.rng entries)

let own_instance t node =
  { View.id = node.id; serial = View.mint t.serials; anchor = None; born = t.actions }

(* Mark a transferred copy as anchored at the sender, who retains the
   original — the dependence labelling shared with S&F's duplication. *)
let anchored_copy t sender entry =
  { entry with View.serial = View.mint t.serials; anchor = Some sender; born = t.actions }

(* The oldest entry in the view (smallest birth stamp) — Cyclon's target
   rule and failure detector. *)
let oldest_neighbor node =
  View.fold
    (fun acc (e : View.entry) ->
      match acc with
      | Some (best : View.entry) when best.View.born <= e.View.born -> acc
      | _ -> Some e)
    None node.view

let shuffle_action ?(oldest_first = false) t ~exchange_size initiator =
  let target =
    if oldest_first then oldest_neighbor initiator else random_neighbor t initiator
  in
  match target with
  | None -> ()
  | Some target_entry ->
    let peer = t.nodes.(target_entry.View.id) in
    if peer.id = initiator.id then ()
    else begin
      (* The initiator removes the target entry plus exchange_size - 1 other
         entries, and offers them together with its own id. *)
      let slot_of_target = ref None in
      View.iter
        (fun slot e ->
          if !slot_of_target = None && e.View.serial = target_entry.View.serial then
            slot_of_target := Some slot)
        initiator.view;
      (match !slot_of_target with
      | Some slot -> View.clear initiator.view slot
      | None -> assert false);
      let extras = extract_random_entries t initiator.view (exchange_size - 1) in
      let request = own_instance t initiator :: extras in
      if transmit t ~dst:peer.id then begin
        (* Peer extracts its reply first, then installs the request. *)
        let reply = extract_random_entries t peer.view exchange_size in
        install_into_empty t peer.view request;
        if transmit t ~dst:initiator.id then install_into_empty t initiator.view reply
        (* Reply lost: the peer's extracted entries are gone and the
           initiator's freed slots stay empty — the id bleed of
           delete-on-send protocols under loss. *)
      end
      (* Request lost: the initiator's extracted entries are gone. *)
    end

let push_pull_action t ~gossip_size initiator =
  match random_neighbor t initiator with
  | None -> ()
  | Some target_entry ->
    let peer = t.nodes.(target_entry.View.id) in
    if peer.id = initiator.id then ()
    else begin
      let offer =
        own_instance t initiator
        :: List.map (anchored_copy t initiator.id) (copy_random_entries t initiator.view gossip_size)
      in
      if transmit t ~dst:peer.id then begin
        install_with_replacement t peer.view offer;
        let reply =
          own_instance t peer
          :: List.map (anchored_copy t peer.id) (copy_random_entries t peer.view gossip_size)
        in
        if transmit t ~dst:initiator.id then install_with_replacement t initiator.view reply
      end
    end

let push_only_action t initiator =
  match random_neighbor t initiator with
  | None -> ()
  | Some target_entry ->
    let peer = t.nodes.(target_entry.View.id) in
    if peer.id <> initiator.id && transmit t ~dst:peer.id then
      install_with_replacement t peer.view [ own_instance t initiator ]

let step t =
  t.actions <- t.actions + 1;
  let initiator = Sf_prng.Rng.choose t.rng t.nodes in
  if t.dead.(initiator.id) then ()
  else
    match t.kind with
    | Shuffle { exchange_size } -> shuffle_action t ~exchange_size initiator
    | Cyclon { exchange_size } -> shuffle_action ~oldest_first:true t ~exchange_size initiator
    | Push_pull { gossip_size } -> push_pull_action t ~gossip_size initiator
    | Push_only -> push_only_action t initiator

let run_rounds t rounds =
  for _ = 1 to rounds do
    for _ = 1 to Array.length t.nodes do
      step t
    done
  done

(* --- Churn --- *)

let kill t id =
  if id < 0 || id >= Array.length t.nodes then invalid_arg "Baselines.kill";
  t.dead.(id) <- true

(* Revive a previously killed node as a fresh incarnation: empty view
   re-seeded with up to [bootstrap] entries copied from a random live
   node. *)
let revive t id ~bootstrap =
  if id < 0 || id >= Array.length t.nodes then invalid_arg "Baselines.revive";
  t.dead.(id) <- false;
  let node = t.nodes.(id) in
  View.clear_all node.view;
  let live =
    Array.to_list t.nodes
    |> List.filter (fun n -> (not t.dead.(n.id)) && n.id <> id && View.degree n.view > 0)
  in
  match live with
  | [] -> ()
  | _ ->
    let donor = Sf_prng.Rng.choose t.rng (Array.of_list live) in
    List.iteri
      (fun i (e : View.entry) ->
        if i < bootstrap then
          match View.random_empty_slot node.view t.rng with
          | Some slot ->
            View.set node.view slot
              { e with View.serial = View.mint t.serials; born = t.actions }
          | None -> ())
      (View.entries donor.view)

let is_dead t id = t.dead.(id)

(* Fraction of view entries across live nodes that point at dead nodes —
   the staleness Cyclon's age rule is designed to purge. *)
let dead_entry_fraction t =
  let total = ref 0 and stale = ref 0 in
  Array.iter
    (fun node ->
      if not t.dead.(node.id) then
        View.iter
          (fun _ e ->
            incr total;
            if t.dead.(e.View.id) then incr stale)
          node.view)
    t.nodes;
  if !total = 0 then 0. else float_of_int !stale /. float_of_int !total

(* --- Measurement (mirrors the S&F monitors) --- *)

let total_instances t =
  Array.fold_left
    (fun acc node -> if t.dead.(node.id) then acc else acc + View.degree node.view)
    0 t.nodes

let outdegree_summary t =
  let summary = Sf_stats.Summary.create () in
  Array.iter
    (fun node ->
      if not t.dead.(node.id) then
        Sf_stats.Summary.add_int summary (View.degree node.view))
    t.nodes;
  summary

let indegree_summary t =
  let counts = Array.make (Array.length t.nodes) 0 in
  Array.iter
    (fun node ->
      View.iter
        (fun _ e ->
          if e.View.id >= 0 && e.View.id < Array.length counts then
            counts.(e.View.id) <- counts.(e.View.id) + 1)
        node.view)
    t.nodes;
  Sf_stats.Summary.of_int_array counts

let independence_census t =
  Census.of_views
    (Array.to_seq t.nodes
    |> Seq.filter (fun n -> not t.dead.(n.id))
    |> Seq.map (fun n -> (n.id, n.view)))

let membership_graph t =
  let g = Sf_graph.Digraph.create () in
  Array.iter
    (fun node ->
      if not t.dead.(node.id) then begin
        Sf_graph.Digraph.ensure_vertex g node.id;
        View.iter (fun _ e -> Sf_graph.Digraph.add_edge g node.id e.View.id) node.view
      end)
    t.nodes;
  g

let is_weakly_connected t = Sf_graph.Digraph.is_weakly_connected (membership_graph t)
