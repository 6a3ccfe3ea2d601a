(* The protocol optimizations sketched (and deferred) at the end of the
   paper's section 5, implemented as a parameterized S&F so their effect can
   be measured:

   1. *Mark-and-undelete*: instead of clearing sent entries, mark them; a
      marked entry does not count toward the outdegree and may be
      overwritten by received ids, but when the outdegree hits dL the node
      *undeletes* marked entries instead of duplicating.  Undeletion
      resurrects original instances, so it compensates loss without
      creating anchored copies — the dependence cost of duplication
      disappears.
   2. *Replace-when-full*: a full receiver overwrites two uniformly chosen
      occupied slots instead of deleting the received ids, trading deletion
      loss for faster mixing.
   3. *Batching*: each message carries the sender's id plus [batch] ids
      from the view (clearing or marking batch + 1 entries), reducing the
      message count per exchanged id.

   With all options off and batch = 1, the dynamics coincide with the
   standard S&F of {!Protocol} (a qcheck test enforces this).  The
   simulator is self-contained and sequential-action, mirroring
   {!Baselines}. *)

type options = {
  mark_and_undelete : bool;
  replace_when_full : bool;
  batch : int;  (* forwarded ids per message, >= 1 *)
}

let standard = { mark_and_undelete = false; replace_when_full = false; batch = 1 }

type slot = { entry : View.entry; marked : bool }

type node = {
  id : int;
  slots : slot option array;
  mutable duplications : int;
  mutable undeletions : int;
  mutable deletions : int;
}

type t = {
  options : options;
  view_size : int;
  lower_threshold : int;
  loss_rate : float;
  rng : Sf_prng.Rng.t;
  nodes : node array;
  serials : View.minter;
  mutable actions : int;
  mutable sends : int;
  mutable losses : int;
}

(* Outdegree: unmarked entries only. *)
let degree node =
  Array.fold_left
    (fun acc slot -> match slot with Some { marked = false; _ } -> acc + 1 | _ -> acc)
    0 node.slots

let create ~seed ~n ~view_size ~lower_threshold ~loss_rate ~options ~topology =
  if options.batch < 1 then invalid_arg "Variants.create: batch must be >= 1";
  let rng = Sf_prng.Rng.create seed in
  let t =
    {
      options;
      view_size;
      lower_threshold;
      loss_rate;
      rng;
      nodes =
        Array.init n (fun id ->
            {
              id;
              slots = Array.make view_size None;
              duplications = 0;
              undeletions = 0;
              deletions = 0;
            });
      serials = { View.next = 0; stride = 1 };
      actions = 0;
      sends = 0;
      losses = 0;
    }
  in
  Array.iter
    (fun node ->
      List.iteri
        (fun i v ->
          if i >= view_size then invalid_arg "Variants.create: topology exceeds view";
          node.slots.(i) <-
            Some
              {
                entry = { View.id = v; serial = View.mint t.serials; anchor = None; born = 0 };
                marked = false;
              })
        (topology node.id))
    t.nodes;
  t

(* Slots holding unmarked entries. *)
let occupied_slots node =
  let acc = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with Some { marked = false; _ } -> acc := i :: !acc | _ -> ())
    node.slots;
  Array.of_list !acc

(* Slots a received id may land in: empty ones, plus marked ones (a marked
   entry is logically deleted and may be overwritten). *)
let writable_slots node =
  let acc = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | None | Some { marked = true; _ } -> acc := i :: !acc
      | Some { marked = false; _ } -> ())
    node.slots;
  Array.of_list !acc

let marked_slots node =
  let acc = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with Some { marked = true; _ } -> acc := i :: !acc | _ -> ())
    node.slots;
  Array.of_list !acc

(* Install one entry at the receiver, honoring the replace-when-full
   option. Returns false when the id was deleted. *)
let install t node entry =
  let writable = writable_slots node in
  if Array.length writable > 0 then begin
    node.slots.(Sf_prng.Rng.choose t.rng writable) <- Some { entry; marked = false };
    true
  end
  else if t.options.replace_when_full then begin
    let slot = Sf_prng.Rng.int t.rng t.view_size in
    node.slots.(slot) <- Some { entry; marked = false };
    true
  end
  else begin
    node.deletions <- node.deletions + 1;
    false
  end

let receive t node entries = List.iter (fun e -> ignore (install t node e)) entries

let initiate t node =
  let occupied = occupied_slots node in
  let needed = t.options.batch + 1 in
  (* The action needs a target plus [batch] payload ids; drawing any empty
     slot aborts the action, which for batch = 1 reproduces the standard
     two-slot selection (slot pairs are drawn without replacement, so
     drawing "needed" distinct slots and requiring all non-empty matches
     S&F when needed = 2). *)
  let slots = Array.init t.view_size (fun i -> i) in
  Sf_prng.Rng.shuffle t.rng slots;
  let chosen = Array.sub slots 0 (min needed t.view_size) in
  let all_occupied =
    Array.for_all
      (fun i ->
        match node.slots.(i) with Some { marked = false; _ } -> true | _ -> false)
      chosen
  in
  if (not all_occupied) || Array.length occupied < needed then ()
  else begin
    let entry_at i =
      match node.slots.(i) with
      | Some { entry; marked = false } -> entry
      | _ -> assert false
    in
    let target = entry_at chosen.(0) in
    let payload = List.init t.options.batch (fun k -> entry_at chosen.(k + 1)) in
    let d = degree node in
    let at_threshold = d <= t.lower_threshold in
    let compensated =
      if at_threshold && t.options.mark_and_undelete then begin
        (* Undelete: recover marked originals instead of duplicating. *)
        let marked = marked_slots node in
        Array.iter
          (fun i ->
            match node.slots.(i) with
            | Some { entry; marked = true } ->
              node.slots.(i) <- Some { entry; marked = false };
              node.undeletions <- node.undeletions + 1
            | _ -> ())
          marked;
        (* After undeletion the entries are still sent; clear or keep per
           the refreshed degree. *)
        degree node <= t.lower_threshold
      end
      else at_threshold
    in
    let sent_payload =
      if compensated then begin
        node.duplications <- node.duplications + 1;
        (* Duplication: the receiver gets anchored copies. *)
        List.map
          (fun (e : View.entry) ->
            { e with View.serial = View.mint t.serials; anchor = Some node.id })
          payload
      end
      else begin
        (* Clear (or mark) the sent entries. *)
        Array.iter
          (fun i ->
            if t.options.mark_and_undelete then
              match node.slots.(i) with
              | Some { entry; _ } -> node.slots.(i) <- Some { entry; marked = true }
              | None -> ()
            else node.slots.(i) <- None)
          chosen;
        List.map (fun (e : View.entry) -> { e with View.anchor = None }) payload
      end
    in
    let reinforcement =
      let anchor = if compensated then Some node.id else None in
      { View.id = node.id; serial = View.mint t.serials; anchor; born = t.actions }
    in
    t.sends <- t.sends + 1;
    if Sf_prng.Rng.bernoulli t.rng t.loss_rate then t.losses <- t.losses + 1
    else receive t t.nodes.(target.View.id) (reinforcement :: sent_payload)
  end

let step t =
  t.actions <- t.actions + 1;
  initiate t (Sf_prng.Rng.choose t.rng t.nodes)

let run_rounds t rounds =
  for _ = 1 to rounds do
    for _ = 1 to Array.length t.nodes do
      step t
    done
  done

(* --- Measurement --- *)

let view_of node =
  let v = View.create (Array.length node.slots) in
  Array.iteri
    (fun i slot ->
      match slot with
      | Some { entry; marked = false } -> View.set v i entry
      | _ -> ())
    node.slots;
  v

let outdegree_summary t =
  let summary = Sf_stats.Summary.create () in
  Array.iter (fun node -> Sf_stats.Summary.add_int summary (degree node)) t.nodes;
  summary

let independence_census t =
  Census.of_views (Array.to_seq t.nodes |> Seq.map (fun n -> (n.id, view_of n)))

type counters = {
  actions : int;
  sends : int;
  losses : int;
  duplications : int;
  undeletions : int;
  deletions : int;
}

let counters t =
  let dup = Array.fold_left (fun a (n : node) -> a + n.duplications) 0 t.nodes in
  let und = Array.fold_left (fun a (n : node) -> a + n.undeletions) 0 t.nodes in
  let del = Array.fold_left (fun a (n : node) -> a + n.deletions) 0 t.nodes in
  {
    actions = t.actions;
    sends = t.sends;
    losses = t.losses;
    duplications = dup;
    undeletions = und;
    deletions = del;
  }

let is_weakly_connected t =
  let g = Sf_graph.Digraph.create () in
  Array.iter
    (fun node ->
      Sf_graph.Digraph.ensure_vertex g node.id;
      Array.iter
        (fun slot ->
          match slot with
          | Some { entry; marked = false } ->
            Sf_graph.Digraph.add_edge g node.id entry.View.id
          | _ -> ())
        node.slots)
    t.nodes;
  Sf_graph.Digraph.is_weakly_connected g
