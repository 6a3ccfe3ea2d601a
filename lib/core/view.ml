(* Local views: fixed arrays of s slots, each empty or holding one id
   instance (section 2 of the paper).  Duplicate ids are allowed — the
   membership graph is a multigraph — and are accounted as dependencies.

   Each stored instance carries bookkeeping that realizes the paper's
   analysis concepts mechanically:
   - [serial]: a unique instance number, preserved when the instance is
     forwarded and fresh when an instance is created (reinforcement or
     duplication).  Instance decay (Lemma 6.9, Fig 6.4) and temporal
     independence (Property M5) are measured by following serials.
   - [anchor]: the node whose view the instance depends on when it was
     created by a duplication there (Property M4).  Forwarding an instance
     without duplication clears the anchor, matching the dependence MC of
     Fig 7.1.
   - [born]: the creation clock, for age statistics.

   Representation: [Flat] packs the views of a whole world into four
   contiguous unboxed int arrays (ids, serials, anchors, born stamps) plus
   a cached degree per node; a slot is empty when its id is -1 and an
   anchor of -1 encodes "none".  A single view is a one-node [Flat], so
   the S&F step rule below — defined once, over this layout — serves the
   per-node engines and the million-node engine alike. *)

type entry = {
  id : int;
  serial : int;
  anchor : int option;
  born : int;
}

(* Serial minting: [next], then [next + stride], ...  Engines that mint
   concurrently (the shards of one world, the processes of one cluster)
   use distinct offsets and a common stride, so serials never collide. *)
type minter = { mutable next : int; stride : int }

let mint m =
  let s = m.next in
  m.next <- s + m.stride;
  s

(* Index of the empty cell ([ids.(i) < 0]) that is the [remaining]-th
   (0-based) at or after [i]; the caller guarantees it exists.  Top-level,
   so a scan builds no closure. *)
let rec nth_empty ids i remaining =
  if ids.(i) >= 0 then nth_empty ids (i + 1) remaining
  else if remaining = 0 then i
  else nth_empty ids (i + 1) (remaining - 1)

module Flat = struct
  type t = {
    nodes : int;
    view_size : int;
    f_ids : int array;      (* nodes * view_size; -1 = empty *)
    f_serials : int array;
    f_anchors : int array;  (* -1 = no anchor *)
    f_born : int array;
    degrees : int array;    (* per-node cached occupied-slot counts *)
  }

  let create ~nodes ~view_size =
    if nodes < 1 then invalid_arg "View.Flat.create: need at least one node";
    if view_size < 2 then invalid_arg "View.Flat.create: view_size must be at least 2";
    {
      nodes;
      view_size;
      f_ids = Array.make (nodes * view_size) (-1);
      f_serials = Array.make (nodes * view_size) 0;
      f_anchors = Array.make (nodes * view_size) (-1);
      f_born = Array.make (nodes * view_size) 0;
      degrees = Array.make nodes 0;
    }

  let node_count t = t.nodes
  let view_size t = t.view_size
  let degree t u = t.degrees.(u)

  let id_at t u slot = t.f_ids.((u * t.view_size) + slot)
  let serial_at t u slot = t.f_serials.((u * t.view_size) + slot)
  let anchor_at t u slot = t.f_anchors.((u * t.view_size) + slot)
  let born_at t u slot = t.f_born.((u * t.view_size) + slot)

  let set t u slot ~id ~serial ~anchor ~born =
    if id < 0 then invalid_arg "View.Flat.set: negative id";
    let i = (u * t.view_size) + slot in
    if t.f_ids.(i) < 0 then t.degrees.(u) <- t.degrees.(u) + 1;
    t.f_ids.(i) <- id;
    t.f_serials.(i) <- serial;
    t.f_anchors.(i) <- anchor;
    t.f_born.(i) <- born

  let clear t u slot =
    let i = (u * t.view_size) + slot in
    if t.f_ids.(i) >= 0 then begin
      t.f_ids.(i) <- -1;
      t.degrees.(u) <- t.degrees.(u) - 1
    end

  (* Uniformly random empty slot of node [u], -1 when the view is full:
     one draw over the free-slot count, then a scan to that empty slot.
     The receive step of S&F places ids in uniformly chosen empty
     slots. *)
  let random_empty_slot t u rng =
    let free = t.view_size - t.degrees.(u) in
    if free = 0 then -1
    else begin
      let base = u * t.view_size in
      nth_empty t.f_ids base (Sf_prng.Rng.int rng free) - base
    end

  let recount_degree t u =
    let base = u * t.view_size in
    let occupied = ref 0 in
    for slot = 0 to t.view_size - 1 do
      if t.f_ids.(base + slot) >= 0 then incr occupied
    done;
    !occupied

  let total_edges t = Array.fold_left ( + ) 0 t.degrees

  let equal a b =
    a.nodes = b.nodes && a.view_size = b.view_size && a.f_ids = b.f_ids
    && a.f_serials = b.f_serials && a.f_anchors = b.f_anchors
    && a.f_born = b.f_born && a.degrees = b.degrees

  (* --- The S&F step rule (Figure 5.1) ---

     Defined once, here, for every engine.  It lives in the compilation
     unit that owns the layout because dune's dev profile compiles with
     [-opaque]: no call into another unit is inlined, and the slot
     accessors above sit on the million-node hot path. *)

  type packet = {
    mutable dst : int;
    mutable dup : bool;
    mutable src : int;
    mutable r_serial : int;
    mutable r_anchor : int;
    mutable r_born : int;
    mutable m_id : int;
    mutable m_serial : int;
    mutable m_anchor : int;
    mutable m_born : int;
  }

  let packet () =
    {
      dst = -1;
      dup = false;
      src = -1;
      r_serial = 0;
      r_anchor = -1;
      r_born = 0;
      m_id = -1;
      m_serial = 0;
      m_anchor = -1;
      m_born = 0;
    }

  (* Initiate at u: select two distinct slots uniformly over the
     allocated view — a retuned node's live s may sit below it, and
     entries parked in high slots must stay reachable.  An empty slot
     makes the action a self-loop.  Otherwise [u, w] goes to v (the ids
     in the two slots) and both slots are cleared, unless d(u) <= dL:
     then they are duplicated, and the receiver gets fresh copies
     anchored at the sender, whose own copies stay behind.  The
     reinforcement is always a fresh instance of the sender's id; it is
     minted before the duplicated copy. *)
  let initiate t u ~self rng ~dl ~serials ~born p =
    let s = t.view_size in
    let i = Sf_prng.Rng.int rng s in
    let j = Sf_prng.Rng.int_except rng s i in
    let base = u * s in
    let target = t.f_ids.(base + i) and forwarded = t.f_ids.(base + j) in
    if target < 0 || forwarded < 0 then false
    else begin
      let dup = t.degrees.(u) <= dl in
      p.dst <- target;
      p.dup <- dup;
      p.src <- self;
      p.r_serial <- mint serials;
      p.r_born <- born;
      p.m_id <- forwarded;
      if dup then begin
        p.r_anchor <- self;
        p.m_serial <- mint serials;
        p.m_anchor <- self;
        p.m_born <- born
      end
      else begin
        (* Forwarded without duplication: the instance moves with its
           serial and birth, and becomes independent (Fig 7.1). *)
        p.r_anchor <- -1;
        p.m_serial <- t.f_serials.(base + j);
        p.m_anchor <- -1;
        p.m_born <- t.f_born.(base + j);
        clear t u i;
        clear t u j
      end;
      true
    end

  (* Receive at v: place both ids in uniformly chosen empty slots when
     the live s leaves room for two (s - d >= 2, so the outdegree never
     passes s); otherwise delete both.  An [s] above the allocation
     counts as the allocation. *)
  let receive t v rng ~s p =
    let s = if s < t.view_size then s else t.view_size in
    if s - t.degrees.(v) < 2 then false
    else begin
      let slot = random_empty_slot t v rng in
      set t v slot ~id:p.src ~serial:p.r_serial ~anchor:p.r_anchor ~born:p.r_born;
      let slot = random_empty_slot t v rng in
      set t v slot ~id:p.m_id ~serial:p.m_serial ~anchor:p.m_anchor ~born:p.m_born;
      true
    end
end

(* --- A single view: a one-node [Flat] ---

   Node 0's slot [i] is cell [i] of each array, so the accessors below
   index the arrays directly. *)

type t = Flat.t

let create size =
  if size < 2 then invalid_arg "View.create: size must be at least 2";
  Flat.create ~nodes:1 ~view_size:size

let size (t : t) = t.view_size
let degree (t : t) = t.degrees.(0)
let is_full t = degree t = size t
let free_slots t = size t - degree t
let id_at (t : t) i = t.f_ids.(i)

let get (t : t) i =
  let id = t.f_ids.(i) in
  if id < 0 then None
  else
    let a = t.f_anchors.(i) in
    Some
      {
        id;
        serial = t.f_serials.(i);
        anchor = (if a < 0 then None else Some a);
        born = t.f_born.(i);
      }

let set t i entry =
  if entry.id < 0 then invalid_arg "View.set: negative id";
  Flat.set t 0 i ~id:entry.id ~serial:entry.serial
    ~anchor:(match entry.anchor with None -> -1 | Some a -> a)
    ~born:entry.born

let clear t i = Flat.clear t 0 i

let clear_all t =
  for i = 0 to size t - 1 do
    clear t i
  done

let random_empty_slot t rng =
  let slot = Flat.random_empty_slot t 0 rng in
  if slot < 0 then None else Some slot

let iter f t =
  for i = 0 to size t - 1 do
    match get t i with Some e -> f i e | None -> ()
  done

let fold f init t =
  let acc = ref init in
  iter (fun _ e -> acc := f !acc e) t;
  !acc

let ids t = List.rev (fold (fun acc e -> e.id :: acc) [] t)

let mem t id = fold (fun acc e -> acc || e.id = id) false t

let count_id t id = fold (fun acc e -> if e.id = id then acc + 1 else acc) 0 t

let entries t = List.rev (fold (fun acc e -> e :: acc) [] t)

let pp ppf t =
  Fmt.pf ppf "[";
  for i = 0 to size t - 1 do
    if i > 0 then Fmt.pf ppf " ";
    let id = id_at t i in
    if id < 0 then Fmt.pf ppf "." else Fmt.pf ppf "%d" id
  done;
  Fmt.pf ppf "]"
