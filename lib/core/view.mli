(** Local views: fixed arrays of [s] slots holding id instances
    (paper, section 2), and the S&F step rule over them.

    Instances carry a unique [serial] (followed for decay and temporal
    independence measurements), an optional [anchor] (the node whose view
    the instance depends on, set by duplication — Property M4), and a
    [born] creation stamp.

    {!Flat} packs whole worlds of views into contiguous unboxed int
    arrays, with no per-node or per-entry heap objects; a single view
    ({!t}) is a one-node {!Flat}.  {!entry} values are materialized on
    demand by {!get}/{!iter}/{!fold}; hot paths that only need ids can use
    the allocation-free {!id_at}. *)

type entry = {
  id : int;
  serial : int;
  anchor : int option;
  born : int;
}

type minter = { mutable next : int; stride : int }
(** A serial minter: hands out [next], [next + stride], [next + 2 * stride],
    ...  Engines minting side by side (the shards of one world, the
    processes of one cluster) share a stride and use distinct starting
    offsets below it, so their serials never collide. *)

val mint : minter -> int

(** Packed whole-world views: every view of an [n]-node world in four
    contiguous unboxed int arrays indexed by [node * view_size + slot],
    plus a cached per-node degree array.  A slot is empty when its id is
    [-1]; an anchor of [-1] encodes "none".  This is the state layout of
    the sharded engine ({!Sf_core.Sharded}): a million-node world is a
    handful of flat arrays the GC never walks. *)
module Flat : sig
  type t

  val create : nodes:int -> view_size:int -> t
  (** All slots empty.  O(nodes * view_size) words, allocated once. *)

  val node_count : t -> int
  val view_size : t -> int

  val degree : t -> int -> int
  (** [degree t u]: cached outdegree of node [u]. *)

  val id_at : t -> int -> int -> int
  (** [id_at t u slot]: id in the slot, or [-1] when empty. *)

  val serial_at : t -> int -> int -> int
  val anchor_at : t -> int -> int -> int
  (** [-1] when the instance has no anchor. *)

  val born_at : t -> int -> int -> int

  val set :
    t -> int -> int -> id:int -> serial:int -> anchor:int -> born:int -> unit
  (** [set t u slot ~id ~serial ~anchor ~born] installs an instance
      ([anchor] is [-1] for none).  Raises [Invalid_argument] on a
      negative id. *)

  val clear : t -> int -> int -> unit

  val random_empty_slot : t -> int -> Sf_prng.Rng.t -> int
  (** Uniformly random empty slot of node [u], [-1] when full: one
      {!Sf_prng.Rng.int} draw over the free-slot count (none when full),
      then a scan to that empty slot.  Allocates nothing. *)

  val recount_degree : t -> int -> int
  (** Occupied-slot recount for node [u] — the audit cross-check for the
      cached degree array. *)

  val total_edges : t -> int
  (** Sum of all outdegrees (recomputed from the degree array). *)

  val equal : t -> t -> bool
  (** Bit-for-bit store equality — the domain-count determinism oracle. *)

  (** {2 The S&F step rule (paper, Figure 5.1)}

      The one definition of the two atomic steps, used by
      {!Sf_core.Protocol} (and through it the sequential runner and the
      UDP driver) and by {!Sf_core.Sharded}.  Neither step allocates. *)

  type packet = {
    mutable dst : int;  (** destination: the id in the first selected slot *)
    mutable dup : bool;  (** the sender duplicated instead of clearing *)
    mutable src : int;  (** reinforcement id: the sender's own id *)
    mutable r_serial : int;
    mutable r_anchor : int;  (** [-1] for none *)
    mutable r_born : int;
    mutable m_id : int;  (** mixing id: the forwarded id *)
    mutable m_serial : int;
    mutable m_anchor : int;  (** [-1] for none *)
    mutable m_born : int;
  }
  (** One S&F message [[u, w]] as plain ints: the reinforcement instance
      ([u], fields [src]/[r_*]) and the mixing instance ([w], [m_*]). *)

  val packet : unit -> packet
  (** A scratch packet for {!initiate} to fill. *)

  val initiate :
    t ->
    int ->
    self:int ->
    Sf_prng.Rng.t ->
    dl:int ->
    serials:minter ->
    born:int ->
    packet ->
    bool
  (** [initiate t u ~self rng ~dl ~serials ~born p] runs the initiate step
      at node [u], whose id is [self].  Two distinct slots are drawn
      uniformly over the allocated view ({!Sf_prng.Rng.int}, then
      {!Sf_prng.Rng.int_except}).  If either is empty the action is a
      self-loop: [false], nothing else changes.  Otherwise [p] receives
      the message and the result is [true]: the reinforcement is a fresh
      instance of [self] (serial minted from [serials], born [born]);
      when [degree t u <= dl] both slots are kept and the mixing instance
      is a fresh copy (minted after the reinforcement, born [born]), both
      anchored at [self]; otherwise both slots are cleared and the mixing
      instance moves with its serial and birth, both unanchored. *)

  val receive : t -> int -> Sf_prng.Rng.t -> s:int -> packet -> bool
  (** [receive t v rng ~s p] runs the receive step at node [v] under the
      live view size [s] (an [s] above the allocation counts as the
      allocation).  When [s - degree t v >= 2] both instances go into
      uniformly drawn empty slots, reinforcement first, and the result is
      [true]; otherwise both are deleted: [false], nothing changes. *)
end

type t = Flat.t
(** A single view: a one-node {!Flat} (node index [0]). *)

val create : int -> t
(** [create s] makes an all-empty view of [s] slots. *)

val size : t -> int

val degree : t -> int
(** d(u): number of non-empty slots (cached; audited against a recount by
    [Sf_check]). *)

val is_full : t -> bool

val free_slots : t -> int

val get : t -> int -> entry option
val set : t -> int -> entry -> unit
val clear : t -> int -> unit
val clear_all : t -> unit

val id_at : t -> int -> int
(** [id_at t i] is the id in slot [i], or [-1] when the slot is empty.
    Allocation-free — the sampling facade's hot path. *)

val random_empty_slot : t -> Sf_prng.Rng.t -> int option
(** {!Flat.random_empty_slot} on the one node; the [Some] result is its
    only allocation. *)

val iter : (int -> entry -> unit) -> t -> unit
(** Iterate non-empty slots as [f slot entry]. *)

val fold : ('a -> entry -> 'a) -> 'a -> t -> 'a

val ids : t -> int list
(** Ids of all instances, in slot order (with duplicates). *)

val mem : t -> int -> bool
val count_id : t -> int -> int
val entries : t -> entry list

val pp : Format.formatter -> t -> unit
