(** Fixed-capacity id rings backing the {!Strategy.Direct} per-node
    lead/recent state.  A bank holds [rings] rings of one capacity in flat
    arrays, so both engines (a bank per node sequentially, a bank per
    shard at scale) share one layout and one set of operations, and no
    operation allocates.  Cells hold ids ([>= 0]) or [-1] when empty. *)

type t
(** A bank of rings, updated in place. *)

val create : rings:int -> cap:int -> t
(** [rings] empty rings of capacity [cap]. *)

val mem : t -> int -> int -> bool
(** [mem b r v]: linear membership scan over ring [r]'s occupied cells. *)

val add : t -> int -> int -> unit
(** [add b r v] appends [v] to ring [r], overwriting the oldest cell when
    full.  Does not deduplicate — callers check {!mem} first. *)

val pop : t -> int -> int
(** [pop b r] removes and returns ring [r]'s oldest element, [-1] when the
    ring is empty. *)

val reset : t -> int -> unit
(** [reset b r] empties ring [r]. *)

val equal : t -> t -> bool
(** Same capacity, cells and cursors. *)
