(** Deterministic pseudo-random number generation (Xoshiro256** seeded via
    SplitMix64).

    Every stochastic component of the repository draws from an explicit
    generator state, so all experiments are reproducible from their seeds.
    Use {!split} to derive independent sub-streams for concurrent
    components. *)

type t
(** Mutable generator state.  {!int}, {!int_range}, {!int_except},
    {!bool} and {!bernoulli} allocate nothing; {!next_int64} and {!float}
    allocate only their boxed result. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val of_seed64 : int64 -> t
(** [of_seed64 seed] builds a generator from a full 64-bit seed. *)

val split : t -> t
(** [split t] derives an independent child generator, advancing [t]. *)

val copy : t -> t
(** [copy t] snapshots the generator state. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0,1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); unbiased.  Every positive
    int, up to [max_int], is a valid bound.  Raises [Invalid_argument] for
    non-positive bounds. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in [lo, hi] inclusive.  The range may
    hold at most [max_int] values ([hi - lo < max_int]); raises
    [Invalid_argument] when [hi < lo] or when the range is wider, as in
    [int_range t 0 max_int] or [int_range t min_int max_int]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] succeeds with probability [p]. *)

val int_except : t -> int -> int -> int
(** [int_except t n i] is uniform over the indices of [0, n) other than
    [i] (one {!int} draw over [n - 1]).  Raises [Invalid_argument] when
    [n < 2]. *)

val distinct_pair : t -> int -> int * int
(** [distinct_pair t n] draws an ordered pair of distinct indices uniformly
    from [0, n); this is exactly the entry selection of S&F-InitiateAction.
    It is [let i = int t n in (i, int_except t n i)]; hot loops that must
    not allocate the pair make those two calls themselves. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_indices : t -> n:int -> k:int -> int array
(** [sample_indices t ~n ~k] draws [k] distinct indices from [0, n). *)

val exponential : t -> float -> float
(** Exponential variate with the given rate. *)

val geometric : t -> float -> int
(** Failures before first success with the given success probability. *)

val categorical : t -> float array -> int
(** Index distributed according to an unnormalized weight vector. *)
