(** Deterministic splittable pseudo-random generator (SplitMix64).

    Every distributed node gets its own independent stream via {!split},
    mirroring the paper's "each node flips local coins" while keeping
    whole runs reproducible from a single seed. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. *)

val mix : int -> int
(** [mix x] is a stateless avalanche hash of [x], non-negative. Lets
    callers derive reproducible per-event values (e.g. per-message
    link delays) from coordinates instead of from a shared stateful
    stream, which would make draw order — and hence results — depend
    on execution interleaving. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)


val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> float -> bool
(** [bool t p] is a Bernoulli trial with success probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t m n] picks [m] distinct ints from
    [\[0, n)], in increasing order. Requires [m <= n]. *)
