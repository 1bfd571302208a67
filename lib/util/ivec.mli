(** Growable int vector with reusable storage.

    Unlike a list, clearing keeps the backing array, so a vector that
    is filled and drained every simulation round settles at its
    high-water capacity and stops allocating. Used by the CONGEST
    engine for its active-link worklist and per-round run lists. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int

val capacity : t -> int
(** Backing-array size in words (>= {!length}); memory accounting. *)

val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit

val clear : t -> unit
(** Drops all elements; keeps the backing storage. *)

val truncate : t -> int -> unit
(** [truncate t len] keeps the first [len] elements (used for in-place
    compaction). *)

val sort : t -> unit
(** In-place ascending sort. Allocation-free (no comparator closure,
    no scratch), so it is safe in the engine's zero-alloc round path;
    not stable, which is irrelevant for ints. *)

val sort_flagged : t -> Bytes.t -> lo:int -> hi:int -> unit
(** [sort_flagged t flags ~lo ~hi] sorts [t], whose elements must be
    exactly the indices in [\[lo, hi)] whose byte in [flags] is
    nonzero. When [t] holds at least a 64th of the range it is
    rebuilt by one scan of the flags, which then beats {!sort};
    otherwise it is sorted in place, so the cost stays proportional to
    [t] when it is short. Allocation-free; same result either way. *)
