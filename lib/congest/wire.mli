(** [(source, distance)] announcements as one immediate [int].

    The Bellman–Ford family ({!Multi_bf}, {!Super_bf}, bottom-k) ships
    [(src, dist)] pairs. Packing each pair into one unboxed word keeps
    sends, ring slots and inbox slots free of heap blocks. The word is
    [dist lsl src_bits lor src], with the split fixed once per protocol
    instance from the node count [n]: [src] gets [⌈log₂ n⌉] bits and
    [dist] the rest of the 62 non-negative bits, minus any tag bits the
    protocol reserves below the pair. The model charge ([msg_words])
    does not change: packing is how the simulator stores a message,
    not a bandwidth claim. *)

type split
(** A fixed [(src, dist)] bit split. *)

val split : ?tag_bits:int -> int -> split
(** [split ?tag_bits n]: [src] gets [⌈log₂ n⌉] bits (0 when [n <= 1]),
    [dist] gets [62 - tag_bits - src_bits]. Raises [Invalid_argument]
    when no bit is left for [dist]. *)

val max_dist : split -> int
(** The largest distance {!pack} accepts. *)

val pack : split -> src:int -> dist:int -> int
(** The packed word, in [\[0, 2^(62 - tag_bits))]. Raises
    [Invalid_argument] when [dist] is negative or above {!max_dist},
    or [src] is outside [\[0, 2^src_bits)]; it never wraps. *)

val src : split -> int -> int
(** The source field of a packed word. *)

val dist : split -> int -> int
(** The distance field of a packed word. *)
