(** Compact immutable sketch container, shared by every family.

    One flat layout serves all three families: an optional node-major
    pivot table (Thorup–Zwick only) plus per-node entry slices behind a
    cumulative offset table, each entry a [(node, dist)] pair with the
    node ids strictly increasing inside a slice. For [Tz] the entries
    are the bunch; for [Landmark] they are the per-node (landmark,
    exact dist) map merged over all [k·r] sets; for [Bottomk] they are
    the bottom-k all-distance sketch. The family tag dispatches the
    estimator: level scan with triangle estimates for [Tz], a
    merge-intersection [min d(u,w) + d(w,v)] over common entries for
    the other two.

    The payload lives behind one of two backings: plain heap [int
    array]s (built sketches, heap snapshot loads) or a [Bigarray]
    word window mapped straight over a v3 snapshot file
    ([Sketch_store.load ~mode:Mmap] — zero copies, the page cache is
    the working set). The hot estimators are compiled once per backing
    (no per-access indirect call); cold accessors dispatch per access.

    Queries are allocation-free (top-level tail recursions over plain
    ints — see the note in [lib/oracle/oracle.ml] about minor-heap
    stalls serialising batch domains), so this is the serving-path
    representation as well as the snapshot one. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Word window over a mapped snapshot: OCaml ints stored untagged,
    one 64-bit little-endian word each — exactly the v3 file words. *)

type t

val of_tz_labels : Ds_core.Label.t array -> t
(** Compile a Thorup–Zwick label set (family [Tz]). Requires
    [labels.(i).owner = i] and a uniform [k]; raises
    [Invalid_argument] otherwise. *)

val v : family:Family.t -> k:int -> (int * int) array array -> t
(** [v ~family ~k entries] builds a non-TZ sketch from per-node
    [(node, dist)] entry arrays, each sorted strictly increasing by
    node id. Raises [Invalid_argument] on family [Tz] (use
    {!of_tz_labels}), an empty node set, unsorted/duplicate entries,
    out-of-range entry nodes, or negative distances. *)

val of_arrays :
  family:Family.t ->
  k:int ->
  pivot_dist:int array ->
  pivot_node:int array ->
  off:int array ->
  ent_node:int array ->
  ent_dist:int array ->
  t
(** Validating constructor over the flat arrays themselves — the
    heap snapshot-load path. Checks array-length coherence, offset
    monotonicity, per-slice entry order and (for [Tz]) that no pivot
    distance is negative and every finite pivot names an in-range
    node; raises [Invalid_argument]
    with a ["Sketch.of_arrays: …"] message on any violation. *)

val of_mapped :
  family:Family.t -> k:int -> n:int -> total:int -> buf:buf -> off_at:int -> t
(** Zero-copy constructor over a mapped word window. [off_at] is the
    word index of the offset table; the pivot and entry sections
    follow contiguously in the v3 section order (off words, then
    interleaved [(dist, node)] pivot pairs, then interleaved
    [(node, dist)] entry pairs). Validates the structural metadata —
    section bounds against the window, [off.(0) = 0], monotone
    offsets, [off.(n) = total], pivot distances non-negative and
    finite pivot nodes in range — so no
    query can index outside the mapping; the entry payload itself is
    served as-is (the full-file checksum belongs to the heap loader).
    Raises [Invalid_argument] on any violation. *)

val family : t -> Family.t
val n : t -> int
val k : t -> int

val total_entries : t -> int
(** Number of [(node, dist)] entry pairs across all slices
    ([off.(n)]). *)

val pivot_pairs : t -> int
(** Number of [(dist, node)] pivot pairs: [n·k] for [Tz], 0
    otherwise. *)

val mapped_bytes : t -> int
(** Size in bytes of the mapped window backing this sketch; 0 for a
    heap-backed sketch. *)

val iter_section_words : t -> (int -> unit) -> unit
(** Feed the canonical snapshot section word stream to [f], in the
    on-disk order: [n+1] offset words, the interleaved pivot pairs,
    the interleaved entry pairs. Backing-independent — serialising a
    mapped sketch reproduces the bytes it was mapped from. *)

val size_words : t -> int
(** Total size in the paper's units: two words per pivot plus two
    words per entry. *)

val node_size_words : t -> int -> int
(** One node's share of {!size_words}. *)

val find : t -> int -> int -> int
(** [find t u w] is the entry distance of [w] in node [u]'s slice
    (bunch/landmark/ADS membership), [Ds_graph.Dist.infinity] when
    absent. One binary search. *)

val node_entries : t -> int -> (int * int) array
(** Fresh [(node, dist)] array of node [u]'s slice, in node-id order —
    test/debug accessor, allocates. *)

val estimate : t -> int -> int -> int
(** Family-dispatched point-to-point estimate; [Dist.infinity] when
    the sketches share no usable evidence. [Tz]: the Lemma 3.2 level
    scan (identical to the pre-platform [Oracle.query]) — per level,
    the best of two membership probes into the sorted entry slices,
    stopping at the first populated level. [Landmark] / [Bottomk]:
    min over common entries [w] of [d(u,w) + d(w,v)], computed as a
    merge intersection of the two sorted slices (linear when
    balanced, galloping through the long side when skewed) — always
    an upper bound on the true distance, exact whenever some
    shortest-path vertex is a common entry. Raises
    [Invalid_argument] on out-of-range endpoints. *)

val estimate_bidirectional : t -> int -> int -> int
(** [Tz]: minimum triangle estimate over every level and both
    directions. Other families: same as {!estimate} (the
    merge-intersection is already symmetric and exhaustive). *)

val estimate_probes : t -> int -> int -> int * int
(** [(estimate, probes)] where [probes] counts array lookups (pivot
    loads plus binary-search or merge-scan comparisons) — the
    deterministic work measure experiment E8 uses. Kept on the
    original binary-search scan so the counts match the committed
    E8 tables exactly; the estimate agrees with {!estimate}. *)

val equal : t -> t -> bool
(** Structural equality of family, shape and all payload words,
    across backings (a mapped sketch equals its heap twin). *)
