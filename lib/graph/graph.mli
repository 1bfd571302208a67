(** Weighted undirected graphs in compressed sparse row form.

    Nodes are [0 .. n-1] (the paper's Algorithm 2 assumes exactly this
    ID space). Weights are positive integers. The structure is
    immutable after construction. *)

type t

val of_edges : n:int -> (int * int * int) list -> t
(** [of_edges ~n edges] builds the graph from undirected [(u, v, w)]
    triples. Raises [Invalid_argument] on self-loops, out-of-range
    endpoints, non-positive weights, or duplicate edges. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g u f] calls [f v w] for each edge [(u, v)] of
    weight [w]. *)

val neighbor_at : t -> int -> int -> int * int
(** [neighbor_at g u i] is the [i]-th incident [(neighbor, weight)] of
    [u], [0 <= i < degree g u]. O(1). *)

val neighbor_node : t -> int -> int -> int
(** [neighbor_node g u i] is the [i]-th neighbor of [u]. O(1) and
    allocation-free (no pair), for engine hot paths. *)

val neighbor_weight_at : t -> int -> int -> int
(** [neighbor_weight_at g u i] is the weight of [u]'s [i]-th incident
    edge. O(1) and allocation-free. *)

val neighbor_index : t -> int -> int -> int
(** [neighbor_index g u v] is the index of [v] in [u]'s adjacency list.
    Raises [Not_found] if [(u,v)] is not an edge. *)

val weight : t -> int -> int -> int
(** [weight g u v] is the weight of edge [(u, v)].
    Raises [Not_found] if absent. *)

val has_edge : t -> int -> int -> bool

val edges : t -> (int * int * int) list
(** Each undirected edge once, with [u < v]. *)

(** Streaming CSR construction for large graphs. [of_edges] routes
    every edge through an OCaml list and a dedup hashtable — fine at
    n = 4096, prohibitive at n = 10^6. The builder appends endpoints
    into flat int vectors and compiles them in one counting pass;
    peak transient memory is ~5 machine words per directed link and
    never O(n^2). *)
module Builder : sig
  type graph := t
  type t

  val create : ?expect_edges:int -> n:int -> unit -> t
  (** [expect_edges] preallocates the edge vectors (they still grow
      on demand). *)

  val add_edge : t -> int -> int -> int -> unit
  (** [add_edge b u v w] appends the undirected edge [(u, v)] of
      weight [w]. Raises [Invalid_argument] on self-loops,
      out-of-range endpoints, or non-positive weights. Duplicates are
      detected at {!build}, not here. *)

  val edge_count : t -> int

  val build : ?on_duplicate:[ `Reject | `Keep_first ] -> t -> graph
  (** Compile to CSR. Duplicate undirected edges either raise
      ([`Reject], the default, matching {!of_edges}) or keep the
      first-added copy ([`Keep_first] — what random generators want:
      resampling a present edge is a no-op). *)
end
