(** Stretch-3 sketches with ε-slack (paper Theorem 4.3).

    The sketch of [u] is its distance to every node of an ε-density
    net; the estimate for [(u,v)] is [min_w (d(u,w) + d(w,v))] over net
    nodes [w]. For every pair where [v] is ε-far from [u] the estimate
    is within a factor 3 of [d(u,v)]; sketches have [O((1/ε) log n)]
    words and are built by one run of multi-source distributed
    Bellman–Ford from the net in [O(S·(1/ε) log n)] rounds. *)

type sketch = {
  owner : int;
  entries : (int * int) array;  (** (net node, distance), sorted by ID *)
}

val size_words : sketch -> int
(** Two words (net node ID, distance) per entry. *)

val query : sketch -> sketch -> int
(** [min_w (d(u,w) + d(w,v))]; infinity only if the nets differ. *)

type result = {
  sketches : sketch array;
  net : int list;
  metrics : Ds_congest.Metrics.t;
}

val build_distributed :
  ?pool:Ds_parallel.Pool.t -> rng:Ds_util.Rng.t -> Ds_graph.Graph.t ->
  eps:float -> result
(** Samples the ε-density net locally, then one multi-source
    Bellman–Ford from the whole net; [metrics] is the full CONGEST
    cost of that run. *)

val build_centralized :
  Ds_graph.Graph.t -> net:int list -> sketch array
(** Dijkstra-based oracle for correctness tests. *)
