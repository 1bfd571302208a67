(** (ε,k)-CDG sketches (paper Section 4, Lemma 4.4/4.5, Theorem 4.6).

    Thorup–Zwick run on an ε-density net [N] ([A_0 = N], promotion
    probability [((10/ε) ln n)^{-1/k}]); the sketch of [u] is its
    nearest net node [u'], the distance [d(u,u')], and the TZ label of
    [u'] over the net metric. For pairs where [v] is ε-far from [u]
    the estimate [d(u,u') + tz(u',v') + d(v',v)] has stretch at most
    [8k - 1]. Construction: density-net sampling (free), super-source
    Bellman–Ford, Algorithm 2 over the net hierarchy, and a cell
    broadcast delivering [L(u')] to every [u]. *)

type sketch = {
  owner : int;
  nearest : int;  (** u' *)
  nearest_dist : int;  (** d(u, u') *)
  net_label : Label.t;  (** L(u') — what the paper's sketch stores *)
  own_label : Label.t;
      (** u's own label over the net hierarchy — a by-product of
          Algorithm 2 used by the {!query_direct} ablation; not charged
          to {!size_words}. *)
}

val size_words : sketch -> int
(** 2 words (nearest ID and distance) + the net label. *)

val query : sketch -> sketch -> int
(** The paper's estimate [d(u,u') + tz(L(u'), L(v')) + d(v',v)]. *)

val query_direct : sketch -> sketch -> int
(** Ablation: TZ query directly on the endpoints' own net-hierarchy
    labels (no net detour). *)

type result = {
  sketches : sketch array;
  net : int list;
  net_levels : Levels.t;
  metrics : Ds_congest.Metrics.t;  (** everything, transfer included *)
  transfer_metrics : Ds_congest.Metrics.t;  (** the cell-broadcast share *)
}

val net_sampling_probability : n:int -> eps:float -> k:int -> float
(** The level-promotion probability over the net,
    [((10/ε) ln n)^{-1/k}]. *)

val build_distributed :
  ?pool:Ds_parallel.Pool.t -> rng:Ds_util.Rng.t -> Ds_graph.Graph.t ->
  eps:float -> k:int -> result
(** The full pipeline with honest CONGEST accounting: net sampling,
    super-source Bellman–Ford, Algorithm 2 on the net hierarchy, and
    the {!Cell_cast} label transfer ([transfer_metrics] is that last
    share). *)

val build_centralized :
  rng:Ds_util.Rng.t -> Ds_graph.Graph.t -> eps:float -> k:int ->
  sketch array
(** Same construction from exact distances (oracle for tests). *)
