(** Stretch and size evaluation against exact distances.

    Stretch of an estimate [d'] for true distance [d > 0] is [d'/d];
    a correct sketch never underestimates ([d' >= d]). For slack
    sketches the guarantee is restricted to ordered pairs [(u,v)]
    where [v] is ε-far from [u] (at least [εn] nodes are closer to
    [u] than [v] is). *)

type report = {
  pairs : int;
  violations : int;  (** estimates below the true distance (must be 0) *)
  unreachable : int;  (** infinite estimates (must be 0 for full sketches) *)
  max_stretch : float;
  avg_stretch : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val on_pairs : query:(int -> int -> int) -> (int * int * int) array -> report
(** [(u, v, true-distance)] triples; pairs at distance 0 are skipped. *)

val all_pairs : query:(int -> int -> int) -> Ds_graph.Apsp.t -> report

val far_pairs :
  Ds_graph.Apsp.t -> eps:float -> (int * int * int) array
(** All ordered pairs [(u, v, d(u,v))] with [v] ε-far from [u]. *)

val is_far : Ds_graph.Apsp.t -> eps:float -> int -> int -> bool

val size_summary : ('a -> int) -> 'a array -> Ds_util.Stats.summary
(** Summary of sketch sizes in words. *)
