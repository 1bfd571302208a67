(** All-pairs exact distances (ground truth for stretch evaluation). *)

type t

val compute : ?pool:Ds_parallel.Pool.t -> Graph.t -> t
(** Dijkstra from every source; O(n m log n) time, O(n^2) space. The
    rows are independent, so they are fanned over [pool] (default
    sequential) one source per task; the result is identical for every
    pool size. *)

val dist : t -> int -> int -> int

val n : t -> int

val iter_pairs : t -> (int -> int -> int -> unit) -> unit
(** [iter_pairs t f] calls [f u v d] for every unordered pair [u < v]. *)

