(** Breadth-first search on the hop metric (weights ignored). *)

val hops : Graph.t -> src:int -> int array
(** Hop distances from [src]; [max_int] if unreachable. *)

val eccentricity : Graph.t -> src:int -> int
(** Maximum finite hop distance from [src]. *)
