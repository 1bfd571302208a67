(** Distributed Bellman–Ford from a "super node" (a set of sources).

    Algorithm 1 of the paper, run as if all sources were one virtual
    node: every node learns its distance to the closest source and the
    identity of that source, ties broken by (distance, source ID).
    Parent pointers and child sets of the resulting shortest-path
    forest are also computed (children learn of parent changes via
    claim/unclaim messages), which the CDG construction uses as the
    per-cell broadcast trees.

    Runs to quiescence: [O(S)] rounds, [O(|E| S)] messages worst case. *)

type result = {
  dist : int array;  (** distance to nearest source *)
  nearest : int array;  (** which source; lex tie-break *)
  parent : int array;  (** forest parent node ID; -1 at sources *)
  children : int list array;  (** forest children node IDs *)
}

type msg = private int
(** One immediate word: a 2-bit tag, and for an update a {!Wire}-packed
    [(source, distance)] above it. The model charge is 2 words for an
    update and 1 for a claim or unclaim. *)

val split : int -> Wire.split
(** The split of an [n]-node graph, with 2 tag bits reserved. *)

val update : Wire.split -> src:int -> dist:int -> msg
(** Raises [Invalid_argument] like {!Wire.pack}. *)

val claim : msg
val unclaim : msg

val tag : msg -> int
(** [0] for an update, [1] for a claim, [2] for an unclaim. *)

val update_src : Wire.split -> msg -> int
(** The source of an update (tag [0]). *)

val update_dist : Wire.split -> msg -> int
(** The distance of an update (tag [0]). *)

val run :
  ?pool:Ds_parallel.Pool.t -> ?jitter:Engine.jitter -> ?tracer:Trace.t ->
  ?obs:Ds_obs.Obs.t -> Ds_graph.Graph.t -> sources:int list ->
  result * Metrics.t
(** Bellman–Ford is self-stabilising to link delays, so the result is
    exact under [jitter] too. *)

val single_source :
  ?pool:Ds_parallel.Pool.t -> Ds_graph.Graph.t -> src:int ->
  int array * Metrics.t
(** Plain distributed Bellman–Ford (the on-demand baseline of
    experiment E8). *)
