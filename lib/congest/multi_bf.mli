(** Concurrent multi-source distributed Bellman–Ford with per-node
    acceptance bounds — the engine behind Algorithm 2 of the paper.

    Every source floods [(source, distance)] announcements. A node
    accepts an announcement only if the tie-broken distance beats its
    [bound] (the Thorup–Zwick bunch condition
    [(d, src) <lex (d(u, A_{i+1}), p_{i+1}(u))]); accepted improvements
    are re-broadcast, at most one announcement per node per round,
    scheduled through a FIFO of pending sources (equivalent to the
    paper's round-robin scheduler: a pending entry waits at most the
    number of simultaneously-pending sources, which is bounded by the
    bunch size).

    With [bound = Dist.none ... (infinity)] everywhere this degrades to
    the unrestricted k-Source Shortest Paths protocol used by the
    slack sketches (Theorem 4.3). This module runs phases to
    quiescence — the paper's "every node knows S" synchronisation
    (Section 3.2). The self-terminating variant lives in
    [Ds_core.Tz_echo]. *)

type state

val protocol :
  n:int -> is_source:(int -> bool) -> bound:(int -> int * int) ->
  (state, int) Engine.protocol
(** [bound u] is the tie-broken exclusive upper limit for node [u];
    use [fun _ -> Dist.none] for unrestricted flooding. Messages are
    {!Wire} words packed with the split of an [n]-node graph; a
    distance above {!Wire.max_dist} raises [Invalid_argument]. The
    model charge stays 2 words per message. *)

val found : state -> (int * int) list
(** [(source, distance)] pairs accepted by this node — exactly
    [{(w, d(u,w)) : (d(u,w), w) <lex bound u}] at quiescence. *)

val found_with_parents : state -> (int * int * int) list
(** [(source, distance, parent neighbor index)] triples; the parent is
    the neighbor whose announcement delivered the final distance, i.e.
    this node's parent in the source's cluster shortest-path tree
    ([-1] at the source itself). The union of these tree edges over
    all sources is the Thorup–Zwick spanner — the distributed
    construction gets it with zero extra communication. *)

val max_pending : state -> int
(** High-water mark of the pending-source FIFO (the quantity Lemma 3.7
    bounds by [O(n^{1/k} log n)]). *)

val codec : int Superstep.codec
(** Wire codec for the packed [(source, distance)] announcements: one
    wire word each ({!Wire.codec}). *)

val run :
  ?backend:Plane.backend -> ?pool:Ds_parallel.Pool.t -> ?shards:int ->
  ?tracer:Trace.t -> ?obs:Ds_obs.Obs.t -> Ds_graph.Graph.t ->
  sources:int list -> bound:(int -> int * int) ->
  (int * int) list array * Metrics.t
(** One-shot convenience wrapper; runs on either backend (identical
    results — see {!Plane}). *)
