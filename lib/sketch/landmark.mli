(** Das Sarma et al. (2010) random-landmark distance sketches.

    [r = max(1, ⌊log₂ n⌋)] landmark sets per iteration, sizes
    [min(2^j, n)] for [j = 0..r-1], repeated for [k] independent
    iterations — [k·r] sets total, all sampled up-front from a single
    [Rng.create seed] stream so the choice is identical at every
    pool size. For each set one {!Ds_congest.Super_bf} run (the virtual
    super-node Bellman–Ford, Algorithm 1) teaches every node its
    closest landmark in the set and the exact distance; a node's
    sketch is the min-merged (landmark, distance) map over all sets.

    Two sketches estimate [d(u,v)] as the minimum of
    [d(u,ℓ) + d(ℓ,v)] over common landmarks [ℓ] — an upper bound
    (entry distances are exact), exact whenever some vertex on a true
    shortest [u–v] path is a common landmark of both. The size-[2^j]
    sweep is what makes a near-midpoint landmark likely at every
    distance scale. *)

val r : n:int -> int
(** [max 1 ⌊log₂ n⌋] — sets per iteration. *)

val sets : n:int -> k:int -> seed:int -> int array array
(** The [k·r] sampled landmark sets, in build order (iteration-major),
    each sorted increasing — exposed so tests and docs can name the
    exact sets a seed produces. *)

type result = {
  sketch : Sketch.t;  (** family {!Family.Landmark} *)
  metrics : Ds_congest.Metrics.t;
      (** sum over the [k·r] super-BF runs; one ["super-bf"] phase
          each *)
}

val run :
  ?pool:Ds_parallel.Pool.t ->
  ?tracer:Ds_congest.Trace.t ->
  ?obs:Ds_obs.Obs.t ->
  Ds_graph.Graph.t ->
  k:int ->
  seed:int ->
  result
(** Build the sketches. Deterministic in [(g, k, seed)]:
    byte-identical at any pool size. *)

val reference : Ds_graph.Graph.t -> k:int -> seed:int -> (int * int) array array
(** Sequential specification over the same {!sets}: per set a
    centralized multi-source Dijkstra (same lex tie-break as
    [Super_bf]), min-merged per node. Returns per-node
    [(landmark, dist)] arrays sorted by node id — exactly the entry
    arrays of [run]'s sketch. *)
