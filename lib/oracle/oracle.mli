(** Compact immutable distance oracle over a built sketch set.

    The serving tier's entry point, family-polymorphic since the
    multi-family platform: an oracle wraps a {!Ds_sketch.Sketch.t} of
    any family and dispatches {!query} to that family's estimator —
    the Thorup–Zwick level scan, or the common-entry minimum for
    landmark / bottom-k sketches. Queries are answered from flat int
    arrays with no hashing, no boxing and no per-query allocation, and
    {!query_batch_flat} fans a flat pair array out across a
    {!Ds_parallel.Pool} with one result slot per index, so answers
    are bit-identical under any pool size.

    For family [tz], {!query} is query-equivalent to
    {!Ds_core.Label.query} (same level scan, same tie behaviour,
    pinned by test). *)

type t

val of_sketch : Ds_sketch.Sketch.t -> t
(** Serve any built sketch set — the family-polymorphic entry. A
    Thorup–Zwick label set goes through
    {!Ds_sketch.Sketch.of_tz_labels} first. *)

val of_store : Sketch_store.t -> t
(** Compile a loaded snapshot — the serving process's whole startup
    path: [load] then [of_store], any family. *)

val family : t -> Ds_sketch.Family.t

val n : t -> int
(** Node count; valid query endpoints are [0 .. n-1]. *)

val size_words : t -> int
(** Total size in the paper's units: the sum of per-node sketch sizes. *)

val bunch_dist : t -> int -> int -> int option
(** [bunch_dist t u w] is [d(u,w)] when [w] is an entry of [u]'s
    sketch (bunch / landmark set / ADS) — one binary search. *)

val query : t -> int -> int -> int
(** Family-dispatched estimate; see {!Ds_sketch.Sketch.estimate}.
    [Ds_graph.Dist.infinity] when the sketches share no usable
    evidence. Raises [Invalid_argument] on out-of-range endpoints. *)

val query_bidirectional : t -> int -> int -> int
(** [tz]: minimum triangle estimate over every level and both
    directions. Other families: same as {!query}. *)

val query_probes : t -> int -> int -> int * int
(** [(estimate, probes)] where [probes] counts the array lookups the
    query performed — a deterministic per-query work measure, used by
    experiment E8 to put the local oracle next to the in-network
    exchange without a wall clock. *)

val query_batch_flat :
  ?pool:Ds_parallel.Pool.t -> ?obs:Ds_obs.Obs.t -> t -> int array -> int array
(** Answer every pair of the flat layout of {!Workload.pairs_flat}
    (pair [i] at indices [2i], [2i+1]), fanning out across the pool
    (default sequential). Result slot [i] depends only on pair [i], so
    the output is identical for every pool size. Endpoints are inline
    ints (no tuple pointer chase) and work is dealt in 8-pair blocks,
    so each domain's result writes are cache-line aligned (bench
    B12). [obs] counts answered queries on the [oracle.queries]
    counter and on the per-family [oracle.queries{family=…}]
    breakdown, one add each per chunk. Raises [Invalid_argument] on an
    odd-length array. *)

type batch_stats = {
  pairs : int;
  elapsed_ns : float;  (** wall-clock of the parallel batch *)
  qps : float;  (** pairs / elapsed seconds *)
  latency_ns : Ds_util.Stats.summary;
      (** distribution of single-query latencies, measured over a
          sequential sample of the batch (timing inside the parallel
          loop would perturb it) *)
}

val run_batch_flat :
  ?pool:Ds_parallel.Pool.t ->
  ?obs:Ds_obs.Obs.t ->
  ?latency_sample:int ->
  t ->
  int array ->
  int array * batch_stats
(** {!query_batch_flat} plus timing: the whole batch is timed once for
    throughput, then up to [latency_sample] (default 1024) queries are
    re-run sequentially one-by-one for the latency distribution. The
    returned answers are those of the parallel run. *)
