(** The serving loop: sharded request queues, batched admission, a
    hot-pair cache, and open-loop load generation over {!Oracle}.

    {!Oracle.query_batch_flat} is a one-shot fan-out: split a batch,
    answer it, return. A serving tier does more — it runs long-lived
    workers against a request {e stream}, admits work in batches to
    amortize dispatch, caches the hot pairs a skewed (Zipf) workload
    repeats, and measures the latency a client would actually see
    under a given arrival rate, queueing included. This module is that
    loop, kept deterministic enough to pin in CI:

    - {b Per-worker queues.} The request stream is cut into admission
      blocks of [batch] pairs; block [j] belongs to worker
      [j mod workers], where one worker runs per pool domain. The
      assignment is static, so which worker serves which request — and
      therefore every cache's contents and every per-worker counter —
      is a pure function of (stream, pool width, config), independent
      of timing. No cross-worker state is touched in the hot loop:
      workers write disjoint block-aligned slices of the result and
      latency arrays and keep their counters in domain-local state,
      published once at the end (the B12 lesson: shared result rows
      and per-index dispatch are what made the old batch path flat).
    - {b Batched admission.} A worker dequeues one block at a time and
      serves it in a tight loop: one clock read and one dispatch per
      [batch] pairs instead of per pair.
    - {b Hot-pair cache.} Per worker (never shared, never locked): a
      direct-mapped table of [2^cache_bits] slots keyed on the packed
      pair [u·n + v]. A hit returns the value a previous {!Oracle.query}
      of the same pair produced, so cached and uncached answers are
      byte-identical — pinned by test, and the reason results stay
      fingerprint-stable across every (pool, cache) configuration.
    - {b Open-loop load.} With [rate > 0], request [i] arrives at
      [i/rate] seconds and a block is admitted only once its last
      request has arrived; a request's latency is measured from its
      {e arrival} to its block's completion, so queueing delay behind
      a saturated worker shows up in p99/p999 exactly as a client
      would see it. With [rate = 0] (closed loop) workers drain the
      stream flat out — the throughput-measurement mode — and latency
      is measured from block admission instead.

    Answers never depend on timing, so [same stream + same config →
    same answers], and the answer array itself is identical across
    pool widths, cache sizes and rates. *)

type config = {
  batch : int;  (** pairs admitted per dequeue (default 64) *)
  cache_bits : int;
      (** log2 of per-worker cache slots; [0] disables the cache
          (default [0]; at most {!max_cache_bits}) *)
  rate : float;
      (** offered load in pairs/second for the open-loop generator;
          [0.] serves closed-loop at full speed (default [0.]) *)
}

val default_config : config
(** [{ batch = 64; cache_bits = 0; rate = 0. }] *)

val max_cache_bits : int
(** Upper bound on [cache_bits] (24: a 128 MiB table per worker is
    already past any plausible hot set). *)

type worker_stats = {
  worker : int;  (** worker index, [0 .. workers-1] *)
  served : int;  (** requests this worker answered *)
  hits : int;  (** answered from the worker's cache *)
  misses : int;  (** answered by {!Oracle.query}; [hits + misses = served] *)
  busy_ns : float;  (** wall-clock spent serving (admission waits excluded) *)
  worker_qps : float;  (** [served / busy] — per-worker service throughput *)
}

type latency = {
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max : float;
}
(** Latency distribution in nanoseconds, percentiles by linear
    interpolation over every request (not a sample). *)

type stats = {
  pairs : int;  (** requests served (= batch size) *)
  workers : int;  (** worker count (= pool width) *)
  elapsed_ns : float;  (** start of admission to last block completion *)
  qps : float;  (** [pairs / elapsed] — delivered throughput *)
  offered_qps : float;  (** the configured [rate]; [0.] in closed loop *)
  hit_rate : float;
      (** total cache hits / pairs; [0.] when the cache is disabled *)
  latency_ns : latency;
  per_worker : worker_stats array;  (** indexed by worker *)
}

val run :
  ?pool:Ds_parallel.Pool.t ->
  ?config:config ->
  ?obs:Ds_obs.Obs.t ->
  ?sampler:Ds_obs.Sampler.t ->
  Oracle.t ->
  int array ->
  int array * stats
(** [run ~pool ~config oracle flat] serves the flat pair stream of
    {!Workload.pairs_flat} (pair [i] at indices [2i], [2i+1]) through
    the loop above and returns the answers (slot [i] for pair [i])
    plus the run's statistics. The answer array equals
    [Oracle.query oracle u_i v_i] pointwise for {e every}
    configuration; only the statistics depend on [pool]/[config].
    Workers run one per pool domain (default {!Ds_parallel.Pool.sequential}:
    one worker, inline). Raises [Invalid_argument] on an odd-length
    stream or an out-of-range config field.

    [obs] registers the [serve.*] instruments (admitted / served /
    hits / misses counters, per-worker queue-depth gauge, block
    latency histogram) and updates them per block from each worker's
    own shard — zero-cost when absent, and allocation-free when
    present (no clock reads beyond the two the block already takes).
    [sampler] is ticked by worker 0 between blocks and force-sampled
    once after the pool joins, so its last point reconciles exactly
    with the returned {!stats}; when [obs] is omitted the sampler's
    own registry is the one instrumented. *)
