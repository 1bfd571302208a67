(** MPC-style sharded superstep backend.

    Executes a {!Superstep.protocol} with the same synchronous-round
    semantics as {!Engine} — identical scheduling contract, identical
    quiescence detection, byte-identical sketches and {!Metrics} —
    but moves messages in bulk: nodes are partitioned into
    contiguous shards, each round's messages accumulate in
    sender-owned flat word rings, and supersteps exchange them as
    per-(source shard, destination shard) word batches. One pool
    worker owns each shard through the parallel phases, so every
    array cell has a single writer and the run is deterministic for
    any pool size and any shard count.

    This is the execution model of {i Massively Parallel Approximate
    Distance Sketches} (Dinitz & Nazari) applied to the source
    paper's protocols: per-round cost is dominated by a bounded
    number of bulk batch scans instead of per-link queue hops, which
    is what makes n = 10^5..10^6 builds tractable. Pick this backend
    for scale; pick {!Engine} for per-link faithfulness, jitter
    (bounded asynchrony) support, and small-n work where its lower
    constant factors win. *)

type ('state, 'msg) t

val create :
  ?pool:Ds_parallel.Pool.t ->
  ?shards:int ->
  ?tracer:Trace.t ->
  ?obs:Ds_obs.Obs.t ->
  codec:'msg Superstep.codec ->
  Ds_graph.Graph.t ->
  ('state, 'msg) Superstep.protocol ->
  ('state, 'msg) t
(** [shards] defaults to the pool width (capped at [n]); results are
    independent of it. The engine borrows [pool]; the caller owns its
    lifecycle. [tracer] enables per-round telemetry and [obs] the
    [engine.*] metrics, both exactly as in {!Engine.create} — the two
    backends report through the same {!Obs_hooks} names. *)

val graph : ('state, 'msg) t -> Ds_graph.Graph.t
(** The graph the engine was created on. *)

val metrics : ('state, 'msg) t -> Metrics.t
(** Cost accounting so far — byte-identical to an {!Engine} run of the
    same protocol. *)

val states : ('state, 'msg) t -> 'state array
(** Per-node protocol states, indexed by node id. *)

val state : ('state, 'msg) t -> int -> 'state
(** [state t u] = [(states t).(u)]. *)

val shards : ('state, 'msg) t -> int
(** The shard count actually in use (after capping at [n]). *)

val step : ('state, 'msg) t -> unit
(** One synchronous superstep: exchange, deliver, compute, absorb. *)

val run : ?max_rounds:int -> ('state, 'msg) t -> Superstep.stop_reason
(** Step until quiescent, all halted, or [max_rounds] supersteps
    (default: unbounded). *)

val quiescent : ('state, 'msg) t -> bool
(** No message in flight and none queued for the next exchange. *)

val mem_words : ('state, 'msg) t -> int
(** Backbone footprint in machine words: link tables, ring and batch
    capacities, delivery slots, inboxes, worklists and flags at their
    current high-water capacity. Protocol state is not counted. *)
