(** Opt-in per-round telemetry for CONGEST executions.

    A tracer is passed to {!Engine.create} and records one {!round}
    row per simulated round: the activity counters the engine already
    maintains (active nodes and links, deliveries, words, in-flight
    and per-link backlog), wall-clock nanoseconds split into the
    delivery and computation sub-spans, and the number of pool domains
    the computation span occupied. It also keeps cumulative per-node
    send/receive counters for hotspot analysis.

    Cost contract: with no tracer the engine's only overhead is a
    handful of per-round branches on an immutable [None] — no
    allocation, no clock reads (B9/B10 in [BENCH_engine.json] guard
    this). With a tracer, the engine adds two clock reads and one row
    record per round plus one counter bump per sending/receiving node.

    Determinism: every field except the wall-clock spans and the pool
    occupancy is a pure function of (graph, protocol, jitter seed) —
    the same split the engine's determinism contract guarantees. The
    exporters separate the two groups {e by schema}: [jsonl
    ~timing:false] and [chrome ~clock:`Rounds] omit the host-dependent
    fields entirely, so two traces can be compared byte-for-byte
    across pool sizes.

    One tracer may be threaded through several consecutive engine runs
    (e.g. the per-level phases of [Ds_core.Tz_distributed.build]);
    rows simply append, and cumulative per-node counters keep
    accumulating, so the row sequence lines up with the combined
    {!Metrics.phases} of the composed run. *)

type t

type round = {
  round : int;  (** engine round number (restarts across composed runs) *)
  active_nodes : int;  (** nodes whose [on_round] ran *)
  active_links : int;  (** links holding queued messages at delivery *)
  delivered : int;  (** messages delivered this round *)
  words : int;  (** words delivered this round *)
  in_flight : int;  (** messages queued on links at end of round *)
  link_backlog : int;
      (** deepest send queue observed at a push this round (the
          per-round view of {!Metrics.max_link_backlog}) *)
  delivery_ns : int;  (** wall-clock: delivery sub-span *)
  compute_ns : int;  (** wall-clock: computation sub-span *)
  busy_domains : int;
      (** pool domains the computation span occupied
          ({!Ds_parallel.Pool.chunks_for} of the run list) *)
}
(** One recorded round. The first seven fields are deterministic;
    the last three are host-dependent (see the module preamble). *)

val create : unit -> t
(** A fresh tracer with no rows; pass it to {!Engine.create}. *)

(** {2 Engine-facing hooks}

    Called by the engine; protocols and experiment code never call
    these. *)

val attach : t -> n:int -> domains:int -> unit
(** Size the per-node counters for an [n]-node graph (growing them if
    a previous attach was smaller) and record the pool width. Called
    by {!Engine.create}; idempotent across the engines of a composed
    run. *)

val count_send : t -> int -> int -> unit
(** [count_send t u k]: node [u] enqueued [k] messages this round. *)

val count_recv : t -> int -> int -> unit
(** [count_recv t u k]: node [u] received [k] messages this round. *)

val record_round : t -> round -> unit
(** Append one row. *)

val drop_last : t -> unit
(** Remove the most recent row; the engine drops the final quiescence
    probe round with it, mirroring {!Metrics.untick_round} (the probe
    round delivered and sent nothing, so the cumulative counters need
    no correction). *)

val now_ns : unit -> int
(** Monotonic wall clock in nanoseconds (the engine reads it only
    when a tracer is attached). *)

(** {2 Reading the trace} *)

val rounds_logged : t -> int
val rows : t -> round list
(** All rows in execution order. *)

val sent : t -> int -> int
(** Cumulative messages sent by a node. *)

val received : t -> int -> int
(** Cumulative messages delivered to a node. *)

type profile = {
  rounds : int;
  messages : int;  (** total delivered *)
  total_words : int;
  peak_delivered : int;  (** largest per-round delivery count *)
  peak_delivered_round : int;  (** 1-based row index of that peak *)
  peak_active_links : int;
  peak_active_links_round : int;
  peak_in_flight : int;
  peak_in_flight_round : int;
  max_link_backlog : int;
}
(** Deterministic per-round congestion summary: where in the
    execution each congestion measure peaks, not just its total.
    Peak rows are 1-based positions in the row sequence (= engine
    rounds for a single run), ties resolved to the earliest round;
    all-zero on an empty trace. *)

val profile : t -> profile

val hotspots : ?k:int -> t -> (int * int * int) list
(** Top-[k] (default 5) nodes by cumulative [sent + received]
    traffic, as [(node, sent, received)] triples, busiest first, ties
    broken by node ID. Nodes with no traffic are never listed. *)

(** {2 Exporters}

    Both are deterministic byte-for-byte given the same trace
    contents and options; they are built on {!Ds_util.Json}'s fixed
    formats. *)

val jsonl : ?timing:bool -> t -> string
(** The round log, one JSON object per line. Line 1 is a header
    ([schema]/[version]/[timing], plus [pool_domains] when [timing]);
    each following line is one {!round} in field order. With
    [~timing:false] (default [true]) the host-dependent fields —
    [delivery_ns], [compute_ns], [busy_domains], [pool_domains] — are
    absent from the schema, which is what makes two logs comparable
    with [String.equal] across pool sizes. *)

val chrome : ?clock:[ `Wall | `Rounds ] -> ?phases:Metrics.phase list ->
  t -> string
(** A Chrome trace-event file (load in [about:tracing] or Perfetto).
    Each round contributes a [delivery] and a [compute] complete-span
    on one track plus [in-flight] / [active links] / [delivered]
    counter series; [phases] (pass {!Metrics.phases} of the run)
    renders the protocol's phase marks as spans on a second track,
    aligned by cumulative round count. [`Wall] (default) places spans
    at the measured nanosecond offsets; [`Rounds] uses virtual time —
    one round = 1000 trace-µs, split evenly — and omits the
    pool-occupancy args, so its output is deterministic across pool
    sizes. *)

val summary : ?top_k:int -> ?timing:bool -> t -> Ds_util.Json.t
(** Totals, the {!profile} peaks, and the [top_k] (default 5)
    {!hotspots}; with [timing] (default [true]) also the aggregate
    wall-clock split and pool width. *)
