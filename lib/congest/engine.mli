(** Synchronous CONGEST-model simulator.

    Semantics, per the paper's Section 2.2: computation proceeds in
    rounds; in each round every node may send one small message along
    each incident edge; messages sent in round [r] are available to the
    receiver in round [r+1].

    Protocols call {!api}[.send] freely; the engine serialises the
    sends through per-link FIFO queues so that the wire discipline
    (one message per edge per direction per round) always holds, and
    charges every delivered message to {!Metrics}.

    The engine is activity-driven: per-round cost is proportional to
    the number of links carrying messages and nodes doing work, not to
    the size of the graph (see DESIGN.md, "Engine internals"). A
    node's [on_round] is invoked in round [r] iff at least one of:
    - a message is delivered to it in round [r];
    - it sent at least one message in round [r - 1] (so protocols that
      drain an internal work queue, sending as they go, keep running);
    - nothing at all is in flight (a probe round: every node runs, so
      protocols whose nodes start silently still bootstrap, and
      quiescence detection matches the original run-everyone engine).
    Protocols driven purely by an internal clock — doing work in
    rounds where they neither received nor just sent — are not
    supported; none of the paper's protocols are. *)

type 'msg api = 'msg Superstep.api = {
  id : int;  (** this node's ID *)
  degree : int;
  neighbor_id : int -> int;  (** neighbor index -> node ID *)
  neighbor_weight : int -> int;  (** neighbor index -> edge weight *)
  send : int -> 'msg -> unit;  (** enqueue a message to a neighbor index *)
  broadcast : 'msg -> unit;  (** enqueue to every neighbor *)
  round : unit -> int;  (** current round number *)
}

module Inbox = Superstep.Inbox
(** Per-round inbox, delivered in the canonical order (ascending
    sender neighbor index) — see {!Superstep.Inbox}. *)

type ('state, 'msg) protocol = ('state, 'msg) Superstep.protocol = {
  name : string;
  init : 'msg api -> 'state;
      (** Round-0 computation; may send. Called once per node. *)
  on_round : 'msg api -> 'state -> 'msg Inbox.t -> unit;
      (** Per-round computation; see the scheduling contract above. *)
  halted : 'state -> bool;
      (** True once the node has locally terminated. *)
  msg_words : 'msg -> int;  (** size accounting, in words *)
  max_msg_words : int;
      (** CONGEST bandwidth cap; sends above it raise. *)
}

type ('state, 'msg) t

type jitter = { rng : Ds_util.Rng.t; max_delay : int }
(** Asynchronous-link model: each message is held on its link for an
    extra uniform 0..max_delay rounds (links stay FIFO — no
    reordering). This is the bounded-asynchrony extension the paper's
    conclusion calls for; delay-tolerant protocols ({!Setup},
    {!Super_bf}, the phase-tagged [Ds_core.Tz_echo]) stay correct,
    round counts become meaningless as a complexity measure. The [rng]
    only seeds a per-message coordinate hash, so a jittered run is
    reproducible under any pool size. *)

val create :
  ?pool:Ds_parallel.Pool.t -> ?jitter:jitter -> ?tracer:Trace.t ->
  ?obs:Ds_obs.Obs.t ->
  Ds_graph.Graph.t -> ('state, 'msg) protocol -> ('state, 'msg) t
(** The engine borrows [pool] (default {!Ds_parallel.Pool.sequential});
    the caller owns its lifecycle and may share it across engines.
    [tracer] turns on per-round telemetry (see {!Trace}); one tracer
    may be shared by consecutive engines to trace a composed run.
    Without it the engine takes no timestamps and records nothing.
    [obs] registers the [engine.*] metrics ({!Ds_obs.Obs.Name}:
    charged rounds — the uncharged quiescence probe is taken back, as
    in {!Metrics} — deliveries, words, peak backlog, busy domains) and
    updates them as the run progresses; like the tracer it is zero-cost when
    absent and adds no clock reads or allocation when present, so
    instrumented rounds stay zero-alloc. *)

val metrics : ('state, 'msg) t -> Metrics.t
val states : ('state, 'msg) t -> 'state array
val state : ('state, 'msg) t -> int -> 'state

val step : ('state, 'msg) t -> unit
(** Execute one synchronous round (delivery then computation). *)

type stop_reason = Superstep.stop_reason =
  | Quiescent
  | All_halted
  | Round_limit

val run : ?max_rounds:int -> ('state, 'msg) t -> stop_reason
(** Run rounds until no message is in flight and none was sent
    (quiescence), every node reports [halted], or the round limit is
    hit (default 10 million — a bug guard, not a tuning knob). *)

val par_threshold : int
(** Active-link count above which delivery is fanned over the pool
    (below it the bucket loop runs inline on the caller — quiet rounds
    skip the pool handshake). Exposed so tests can build workloads
    that provably exercise the parallel delivery path; results are
    identical on either side of the gate. *)

val mem_words : ('state, 'msg) t -> int
(** Backbone footprint in machine words: link tables, ring
    capacities, delivery slots, inboxes, worklists and membership
    flags — everything the plane owns, at its current high-water
    capacity. Protocol state is not counted. *)

type ('state, 'msg) exec = {
  states : 'state array;  (** final per-node protocol states *)
  metrics : Metrics.t;  (** rounds/messages/words accounting *)
  stop : stop_reason;  (** why the run ended *)
  mem_words : int;  (** plane backbone footprint at completion *)
}

val execute :
  ?pool:Ds_parallel.Pool.t -> ?jitter:jitter -> ?tracer:Trace.t ->
  ?obs:Ds_obs.Obs.t -> ?max_rounds:int -> Ds_graph.Graph.t ->
  ('state, 'msg) protocol -> ('state, 'msg) exec
(** One protocol run to completion: {!create}, then {!run}. This is
    the entry point every protocol's [run]/[build] wrapper calls. *)
