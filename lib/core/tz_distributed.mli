(** Distributed Thorup–Zwick construction, Algorithm 2 of the paper,
    in the idealised synchronisation mode of Section 3.2: every node is
    assumed to know (an upper bound on) the shortest-path diameter [S],
    so all nodes start each phase together. The simulator realises the
    assumption by detecting global quiescence between phases, which
    charges exactly the work rounds a real execution would need (a real
    deployment would round phase lengths up to the proven bound).

    The self-terminating variant (Section 3.3) is {!Tz_echo}; both
    produce labels structurally equal to {!Tz_centralized.build} on the
    same hierarchy. *)

type result = {
  labels : Label.t array;
  metrics : Ds_congest.Metrics.t;  (** one phase mark per level *)
  max_pending : int;
      (** largest per-node send-queue backlog observed across all
          phases — the quantity Lemma 3.7 bounds by [O(n^{1/k} log n)] *)
  mem_words : int;
      (** largest {!Ds_congest.Engine.exec.mem_words} over the phases —
          the peak message-plane backbone footprint, what the scale
          experiment's per-node word budget audits *)
}

val build :
  ?pool:Ds_parallel.Pool.t -> ?tracer:Ds_congest.Trace.t ->
  ?obs:Ds_obs.Obs.t -> Ds_graph.Graph.t -> levels:Levels.t -> result
(** [tracer] (and likewise [obs]) is threaded through every phase
    engine, so its rows line up with the combined per-phase
    metrics. *)
