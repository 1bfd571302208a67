(** Distributed Thorup–Zwick with full termination detection — the
    paper's Section 3.3. No node knows [S] or any global quantity
    beyond [n]; instead:

    - a leader is elected and a BFS tree [T] built ({!Ds_congest.Setup});
    - within a phase, every flooded announcement is ECHO-acknowledged:
      a node that rejects (or supersedes) a received announcement
      echoes it immediately, while a node that re-broadcasts it echoes
      its parent only after collecting echoes for its own broadcast
      from all neighbors — so a phase-[i] source learns when its
      cluster flood has fully quiesced;
    - COMPLETE messages converge-cast up [T] once subtrees are
      complete, and the leader broadcasts START down [T] to open the
      next phase (FINISH after phase 0).

    Produces labels structurally equal to {!Tz_distributed.build} and
    {!Tz_centralized.build} on the same hierarchy, at the cost of at
    most a constant factor more messages and rounds (experiment E4
    measures the actual overhead). *)

type result = {
  labels : Label.t array;
  metrics : Ds_congest.Metrics.t;
      (** total cost: setup (election + tree) plus all phases *)
  setup_metrics : Ds_congest.Metrics.t;  (** the setup share of it *)
  leader : int;
}

val build :
  ?pool:Ds_parallel.Pool.t -> ?jitter:Ds_congest.Engine.jitter ->
  ?tracer:Ds_congest.Trace.t -> ?obs:Ds_obs.Obs.t ->
  Ds_graph.Graph.t -> levels:Levels.t -> result
(** With [jitter] the protocol runs under bounded link asynchrony (the
    paper's stated future-work model). Announcements, echoes and
    COMPLETEs are phase-tagged, and a node that sees a phase-[i]
    announcement while still in phase [i+1] advances by causal
    inference (the announcement proves phase [i+1] completed
    globally), so the produced labels are still exactly the
    Thorup–Zwick labels. Round counts under jitter measure the delay
    schedule, not the algorithm. *)
