(** Leader election and BFS-tree construction with self-contained
    termination — the preamble of the paper's Section 3.3.

    Every node floods its ID, forwarding only the smallest seen; each
    flood is echo-acknowledged, so the minimum-ID node detects that its
    own flood has quiesced and thereby elects itself. The leader then
    runs a second echo-acknowledged wave that fixes BFS-tree parents
    and tells every parent its children, and finally announces
    completion down the tree. [O(D)]-depth waves, [O(|E|)] messages
    per wave up to the echo factor. *)

type result = {
  leader : int;
  parent : int array;  (** tree parent node ID; -1 at the root *)
  children : int list array;
}

val run :
  ?pool:Ds_parallel.Pool.t -> ?jitter:Engine.jitter -> ?tracer:Trace.t ->
  ?obs:Ds_obs.Obs.t -> Ds_graph.Graph.t -> result * Metrics.t
(** Under link asynchrony ([jitter]) the elected leader and the
    spanning tree remain correct, but the tree is no longer a BFS tree
    (parents are first-arrival, not fewest-hops). *)
