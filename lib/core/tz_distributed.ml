module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Engine = Ds_congest.Engine
module Plane = Ds_congest.Plane
module Metrics = Ds_congest.Metrics
module Multi_bf = Ds_congest.Multi_bf

type result = {
  labels : Label.t array;
  metrics : Metrics.t;
  max_pending : int;
  mem_words : int;
}

let build ?backend ?pool ?shards ?tracer ?obs g ~levels =
  let n = Graph.n g in
  let k = Levels.k levels in
  let labels = Array.init n (fun u -> Label.create ~owner:u ~k) in
  (* pivot.(u) starts as p_k = (infinity, -) and is lowered as phases
     complete; during phase i it holds p_{i+1}(u), i.e. the bound. *)
  let pivot = Array.make n Dist.none in
  let phase_metrics = ref [] in
  let max_pending = ref 0 in
  let mem_words = ref 0 in
  for i = k - 1 downto 0 do
    let proto =
      Multi_bf.protocol ~n
        ~is_source:(fun u -> Levels.level levels u = i)
        ~bound:(fun u -> pivot.(u))
    in
    let r =
      Plane.run ?backend ?pool ?shards ?tracer ?obs ~codec:Multi_bf.codec g
        proto
    in
    (match r.Plane.stop with
    | Quiescent | All_halted -> ()
    | Round_limit -> failwith "Tz_distributed: round limit hit");
    let m = r.Plane.metrics in
    mem_words := max !mem_words r.Plane.mem_words;
    Metrics.mark_phase m (Printf.sprintf "phase-%d" i);
    phase_metrics := m :: !phase_metrics;
    (* Fold this phase into the labels and lower the pivots. *)
    Array.iteri
      (fun u st ->
        max_pending := max !max_pending (Multi_bf.max_pending st);
        let best = ref pivot.(u) in
        List.iter
          (fun (src, dist) ->
            Label.add_bunch labels.(u) ~node:src ~dist ~level:i;
            if Dist.lex_lt (dist, src) !best then best := (dist, src))
          (Multi_bf.found st);
        pivot.(u) <- !best;
        let d, p = !best in
        if Dist.is_finite d then
          Label.set_pivot labels.(u) ~level:i ~dist:d ~node:p)
      r.Plane.states
  done;
  let metrics =
    List.fold_left Metrics.add (Metrics.create ()) (List.rev !phase_metrics)
  in
  { labels; metrics; max_pending = !max_pending; mem_words = !mem_words }
