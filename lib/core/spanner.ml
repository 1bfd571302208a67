module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Dijkstra = Ds_graph.Dijkstra
module Engine = Ds_congest.Engine
module Multi_bf = Ds_congest.Multi_bf
module Metrics = Ds_congest.Metrics

module Edge_set = struct
  type t = (int * int, int) Hashtbl.t

  let create () : t = Hashtbl.create 256
  let key u v = (min u v, max u v)

  let add t u v w =
    let k = key u v in
    if not (Hashtbl.mem t k) then Hashtbl.replace t k w

  let to_graph t ~n =
    Graph.of_edges ~n (Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) t [])
end

let of_levels g ~levels =
  let n = Graph.n g in
  let table = Tz_centralized.pivot_tables g ~levels in
  let edges = Edge_set.create () in
  for w = 0 to n - 1 do
    let lw = Levels.level levels w in
    if lw >= 0 then begin
      let bound = table.(lw + 1) in
      let dist, parent = Dijkstra.restricted_with_parents g ~src:w ~bound in
      Array.iteri
        (fun v p ->
          if p >= 0 && Dist.is_finite dist.(v) then
            Edge_set.add edges v p (Graph.weight g v p))
        parent
    end
  done;
  Edge_set.to_graph edges ~n

let of_distributed ?pool g ~levels =
  let n = Graph.n g in
  let k = Levels.k levels in
  let pivot = Array.make n Dist.none in
  let edges = Edge_set.create () in
  let phase_metrics = ref [] in
  for i = k - 1 downto 0 do
    let proto =
      Multi_bf.protocol ~n
        ~is_source:(fun u -> Levels.level levels u = i)
        ~bound:(fun u -> pivot.(u))
    in
    let r = Engine.execute ?pool g proto in
    (match r.Engine.stop with
    | Engine.Quiescent | Engine.All_halted -> ()
    | Engine.Round_limit -> failwith "Spanner.of_distributed: round limit");
    phase_metrics := r.Engine.metrics :: !phase_metrics;
    Array.iteri
      (fun u st ->
        let best = ref pivot.(u) in
        List.iter
          (fun (src, dist, parent_idx) ->
            if parent_idx >= 0 then begin
              let p, w = Graph.neighbor_at g u parent_idx in
              Edge_set.add edges u p w
            end;
            if Dist.lex_lt (dist, src) !best then best := (dist, src))
          (Multi_bf.found_with_parents st);
        pivot.(u) <- !best)
      r.Engine.states
  done;
  let metrics =
    List.fold_left Metrics.add (Metrics.create ()) (List.rev !phase_metrics)
  in
  (Edge_set.to_graph edges ~n, metrics)

let edge_bound ~n ~k =
  let fn = float_of_int n in
  float_of_int k *. (fn ** (1.0 +. (1.0 /. float_of_int k)))

let max_stretch g ~spanner =
  let n = Graph.n g in
  let worst = ref 1.0 in
  for src = 0 to n - 1 do
    let dg = Dijkstra.sssp g ~src in
    let ds = Dijkstra.sssp spanner ~src in
    for v = 0 to n - 1 do
      if v <> src && Dist.is_finite dg.(v) && dg.(v) > 0 then begin
        if not (Dist.is_finite ds.(v)) then worst := infinity
        else begin
          let s = float_of_int ds.(v) /. float_of_int dg.(v) in
          if s > !worst then worst := s
        end
      end
    done
  done;
  !worst
