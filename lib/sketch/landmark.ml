module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Dijkstra = Ds_graph.Dijkstra
module Metrics = Ds_congest.Metrics
module Super_bf = Ds_congest.Super_bf
module Rng = Ds_util.Rng

let r ~n =
  let rec log2 acc x = if x >= 2 then log2 (acc + 1) (x / 2) else acc in
  max 1 (log2 0 n)

let sets ~n ~k ~seed =
  if k < 1 then invalid_arg "Landmark.sets: k < 1";
  if n < 1 then invalid_arg "Landmark.sets: n < 1";
  let rng = Rng.create seed in
  let r = r ~n in
  Array.init (k * r) (fun i ->
      let j = i mod r in
      let size = min (1 lsl j) n in
      Rng.sample_without_replacement rng size n)

(* Merge one super-BF result into the per-node landmark maps: keep the
   min distance per (node, landmark). Duplicate landmarks across sets
   always carry the same exact distance, so "min" is just dedup. *)
let merge_run maps (res : Super_bf.result) =
  Array.iteri
    (fun u d ->
      if Dist.is_finite d then begin
        let l = res.Super_bf.nearest.(u) in
        match Hashtbl.find_opt maps.(u) l with
        | Some d' when d' <= d -> ()
        | _ -> Hashtbl.replace maps.(u) l d
      end)
    res.Super_bf.dist

let entries_of_maps maps =
  Array.map
    (fun map ->
      let es = Hashtbl.fold (fun l d acc -> (l, d) :: acc) map [] in
      let arr = Array.of_list es in
      Array.sort compare arr;
      arr)
    maps

type result = { sketch : Sketch.t; metrics : Metrics.t }

let run ?pool ?tracer ?obs g ~k ~seed =
  if k < 1 then invalid_arg "Landmark.run: k < 1";
  let n = Graph.n g in
  let maps = Array.init n (fun _ -> Hashtbl.create 8) in
  let acc = ref (Metrics.create ()) in
  Array.iter
    (fun set ->
      let sources = Array.to_list set in
      let res, m = Super_bf.run ?pool ?tracer ?obs g ~sources in
      acc := Metrics.add !acc m;
      merge_run maps res)
    (sets ~n ~k ~seed);
  let sketch = Sketch.v ~family:Family.Landmark ~k (entries_of_maps maps) in
  { sketch; metrics = !acc }

let reference g ~k ~seed =
  if k < 1 then invalid_arg "Landmark.reference: k < 1";
  let n = Graph.n g in
  let maps = Array.init n (fun _ -> Hashtbl.create 8) in
  Array.iter
    (fun set ->
      let dist, nearest = Dijkstra.multi_source g ~sources:set in
      merge_run maps { Super_bf.dist; nearest; parent = [||]; children = [||] })
    (sets ~n ~k ~seed);
  entries_of_maps maps
