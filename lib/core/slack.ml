module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Dijkstra = Ds_graph.Dijkstra
module Multi_bf = Ds_congest.Multi_bf

type sketch = {
  owner : int;
  entries : (int * int) array;
}

let size_words s = 2 * Array.length s.entries

let query a b =
  (* Both entry arrays are sorted by net-node ID; merge-join them. *)
  let best = ref Dist.infinity in
  let i = ref 0 and j = ref 0 in
  let na = Array.length a.entries and nb = Array.length b.entries in
  while !i < na && !j < nb do
    let wa, da = a.entries.(!i) and wb, db = b.entries.(!j) in
    if wa = wb then begin
      let est = Dist.add da db in
      if est < !best then best := est;
      incr i;
      incr j
    end
    else if wa < wb then incr i
    else incr j
  done;
  !best

type result = {
  sketches : sketch array;
  net : int list;
  metrics : Ds_congest.Metrics.t;
}

let sketch_of_found owner found =
  let entries = Array.of_list found in
  Array.sort compare entries;
  { owner; entries }

let build_distributed ?pool ~rng g ~eps =
  let n = Graph.n g in
  let net = Density_net.sample ~rng ~n ~eps in
  let found, metrics =
    Multi_bf.run ?pool g ~sources:net ~bound:(fun _ -> Dist.none)
  in
  let sketches = Array.mapi sketch_of_found found in
  { sketches; net; metrics }

let build_centralized g ~net =
  let n = Graph.n g in
  let acc = Array.make n [] in
  List.iter
    (fun w ->
      let dist = Dijkstra.sssp g ~src:w in
      for u = 0 to n - 1 do
        if Dist.is_finite dist.(u) then acc.(u) <- (w, dist.(u)) :: acc.(u)
      done)
    net;
  Array.mapi sketch_of_found acc
