module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Dijkstra = Ds_graph.Dijkstra
module Metrics = Ds_congest.Metrics
module Super_bf = Ds_congest.Super_bf

type sketch = {
  owner : int;
  nearest : int;
  nearest_dist : int;
  net_label : Label.t;
  own_label : Label.t;
}

let size_words s = 2 + Label.size_words s.net_label

let query a b =
  let mid = Label.query a.net_label b.net_label in
  Dist.add a.nearest_dist (Dist.add mid b.nearest_dist)

let query_direct a b = Label.query a.own_label b.own_label

type result = {
  sketches : sketch array;
  net : int list;
  net_levels : Levels.t;
  metrics : Metrics.t;
  transfer_metrics : Metrics.t;
}

let net_sampling_probability ~n ~eps ~k =
  let expected = max 2.0 (10.0 /. eps *. log (float_of_int n)) in
  expected ** (-1.0 /. float_of_int k)

let assemble ?received ~labels ~nearest ~nearest_dist n =
  Array.init n (fun u ->
      let net_label =
        match received with
        | Some words ->
          (* Deserialize the stream that actually crossed the wire. *)
          Label.of_words words.(u)
        | None -> labels.(nearest.(u))
      in
      {
        owner = u;
        nearest = nearest.(u);
        nearest_dist = nearest_dist.(u);
        net_label;
        own_label = labels.(u);
      })

let build_distributed ?pool ~rng g ~eps ~k =
  let n = Graph.n g in
  let net = Density_net.sample ~rng ~n ~eps in
  let prob = net_sampling_probability ~n ~eps ~k in
  let net_levels = Levels.sample_subset ~rng ~n ~k ~subset:net ~prob in
  (* Step 1: every node learns its nearest net node (and the cell
     forest used later to ship labels). *)
  let forest, bf_metrics = Super_bf.run ?pool g ~sources:net in
  (* Step 2: Algorithm 2 over the net hierarchy. *)
  let tz = Tz_distributed.build ?pool g ~levels:net_levels in
  (* Step 3: ship L(u') down each cell, as actual words on the wire. *)
  let payload w = Label.to_words tz.Tz_distributed.labels.(w) in
  let received, transfer_metrics = Cell_cast.run ?pool g ~forest ~payload in
  let sketches =
    assemble ~received ~labels:tz.Tz_distributed.labels
      ~nearest:forest.Super_bf.nearest ~nearest_dist:forest.Super_bf.dist n
  in
  let metrics =
    List.fold_left Metrics.add bf_metrics
      [ tz.Tz_distributed.metrics; transfer_metrics ]
  in
  { sketches; net; net_levels; metrics; transfer_metrics }

let build_centralized ~rng g ~eps ~k =
  let n = Graph.n g in
  let net = Density_net.sample ~rng ~n ~eps in
  let prob = net_sampling_probability ~n ~eps ~k in
  let net_levels = Levels.sample_subset ~rng ~n ~k ~subset:net ~prob in
  let labels = Tz_centralized.build g ~levels:net_levels in
  let dist, nearest = Dijkstra.multi_source g ~sources:(Array.of_list net) in
  assemble ~labels ~nearest ~nearest_dist:dist n
