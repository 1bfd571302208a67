module Graph = Ds_graph.Graph
module Rng = Ds_util.Rng
module Levels = Ds_core.Levels
module Tz_distributed = Ds_core.Tz_distributed

type result = {
  sketch : Sketch.t;
  metrics : Ds_congest.Metrics.t;
  mem_words : int;
}

let run ?pool ?tracer ?obs ~family g ~k ~seed =
  match family with
  | Family.Tz ->
    (* [seed + 1] matches the CLI's hierarchy-sampling convention, so
       a platform-built tz sketch is bit-identical to the historical
       single-family path. *)
    let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n:(Graph.n g) ~k in
    let r = Tz_distributed.build ?pool ?tracer ?obs g ~levels in
    {
      sketch = Sketch.of_tz_labels r.Tz_distributed.labels;
      metrics = r.Tz_distributed.metrics;
      mem_words = r.Tz_distributed.mem_words;
    }
  | Family.Landmark ->
    let r = Landmark.run ?pool ?tracer ?obs g ~k ~seed in
    { sketch = r.Landmark.sketch; metrics = r.Landmark.metrics; mem_words = 0 }
  | Family.Bottomk ->
    let r = Bottomk.run ?pool ?tracer ?obs g ~k ~seed in
    {
      sketch = r.Bottomk.sketch;
      metrics = r.Bottomk.metrics;
      mem_words = r.Bottomk.mem_words;
    }
