(* The system under test, behind one module.

   Every call the benchmark makes into the distsketch libraries goes
   through this file: graph generation, the distributed build, the
   snapshot store, the oracle, the serve loop, the engine tracer, the
   pool, the obs registry, exact distances and process memory. The
   rest of bench/e2e sees plain ints, floats, flat int arrays and the
   values these functions return, so an API change in the libraries is
   absorbed here and nowhere else. *)

module Json = Ds_util.Json
module Family = Ds_sketch.Family
module Store = Ds_oracle.Sketch_store
module Oracle = Ds_oracle.Oracle
module Serve = Ds_oracle.Serve

type family = Family.t = Tz | Landmark | Bottomk
type mode = Heap | Mmap

let has_stretch_bound f = f = Tz
let other_mode = function Heap -> Mmap | Mmap -> Heap

(* Graph generation *)

let gen ~seed ~n ~avg_degree =
  Ds_graph.Gen.streaming_sparse ~rng:(Ds_util.Rng.create seed) ~n ~avg_degree ()

let edges = Ds_graph.Graph.m

(* Build *)

type built = {
  sketch : Ds_sketch.Sketch.t;
  rounds : int;
  messages : int;
  words : int;
  plane_words : int;  (** plane backbone words; 0 for landmark *)
}

let build ?pool ?tracer ~family g ~k ~seed =
  let r = Ds_sketch.Build.run ?pool ?tracer ~family g ~k ~seed in
  let m = r.Ds_sketch.Build.metrics in
  {
    sketch = r.Ds_sketch.Build.sketch;
    rounds = Ds_congest.Metrics.rounds m;
    messages = Ds_congest.Metrics.messages m;
    words = Ds_congest.Metrics.words m;
    plane_words = r.Ds_sketch.Build.mem_words;
  }

let sketch_words = Ds_sketch.Sketch.size_words
let sketch_equal = Ds_sketch.Sketch.equal

(* Engine tracer: the per-round delivery and compute wall times *)

let tracer () = Ds_congest.Trace.create ()

let tracer_split_ns t =
  List.fold_left
    (fun (d, c) (r : Ds_congest.Trace.round) -> (d + r.delivery_ns, c + r.compute_ns))
    (0, 0) (Ds_congest.Trace.rows t)

(* Snapshot store and oracle *)

let save path ~seed sketch =
  Store.save path (Store.v ~seed ~graph_family:"streaming_sparse" sketch)

let load mode path =
  Store.load ~mode:(match mode with Heap -> Store.Heap | Mmap -> Store.Mmap) path

let compile = Oracle.of_store
let query = Oracle.query
let query_batch o flat = Oracle.query_batch_flat o flat
let query_probes o u v = snd (Oracle.query_probes o u v)

(* Query streams *)

type pair_kind = Uniform | Zipf of float

let pairs ~seed kind ~n ~count =
  let kind =
    match kind with
    | Uniform -> Ds_oracle.Workload.Uniform
    | Zipf alpha -> Ds_oracle.Workload.Zipf { alpha }
  in
  Ds_oracle.Workload.pairs_flat ~rng:(Ds_util.Rng.create seed) kind ~n ~count

(* Serve loop *)

type served = {
  elapsed_s : float;
  busy_s : float;
  hits : int;
  misses : int;
  qps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

let with_pool ~domains f = Ds_parallel.Pool.with_pool ~domains f

(* [rate = 0.] is the closed loop. [obs] instruments the run with a
   fresh registry and a 100 ms sampler, as the CLI's --obs-out does. *)
let serve ?pool ?(obs = false) ~cache_bits ~rate o flat =
  let config = { Serve.default_config with cache_bits; rate } in
  let answers, s =
    if obs then
      let registry = Ds_obs.Obs.create () in
      let sampler = Ds_obs.Sampler.create ~interval_ms:100 registry in
      Serve.run ?pool ~config ~obs:registry ~sampler o flat
    else Serve.run ?pool ~config o flat
  in
  let workers = s.Serve.per_worker in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
  let lat = s.Serve.latency_ns in
  ( answers,
    {
      elapsed_s = s.Serve.elapsed_ns /. 1e9;
      busy_s = Array.fold_left (fun acc w -> acc +. w.Serve.busy_ns) 0. workers /. 1e9;
      hits = sum (fun w -> w.Serve.hits);
      misses = sum (fun w -> w.Serve.misses);
      qps = s.Serve.qps;
      p50_us = lat.Serve.p50 /. 1e3;
      p99_us = lat.Serve.p99 /. 1e3;
      p999_us = lat.Serve.p999 /. 1e3;
    } )

(* Exact distances and process memory *)

let sssp g src = Ds_graph.Dijkstra.sssp g ~src
let is_finite = Ds_graph.Dist.is_finite
let hwm_mb () = float_of_int (Ds_util.Mem.hwm_kb_or_zero ()) /. 1024.
let rss_mb () = float_of_int (Ds_util.Mem.rss_kb_or_zero ()) /. 1024.
