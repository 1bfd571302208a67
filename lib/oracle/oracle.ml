module Dist = Ds_graph.Dist
module Pool = Ds_parallel.Pool
module Stats = Ds_util.Stats
module Family = Ds_sketch.Family
module Sketch = Ds_sketch.Sketch

type t = Sketch.t

let of_sketch s = s
let of_store (s : Sketch_store.t) = s.Sketch_store.sketch

let family = Sketch.family
let n = Sketch.n
let size_words = Sketch.size_words

let bunch_dist t u w =
  let d = Sketch.find t u w in
  if Dist.is_finite d then Some d else None

let query = Sketch.estimate
let query_bidirectional = Sketch.estimate_bidirectional
let query_probes = Sketch.estimate_probes

(* Obs hooks for the batch path: one add per chunk (not per query) on
   the chunk's own shard, to the total counter and to this oracle's
   family breakdown. *)
let obs_queries t = function
  | None -> None
  | Some registry ->
    let name = Ds_obs.Obs.Name.oracle_queries in
    let fam =
      Ds_obs.Obs.Name.oracle_queries_family (Family.name (family t))
    in
    Some (Ds_obs.Obs.counter registry name, Ds_obs.Obs.counter registry fam)

let count qc ~shard n =
  match qc with
  | Some (total, fam) ->
    Ds_obs.Obs.add total ~shard n;
    Ds_obs.Obs.add fam ~shard n
  | None -> ()

(* One tight loop per domain, not one closure dispatch per pair
   ([parallel_for]'s per-index call was most of the per-query cost at
   ~150ns a query). Endpoints live inline in one int array ([u] at
   [2i], [v] at [2i+1]), not as [(u,v)] tuples whose pointer chase
   cost a dependent cache miss per pair, and work is handed out in
   blocks of 8 pairs so every chunk's [out] writes are 64-byte
   aligned — no false sharing at chunk boundaries. *)
let query_batch_flat ?(pool = Pool.sequential) ?obs t flat =
  let len = Array.length flat in
  if len land 1 <> 0 then invalid_arg "Oracle.query_batch_flat: odd length";
  let m = len / 2 in
  let out = Array.make (max 1 m) 0 in
  let blocks = (m + 7) / 8 in
  let qc = obs_queries t obs in
  ignore
    (Pool.parallel_chunks pool ~n:blocks (fun c blo bhi ->
         let lo = 8 * blo and hi = min m (8 * bhi) in
         for i = lo to hi - 1 do
           out.(i) <- query t flat.(2 * i) flat.((2 * i) + 1)
         done;
         count qc ~shard:c (hi - lo)));
  if m = 0 then [||] else out

type batch_stats = {
  pairs : int;
  elapsed_ns : float;
  qps : float;
  latency_ns : Stats.summary;
}

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let run_batch_flat ?pool ?obs ?(latency_sample = 1024) t flat =
  let m = Array.length flat / 2 in
  let t0 = now_ns () in
  let out = query_batch_flat ?pool ?obs t flat in
  let t1 = now_ns () in
  let elapsed_ns = max 1.0 (t1 -. t0) in
  let sample = min latency_sample m in
  let lat =
    Array.init sample (fun i ->
        (* Stride across the batch so the sample sees its whole mix. *)
        let j = i * m / max 1 sample in
        let u = flat.(2 * j) and v = flat.((2 * j) + 1) in
        let s0 = now_ns () in
        ignore (query t u v);
        now_ns () -. s0)
  in
  ( out,
    {
      pairs = m;
      elapsed_ns;
      qps = float_of_int m /. (elapsed_ns /. 1e9);
      latency_ns = Stats.summarize (if sample = 0 then [| 0.0 |] else lat);
    } )
