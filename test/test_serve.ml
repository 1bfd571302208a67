(* The serving loop: cache correctness (cached answers byte-identical
   to uncached, across pool sizes and cache sizes), static-assignment
   determinism (same stream + config -> same answers and counters),
   per-worker accounting, open-loop pacing, and admission edge cases. *)

module Rng = Ds_util.Rng
module Gen = Ds_graph.Gen
module Levels = Ds_core.Levels
module Oracle = Ds_oracle.Oracle
module Serve = Ds_oracle.Serve
module Workload = Ds_oracle.Workload
module Pool = Ds_parallel.Pool

let oracle_for ~n ~seed =
  let g = Gen.erdos_renyi ~rng:(Rng.create seed) ~n ~avg_degree:6.0 () in
  let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n ~k:3 in
  Oracle.of_sketch
    (Ds_sketch.Sketch.of_tz_labels (Ds_core.Tz_centralized.build g ~levels))

let baseline oracle flat =
  Array.init (Array.length flat / 2) (fun i ->
      Oracle.query oracle flat.(2 * i) flat.((2 * i) + 1))

let check_answers name expected got =
  Alcotest.(check (array int)) name expected got

(* Cached == uncached, for every pool size and cache size, on skewed
   workloads that actually exercise the cache. The answer array must
   equal a plain per-pair Oracle.query sweep bit-for-bit. *)
let test_cache_correctness () =
  let n = 256 in
  let oracle = oracle_for ~n ~seed:31 in
  List.iter
    (fun (qseed, alpha) ->
      let flat =
        Workload.pairs_flat ~rng:(Rng.create qseed)
          (Workload.Zipf { alpha }) ~n ~count:4_000
      in
      let expected = baseline oracle flat in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              List.iter
                (fun cache_bits ->
                  let config =
                    { Serve.default_config with cache_bits; batch = 48 }
                  in
                  let out, stats = Serve.run ~pool ~config oracle flat in
                  check_answers
                    (Printf.sprintf
                       "qseed=%d alpha=%.1f domains=%d cache_bits=%d: cached \
                        == uncached"
                       qseed alpha domains cache_bits)
                    expected out;
                  if cache_bits = 0 then
                    Alcotest.(check (float 0.0))
                      "no cache -> no hits" 0.0 stats.Serve.hit_rate)
                [ 0; 4; 10 ]))
        [ 1; 2; 3; 8 ])
    [ (5, 0.8); (6, 1.3) ]

(* Same stream + same config -> identical answers and identical
   per-worker assignment counters, run to run, including under an
   open-loop rate (timing must never leak into results). *)
let test_determinism_with_rate () =
  let n = 128 in
  let oracle = oracle_for ~n ~seed:33 in
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 11) (Workload.Zipf { alpha = 1.2 })
      ~n ~count:2_000
  in
  let config =
    { Serve.batch = 32; cache_bits = 8; rate = 5_000_000. }
  in
  Pool.with_pool ~domains:4 (fun pool ->
      let out1, s1 = Serve.run ~pool ~config oracle flat in
      let out2, s2 = Serve.run ~pool ~config oracle flat in
      check_answers "same seed + rate: identical answers" out1 out2;
      Array.iteri
        (fun w (ws1 : Serve.worker_stats) ->
          let ws2 = s2.Serve.per_worker.(w) in
          Alcotest.(check int)
            (Printf.sprintf "worker %d served is deterministic" w)
            ws1.Serve.served ws2.Serve.served;
          Alcotest.(check int)
            (Printf.sprintf "worker %d hits are deterministic" w)
            ws1.Serve.hits ws2.Serve.hits)
        s1.Serve.per_worker;
      (* And the closed-loop answers match the rated ones. *)
      let out3, _ =
        Serve.run ~pool ~config:{ config with rate = 0. } oracle flat
      in
      check_answers "rate does not change answers" out1 out3)

let test_accounting () =
  let n = 128 in
  let oracle = oracle_for ~n ~seed:35 in
  let count = 3_000 in
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 21) (Workload.Zipf { alpha = 1.1 })
      ~n ~count
  in
  Pool.with_pool ~domains:3 (fun pool ->
      let config = { Serve.default_config with cache_bits = 9; batch = 17 } in
      let _, stats = Serve.run ~pool ~config oracle flat in
      Alcotest.(check int) "pairs" count stats.Serve.pairs;
      Alcotest.(check int) "workers = pool width" 3 stats.Serve.workers;
      let served =
        Array.fold_left
          (fun acc (w : Serve.worker_stats) -> acc + w.Serve.served)
          0 stats.Serve.per_worker
      in
      Alcotest.(check int) "per-worker served sums to pairs" count served;
      Array.iter
        (fun (w : Serve.worker_stats) ->
          Alcotest.(check int)
            (Printf.sprintf "worker %d: hits + misses = served" w.Serve.worker)
            w.Serve.served
            (w.Serve.hits + w.Serve.misses))
        stats.Serve.per_worker;
      Alcotest.(check bool)
        "hit rate in [0, 1]" true
        (stats.Serve.hit_rate >= 0.0 && stats.Serve.hit_rate <= 1.0);
      Alcotest.(check bool) "positive qps" true (stats.Serve.qps > 0.0);
      Alcotest.(check bool)
        "latency percentiles are ordered" true
        (stats.Serve.latency_ns.Serve.p50 <= stats.Serve.latency_ns.Serve.p99
        && stats.Serve.latency_ns.Serve.p99
           <= stats.Serve.latency_ns.Serve.p999
        && stats.Serve.latency_ns.Serve.p999
           <= stats.Serve.latency_ns.Serve.max))

(* A skewed stream must cache strictly better than a uniform one of
   the same size (that is the point of the hot-pair cache), and a
   hotter skew at least as well as a milder one. *)
let test_zipf_caches_better_than_uniform () =
  let n = 512 in
  let oracle = oracle_for ~n ~seed:37 in
  let count = 20_000 in
  let config = { Serve.default_config with cache_bits = 12 } in
  let hit_rate kind =
    let flat = Workload.pairs_flat ~rng:(Rng.create 41) kind ~n ~count in
    let _, stats = Serve.run ~config oracle flat in
    stats.Serve.hit_rate
  in
  let uniform = hit_rate Workload.Uniform in
  let mild = hit_rate (Workload.Zipf { alpha = 0.9 }) in
  let hot = hit_rate (Workload.Zipf { alpha = 1.5 }) in
  Alcotest.(check bool)
    (Printf.sprintf "zipf(0.9) %.3f > uniform %.3f" mild uniform)
    true (mild > uniform);
  Alcotest.(check bool)
    (Printf.sprintf "zipf(1.5) %.3f > zipf(0.9) %.3f" hot mild)
    true (hot > mild)

(* Open-loop pacing: at a finite offered rate the run cannot finish
   before the last request has arrived. *)
let test_open_loop_pacing () =
  let n = 128 in
  let oracle = oracle_for ~n ~seed:39 in
  let count = 4_000 in
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 51) Workload.Uniform ~n ~count
  in
  let rate = 1_000_000. in
  let config = { Serve.default_config with rate; batch = 64 } in
  let _, stats = Serve.run ~config oracle flat in
  let stream_ns = float_of_int (count - 1) /. rate *. 1e9 in
  Alcotest.(check bool)
    (Printf.sprintf "elapsed %.0f ns >= stream duration %.0f ns"
       stats.Serve.elapsed_ns stream_ns)
    true
    (stats.Serve.elapsed_ns >= stream_ns);
  Alcotest.(check (float 0.0)) "offered rate recorded" rate stats.Serve.offered_qps

let test_edge_cases () =
  let n = 64 in
  let oracle = oracle_for ~n ~seed:43 in
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 61) Workload.Uniform ~n ~count:100
  in
  let expected = baseline oracle flat in
  (* batch = 1 (pure per-pair dispatch) and batch > stream. *)
  List.iter
    (fun batch ->
      let out, _ =
        Serve.run ~config:{ Serve.default_config with batch } oracle flat
      in
      check_answers (Printf.sprintf "batch=%d" batch) expected out)
    [ 1; 7; 1_000 ];
  (* Empty stream: empty answers, zeroed stats. *)
  let out, stats = Serve.run oracle [||] in
  Alcotest.(check int) "empty stream -> no answers" 0 (Array.length out);
  Alcotest.(check int) "empty stream -> zero pairs" 0 stats.Serve.pairs;
  (* Invalid inputs raise. *)
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "odd-length stream" (fun () -> Serve.run oracle [| 1; 2; 3 |]);
  raises "batch = 0" (fun () ->
      Serve.run ~config:{ Serve.default_config with batch = 0 } oracle flat);
  raises "negative cache_bits" (fun () ->
      Serve.run
        ~config:{ Serve.default_config with cache_bits = -1 }
        oracle flat);
  raises "oversized cache_bits" (fun () ->
      Serve.run
        ~config:{ Serve.default_config with cache_bits = Serve.max_cache_bits + 1 }
        oracle flat);
  raises "negative rate" (fun () ->
      Serve.run ~config:{ Serve.default_config with rate = -1.0 } oracle flat)

let suite =
  [
    Alcotest.test_case "cached answers equal uncached across pools/caches"
      `Quick test_cache_correctness;
    Alcotest.test_case "same stream + rate -> identical answers and counters"
      `Quick test_determinism_with_rate;
    Alcotest.test_case "per-worker accounting reconciles" `Quick
      test_accounting;
    Alcotest.test_case "zipf traffic caches better than uniform" `Quick
      test_zipf_caches_better_than_uniform;
    Alcotest.test_case "open-loop pacing respects the offered rate" `Quick
      test_open_loop_pacing;
    Alcotest.test_case "admission edge cases and invalid configs" `Quick
      test_edge_cases;
  ]
