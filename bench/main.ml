(* The reproduction harness. Two parts:

   1. The per-theorem experiment tables (E1..E14 from DESIGN.md) — the
      "tables and figures" of this theory paper, regenerated on every
      run.
   2. Bechamel wall-clock microbenchmarks (B1..B10): construction and
      query throughput of the library primitives.

   Flags: --micro-only skips the experiment tables; --quick shortens
   the sampling quotas and the B12 batch (the CI profile — noisier
   fits, same schema); --trace also runs one traced multi-bf execution
   and writes BENCH_trace.rounds.jsonl / BENCH_trace.json (Chrome
   trace-event format); DS_DOMAINS=<d> runs the engine phases of the
   experiments on a d-domain pool. Results are identical for every d;
   only wall-clock changes. *)

module Rng = Ds_util.Rng
module Graph = Ds_graph.Graph
module Gen = Ds_graph.Gen
module Engine = Ds_congest.Engine
module Levels = Ds_core.Levels
module Label = Ds_core.Label
module Registry = Ds_experiments.Registry
module Pool = Ds_parallel.Pool
module Oracle = Ds_oracle.Oracle
module Workload = Ds_oracle.Workload
module Sketch_family = Ds_sketch.Family
module Sketch_build = Ds_sketch.Build
module Store = Ds_oracle.Sketch_store

(* Bound before the opens: Bechamel's [Toolkit] shadows the stub
   library's [Monotonic_clock] with its measure witness. *)
module Mclock = Monotonic_clock

open Bechamel
open Toolkit

(* B10: per-round cost on a quiescent-but-for-one-link network. Two
   adjacent nodes bounce one message forever while the other n-2 nodes
   (and all other links) stay silent. The engine's worklist makes this
   O(1) per round regardless of graph size — under the old full-rescan
   deliver it was O(|E|). *)
let ping_pong_protocol : (unit, int) Engine.protocol =
  {
    Engine.name = "ping-pong";
    max_msg_words = 1;
    msg_words = (fun _ -> 1);
    halted = (fun _ -> false);
    init =
      (fun api -> if api.Engine.id = 0 && api.Engine.degree > 0 then api.Engine.send 0 0);
    on_round =
      (fun api _ inbox ->
        (* Indexed loop, not [Inbox.iter]: the iter callback would
           allocate a closure per round, and B10 is measuring the
           engine's round overhead, not the harness protocol's. *)
        for j = 0 to Engine.Inbox.length inbox - 1 do
          api.Engine.send (Engine.Inbox.from inbox j) (Engine.Inbox.msg inbox j)
        done);
  }

(* B13: the opposite extreme from B10 — every node broadcasts every
   round, so every directed link delivers every round. On a complete
   graph this is the worst case for the per-link queues (n(n-1)
   deliveries and as many sends per step), which is exactly where the
   boxed-record queues used to pay an allocation per message. *)
let flood_protocol : (unit, int) Engine.protocol =
  {
    Engine.name = "flood";
    max_msg_words = 1;
    msg_words = (fun _ -> 1);
    halted = (fun _ -> false);
    init = (fun api -> api.Engine.broadcast 0);
    on_round =
      (fun api _ inbox ->
        if Engine.Inbox.length inbox > 0 then api.Engine.broadcast 0);
  }

let bench_tests () =
  let n = 256 in
  let rng = Rng.create 1 in
  let g = Gen.erdos_renyi ~rng ~n ~avg_degree:6.0 () in
  let levels = Levels.sample ~rng:(Rng.create 2) ~n ~k:3 in
  let labels = Ds_core.Tz_centralized.build g ~levels in
  let slack = Ds_core.Slack.build_distributed ~rng:(Rng.create 3) g ~eps:0.25 in
  (* Query pairs are drawn up front and cycled: drawing from the RNG
     inside the measured closure made the per-run cost depend on the
     RNG state, which showed up as poor r^2 on B4/B5. *)
  let pairs =
    let pair_rng = Rng.create 4 in
    Array.init 64 (fun _ ->
        let u = Rng.int pair_rng n in
        let v = (u + 1 + Rng.int pair_rng (n - 1)) mod n in
        (u, v))
  in
  let pair_idx = ref 0 in
  let pick () =
    let p = pairs.(!pair_idx land 63) in
    incr pair_idx;
    p
  in
  let big_n = 4096 in
  let big_g = Gen.erdos_renyi ~rng:(Rng.create 6) ~n:big_n ~avg_degree:6.0 () in
  (* Two groups with different sampling configs: the sub-microsecond
     benchmarks need run counts to start high (so per-sample overhead
     and GC stabilisation do not swamp the signal), while the
     multi-millisecond builds need them to start at 1 (so the quota
     still buys enough samples for the fit). *)
  let slow =
    [
      Test.make ~name:"B1 tz-centralized build (n=256,k=3)"
        (Staged.stage (fun () -> Ds_core.Tz_centralized.build g ~levels));
      Test.make ~name:"B2 tz-distributed build (n=256,k=3)"
        (Staged.stage (fun () -> Ds_core.Tz_distributed.build g ~levels));
      Test.make ~name:"B3 tz-echo build (n=256,k=3)"
        (Staged.stage (fun () -> Ds_core.Tz_echo.build g ~levels));
      Test.make ~name:"B6 dijkstra sssp (n=256)"
        (Staged.stage (fun () -> Ds_graph.Dijkstra.sssp g ~src:0));
      Test.make ~name:"B7 spanner extraction (n=256,k=3)"
        (Staged.stage (fun () -> Ds_core.Spanner.of_levels g ~levels));
      Test.make ~name:"B8 cdg build distributed (n=256,eps=.25,k=2)"
        (Staged.stage (fun () ->
             Ds_core.Cdg.build_distributed ~rng:(Rng.create 5) g ~eps:0.25
               ~k:2));
      (* A full multi-bf execution per run (create + run to
         quiescence): every sample is the same amount of protocol
         work. The old rebuild-on-quiescence scheme mixed one-round
         steps with occasional expensive rebuilds and tanked the OLS
         fit. *)
      Test.make ~name:"B9 engine multi-bf run (n=256)"
        (Staged.stage (fun () ->
             let eng =
               Engine.create g
                 (Ds_congest.Multi_bf.protocol ~n:(Graph.n g)
                    ~is_source:(fun u -> u < 8)
                    ~bound:(fun _ -> Ds_graph.Dist.none))
             in
             Engine.run eng));
    ]
  in
  let oracle = Oracle.of_labels labels in
  let fast =
    [
      Test.make ~name:"B4 label query"
        (Staged.stage (fun () ->
             let u, v = pick () in
             Label.query labels.(u) labels.(v)));
      (* Same pairs, same labels as B4, flat-array oracle instead of
         per-node hashtables: the table in BENCH_engine.json is the
         hashtbl-vs-compact comparison. *)
      Test.make ~name:"B11 oracle compact query (vs B4 hashtbl)"
        (Staged.stage (fun () ->
             let u, v = pick () in
             Oracle.query oracle u v));
      Test.make ~name:"B5 slack query (eps=0.25)"
        (Staged.stage (fun () ->
             let u, v = pick () in
             Ds_core.Slack.query slack.Ds_core.Slack.sketches.(u)
               slack.Ds_core.Slack.sketches.(v)));
      Test.make ~name:"B10 quiet engine round (ping-pong, n=4096)"
        (Staged.stage
           (let eng = Engine.create big_g ping_pong_protocol in
            fun () -> Engine.step eng));
    ]
  in
  let flood_g = Gen.complete ~rng:(Rng.create 10) ~n:128 () in
  let slow =
    slow
    @ [
        Test.make ~name:"B13 flood round (complete n=128, 16k links)"
          (Staged.stage
             (let eng = Engine.create flood_g flood_protocol in
              (* one warm step so ring and inbox capacities reach
                 their high-water mark before sampling starts *)
              Engine.step eng;
              fun () -> Engine.step eng));
      ]
  in
  (slow, fast)

module Json = Ds_util.Json

let opt_int = function Some v -> Json.Int v | None -> Json.Null

(* [extra] carries the structured sections (the B12 scaling table, the
   B16/B17 serving sweeps) next to the flat benchmark rows. [cores]
   records the host parallelism the run had available — without it the
   domain-scaling rows are uninterpretable (a 1-core container shows
   flat QPS for every pool size, and that is correct behaviour, not a
   regression). *)
let save_json ~path ~extra rows =
  let row_json (name, ns_per_run, r2) =
    Json.Obj
      [
        ("name", Json.String name);
        ("ns_per_run", Json.Float ns_per_run);
        ("r_square", match r2 with Some v -> Json.Float v | None -> Json.Null);
      ]
  in
  let doc =
    Json.Obj
      (("benchmarks", Json.List (List.map row_json rows))
      :: extra
      @ [
          ("cores", Json.Int (Domain.recommended_domain_count ()));
          (* Process-level memory footprint of the whole bench run: a
             regression canary, not a per-benchmark figure. *)
          ( "mem",
            Json.Obj
              [
                ("rss_kb", opt_int (Ds_util.Mem.rss_kb ()));
                ("hwm_kb", opt_int (Ds_util.Mem.hwm_kb ()));
                ("heap_words", Json.Int (Ds_util.Mem.heap_words ()));
              ] );
        ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  close_out oc;
  Printf.printf "(json: %s)\n" path

(* B12: batched oracle queries fanned out over the worker pool, one
   row per pool size. Not a bechamel fit — the quantity of interest is
   bulk throughput (ns per query over a 200k-pair batch), measured
   directly with the monotonic clock after a warm-up pass. On a
   multi-core host the ns/query figure drops as domains grow; answers
   are bit-identical for every pool size (pinned by the test suite).
   Returns the flat rows plus the structured before/after scaling
   table (the diagnosis artifact behind the B12 fix). *)
let oracle_batch_rows ~quick () =
  let n = 1024 and pairs_count = if quick then 50_000 else 200_000 in
  let g = Gen.erdos_renyi ~rng:(Rng.create 7) ~n ~avg_degree:6.0 () in
  let levels = Levels.sample ~rng:(Rng.create 8) ~n ~k:3 in
  let oracle = Oracle.of_labels (Ds_core.Tz_centralized.build g ~levels) in
  let pairs =
    Workload.pairs ~rng:(Rng.create 9) Workload.Uniform ~n ~count:pairs_count
  in
  (* Best of [passes]: a single 50 ms batch is one scheduler quantum
     draw, and on a busy host the row-to-row spread (±15%) swamps the
     domain effect being measured. The minimum over several passes
     estimates the intrinsic cost; each pass is a fresh full batch. *)
  let passes = if quick then 3 else 5 in
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 9) Workload.Uniform ~n
      ~count:pairs_count
  in
  (* Boxed first (the "before" of the regression stays on record),
     then the flat layout: same seed, same pairs, same oracle — the
     delta is purely the [(u,v)] pointer chase plus the cache-line
     sharing at chunk boundaries. *)
  let measured =
    List.map
      (fun domains ->
        Pool.with_pool ~domains (fun pool ->
            ignore (Oracle.query_batch ~pool oracle pairs);
            let best = ref infinity in
            for _ = 1 to passes do
              let _, stats =
                Oracle.run_batch ~pool ~latency_sample:0 oracle pairs
              in
              if stats.Oracle.elapsed_ns < !best then
                best := stats.Oracle.elapsed_ns
            done;
            ignore (Oracle.query_batch_flat ~pool oracle flat);
            let best_flat = ref infinity in
            for _ = 1 to passes do
              let _, stats =
                Oracle.run_batch_flat ~pool ~latency_sample:0 oracle flat
              in
              if stats.Oracle.elapsed_ns < !best_flat then
                best_flat := stats.Oracle.elapsed_ns
            done;
            ( domains,
              !best /. float_of_int pairs_count,
              !best_flat /. float_of_int pairs_count )))
      [ 1; 2; 4; 8 ]
  in
  let rows =
    List.concat_map
      (fun (domains, boxed, flat_ns) ->
        [
          ( Printf.sprintf
              "B12 oracle batch query boxed (n=1024, %dk pairs, domains=%d)"
              (pairs_count / 1000) domains,
            boxed,
            None );
          ( Printf.sprintf
              "B12 oracle batch query flat (n=1024, %dk pairs, domains=%d)"
              (pairs_count / 1000) domains,
            flat_ns,
            None );
        ])
      measured
  in
  let table =
    Json.Obj
      [
        ("bench", Json.String "B12");
        ("n", Json.Int n);
        ("pairs", Json.Int pairs_count);
        ( "root_cause",
          Json.String
            "per-pair closure dispatch through parallel_for plus a \
             dependent (u,v) tuple load per pair and false sharing of \
             result cache lines at chunk boundaries; fixed by \
             chunk-granularity dispatch over a flat endpoint array with \
             8-pair block-aligned writes" );
        ( "rows",
          Json.List
            (List.map
               (fun (domains, boxed, flat_ns) ->
                 Json.Obj
                   [
                     ("domains", Json.Int domains);
                     ("before_boxed_ns_per_pair", Json.Float boxed);
                     ("after_flat_ns_per_pair", Json.Float flat_ns);
                   ])
               measured) );
      ]
  in
  (rows, table)

(* B16/B17: the serving loop (Serve.run). B16 measures delivered QPS
   vs pool size on a large Zipf batch, closed loop, hot-pair cache on
   — the row the CI throughput floor gates. B17 sweeps the Zipf
   exponent at a fixed configuration and records the measured cache
   hit rate (deterministic: static block-cyclic assignment makes cache
   contents a pure function of stream and config). *)
let serve_rows ~quick () =
  let n = 1024 in
  let g = Gen.erdos_renyi ~rng:(Rng.create 7) ~n ~avg_degree:6.0 () in
  let levels = Levels.sample ~rng:(Rng.create 8) ~n ~k:3 in
  let oracle = Oracle.of_labels (Ds_core.Tz_centralized.build g ~levels) in
  let serve = Ds_oracle.Serve.run in
  let b16_pairs = if quick then 100_000 else 200_000 in
  let b16_alpha = 1.2 and b16_bits = 12 in
  let b16_flat =
    Workload.pairs_flat ~rng:(Rng.create 15)
      (Workload.Zipf { alpha = b16_alpha })
      ~n ~count:b16_pairs
  in
  let passes = if quick then 2 else 4 in
  let b16 =
    List.map
      (fun domains ->
        Pool.with_pool ~domains (fun pool ->
            let config =
              { Ds_oracle.Serve.default_config with cache_bits = b16_bits }
            in
            ignore (serve ~pool ~config oracle b16_flat);
            let best_qps = ref 0. and hit_rate = ref 0. in
            for _ = 1 to passes do
              let _, stats = serve ~pool ~config oracle b16_flat in
              if stats.Ds_oracle.Serve.qps > !best_qps then
                best_qps := stats.Ds_oracle.Serve.qps;
              hit_rate := stats.Ds_oracle.Serve.hit_rate
            done;
            (domains, !best_qps, !hit_rate)))
      [ 1; 2; 4; 8 ]
  in
  let b17_pairs = 100_000 and b17_bits = 14 in
  let b17 =
    List.map
      (fun kind ->
        let flat =
          Workload.pairs_flat ~rng:(Rng.create 16) kind ~n ~count:b17_pairs
        in
        let config =
          { Ds_oracle.Serve.default_config with cache_bits = b17_bits }
        in
        let _, stats = serve ~config oracle flat in
        (kind, stats.Ds_oracle.Serve.hit_rate, stats.Ds_oracle.Serve.qps))
      [
        Workload.Uniform;
        Workload.Zipf { alpha = 0.6 };
        Workload.Zipf { alpha = 0.9 };
        Workload.Zipf { alpha = 1.2 };
        Workload.Zipf { alpha = 1.5 };
      ]
  in
  (* B18: the metrics plane's cost on the serving hot path. Same
     stream and config as B16 at a fixed pool width, best-of-passes on
     both sides; obs + a live sampler is the full instrumented
     configuration the CI smoke runs. The gate (ci.yml) holds the
     delta at <= 2% — and 0% when [?obs] is absent, which is B16's
     own row measured with no registry in the process. *)
  let b18_domains = 4 in
  (* Best-of-5 on both sides (B12's discipline): the off/on delta is a
     low-single-digit percentage, smaller than run-to-run scheduler
     noise at lower pass counts — the committed number must agree with
     the <= 2% CI gate. *)
  let b18_passes = if quick then 3 else 5 in
  let b18_off, b18_on =
    Pool.with_pool ~domains:b18_domains (fun pool ->
        let config =
          { Ds_oracle.Serve.default_config with cache_bits = b16_bits }
        in
        let best run =
          ignore (run ());
          let best_qps = ref 0. in
          for _ = 1 to b18_passes do
            let _, stats = run () in
            if stats.Ds_oracle.Serve.qps > !best_qps then
              best_qps := stats.Ds_oracle.Serve.qps
          done;
          !best_qps
        in
        let off = best (fun () -> serve ~pool ~config oracle b16_flat) in
        let on =
          best (fun () ->
              let obs = Ds_obs.Obs.create () in
              let sampler = Ds_obs.Sampler.create ~interval_ms:100 obs in
              serve ~pool ~config ~obs ~sampler oracle b16_flat)
        in
        (off, on))
  in
  let b18_overhead_pct = (b18_off -. b18_on) /. b18_off *. 100. in
  let rows =
    List.map
      (fun (domains, qps, hit_rate) ->
        ( Printf.sprintf
            "B16 serve loop (n=%d, %dk zipf:%.1f pairs, cache=%db, \
             hit=%.2f, domains=%d)"
            n (b16_pairs / 1000) b16_alpha b16_bits hit_rate domains,
          1e9 /. qps,
          None ))
      b16
    @ [
        ( Printf.sprintf
            "B18 serve with obs+sampler (n=%d, %dk zipf:%.1f pairs, \
             domains=%d, overhead=%.2f%%)"
            n (b16_pairs / 1000) b16_alpha b18_domains b18_overhead_pct,
          1e9 /. b18_on,
          None );
      ]
    @ List.map
        (fun (kind, hit_rate, qps) ->
          ( Printf.sprintf
              "B17 serve cache hit %.3f (n=%d, %dk %s pairs, cache=%db)"
              hit_rate n (b17_pairs / 1000) (Workload.name kind) b17_bits,
            1e9 /. qps,
            None ))
        b17
  in
  let table =
    Json.Obj
      [
        ( "b16",
          Json.Obj
            [
              ("n", Json.Int n);
              ("pairs", Json.Int b16_pairs);
              ("workload", Json.String (Printf.sprintf "zipf(%.2f)" b16_alpha));
              ("cache_bits", Json.Int b16_bits);
              ( "rows",
                Json.List
                  (List.map
                     (fun (domains, qps, hit_rate) ->
                       Json.Obj
                         [
                           ("domains", Json.Int domains);
                           ("qps", Json.Float qps);
                           ("ns_per_pair", Json.Float (1e9 /. qps));
                           ("hit_rate", Json.Float hit_rate);
                         ])
                     b16) );
            ] );
        ( "b17",
          Json.Obj
            [
              ("n", Json.Int n);
              ("pairs", Json.Int b17_pairs);
              ("domains", Json.Int 1);
              ("cache_bits", Json.Int b17_bits);
              ( "rows",
                Json.List
                  (List.map
                     (fun (kind, hit_rate, qps) ->
                       Json.Obj
                         [
                           ("workload", Json.String (Workload.name kind));
                           ( "alpha",
                             match kind with
                             | Workload.Zipf { alpha } -> Json.Float alpha
                             | Workload.Uniform -> Json.Null );
                           ("hit_rate", Json.Float hit_rate);
                           ("qps", Json.Float qps);
                         ])
                     b17) );
            ] );
        ( "b18",
          Json.Obj
            [
              ("n", Json.Int n);
              ("pairs", Json.Int b16_pairs);
              ("domains", Json.Int b18_domains);
              ("cache_bits", Json.Int b16_bits);
              ("qps_off", Json.Float b18_off);
              ("qps_on", Json.Float b18_on);
              ("overhead_pct", Json.Float b18_overhead_pct);
            ] );
      ]
  in
  (rows, table)

let now_ns () = Int64.to_float (Mclock.now ())

(* B15: a distributed TZ build at scale-experiment size, one pass,
   directly timed (a build is far past bechamel's sweet spot). The
   committed SCALE.json covers the full n sweep; this row keeps a scale
   point inside the bench artifact. *)
let scale_build_row ~quick () =
  let n = if quick then 20_000 else 100_000 in
  let g =
    Gen.streaming_sparse ~rng:(Rng.create 13) ~n ~avg_degree:8.0 ()
  in
  let k = 4 in
  let levels = Levels.sample ~rng:(Rng.create 14) ~n ~k in
  let domains =
    match Sys.getenv_opt "DS_DOMAINS" with
    | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
    | None -> min 4 (Domain.recommended_domain_count ())
  in
  Pool.with_pool ~domains (fun pool ->
      let t0 = now_ns () in
      ignore (Ds_core.Tz_distributed.build ~pool g ~levels);
      let dt = now_ns () -. t0 in
      [
        ( Printf.sprintf "B15 tz build at scale (n=%d,k=%d,domains=%d)" n k
            domains,
          dt,
          None );
      ])

(* B19/B20/B22: the multi-family platform, one row triple per sketch
   family. B19 is a full distributed build (directly timed, best of
   passes, like B15); B20 is the serving cost of the resulting
   heap-backed oracle in ns/pair over the flat batch path (the same
   measurement style as B12, one fixed pool width); B22 repeats the
   B20 measurement against a mapped-backing oracle (save -> load
   ~mode:Mmap of the same sketch), so the heap and Bigarray query
   kernels are compared on identical inputs. A "families" table in the
   JSON carries the structured view: build ns, sketch words, serve
   ns/pair for both backings. *)
let family_rows ~quick () =
  let n = if quick then 512 else 2048 in
  let pairs_count = if quick then 20_000 else 100_000 in
  let k = 3 and seed = 19 in
  let g =
    Gen.streaming_sparse ~rng:(Rng.create 19) ~n ~avg_degree:6.0 ()
  in
  let domains =
    match Sys.getenv_opt "DS_DOMAINS" with
    | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
    | None -> min 4 (Domain.recommended_domain_count ())
  in
  let passes = if quick then 1 else 3 in
  Pool.with_pool ~domains (fun pool ->
      let flat =
        Workload.pairs_flat ~rng:(Rng.create 20) Workload.Uniform ~n
          ~count:pairs_count
      in
      let per_family =
        List.map
          (fun family ->
            let fname = Sketch_family.name family in
            let best_build = ref infinity in
            let built = ref None in
            for _ = 1 to passes do
              let t0 = now_ns () in
              let r = Sketch_build.run ~pool ~family g ~k ~seed in
              let dt = now_ns () -. t0 in
              if dt < !best_build then best_build := dt;
              built := Some r
            done;
            let r = Option.get !built in
            let oracle = Oracle.of_sketch r.Sketch_build.sketch in
            let serve_best o =
              let best = ref infinity in
              for _ = 1 to passes + 1 do
                let t0 = now_ns () in
                ignore (Oracle.query_batch_flat ~pool o flat);
                let dt = now_ns () -. t0 in
                if dt < !best then best := dt
              done;
              !best /. float_of_int pairs_count
            in
            let ns_per_pair = serve_best oracle in
            let mmap_ns_per_pair =
              let path = Filename.temp_file "dss_b22" ".dsk" in
              Fun.protect
                ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
                (fun () ->
                  Store.save path (Store.v ~seed r.Sketch_build.sketch);
                  serve_best
                    (Oracle.of_store (Store.load ~mode:Store.Mmap path)))
            in
            ( fname,
              !best_build,
              Oracle.size_words oracle,
              ns_per_pair,
              mmap_ns_per_pair ))
          Sketch_family.all
      in
      let rows =
        List.concat_map
          (fun (fname, build_ns, _, ns_per_pair, mmap_ns_per_pair) ->
            [
              ( Printf.sprintf "B19 %s build (n=%d,k=%d,domains=%d)" fname n
                  k domains,
                build_ns,
                None );
              ( Printf.sprintf "B20 %s serve per pair (n=%d,%dk pairs,\
                                domains=%d)"
                  fname n (pairs_count / 1000) domains,
                ns_per_pair,
                None );
              ( Printf.sprintf "B22 %s serve per pair, mmap (n=%d,%dk pairs,\
                                domains=%d)"
                  fname n (pairs_count / 1000) domains,
                mmap_ns_per_pair,
                None );
            ])
          per_family
      in
      let table =
        Json.Obj
          [
            ("bench", Json.String "B19/B20/B22");
            ("n", Json.Int n);
            ("k", Json.Int k);
            ("pairs", Json.Int pairs_count);
            ("domains", Json.Int domains);
            ( "rows",
              Json.List
                (List.map
                   (fun (fname, build_ns, words, ns_per_pair, mmap_ns) ->
                     Json.Obj
                       [
                         ("sketch_family", Json.String fname);
                         ("build_ns", Json.Float build_ns);
                         ("size_words", Json.Int words);
                         ("serve_ns_per_pair", Json.Float ns_per_pair);
                         ("serve_ns_per_pair_mmap", Json.Float mmap_ns);
                       ])
                   per_family) );
          ]
      in
      (rows, table))

(* B21: time-to-first-query of a scale-sized snapshot, heap load vs
   zero-copy map. Both legs do the whole cold-start path — open the
   file, construct the oracle, answer one query — so the row is the
   restart-latency number an operator cares about, not just the I/O.
   The heap leg reads, checksums and copies every section; the mmap
   leg maps the file and validates the header and offset table only,
   so its cost is near-constant in the snapshot size. Built once
   (scale-experiment shape), saved to a temp file,
   each leg best-of [passes]. *)
let snapshot_rows ~quick () =
  let n = 100_000 in
  let g =
    Gen.streaming_sparse ~rng:(Rng.create 23) ~n ~avg_degree:8.0 ()
  in
  let k = 4 in
  let levels = Levels.sample ~rng:(Rng.create 24) ~n ~k in
  let domains =
    match Sys.getenv_opt "DS_DOMAINS" with
    | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
    | None -> min 4 (Domain.recommended_domain_count ())
  in
  let passes = if quick then 3 else 5 in
  let labels =
    Pool.with_pool ~domains (fun pool ->
        let r = Ds_core.Tz_distributed.build ~pool g ~levels in
        r.Ds_core.Tz_distributed.labels)
  in
  let store = Store.of_labels ~seed:23 ~graph_family:"streaming_sparse" labels in
  let path = Filename.temp_file "dss_b21" ".dsk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save path store;
      let file_bytes =
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        close_in ic;
        len
      in
      let ttfq mode =
        let once () =
          let t0 = now_ns () in
          let o = Oracle.of_store (Store.load ~mode path) in
          ignore (Oracle.query o 0 (n / 2));
          now_ns () -. t0
        in
        let best = ref (once ()) in
        for _ = 2 to passes do
          let dt = once () in
          if dt < !best then best := dt
        done;
        !best
      in
      let heap_ns = ttfq Store.Heap in
      let mmap_ns = ttfq Store.Mmap in
      let speedup = heap_ns /. mmap_ns in
      let rows =
        [
          ( Printf.sprintf "B21 snapshot TTFQ heap load (n=%d,k=%d,%d MB)" n k
              (file_bytes / 1_000_000),
            heap_ns,
            None );
          ( Printf.sprintf "B21 snapshot TTFQ mmap load (n=%d,k=%d,%d MB)" n k
              (file_bytes / 1_000_000),
            mmap_ns,
            None );
        ]
      in
      let table =
        Json.Obj
          [
            ("bench", Json.String "B21");
            ("n", Json.Int n);
            ("k", Json.Int k);
            ("file_bytes", Json.Int file_bytes);
            ("heap_ttfq_ns", Json.Float heap_ns);
            ("mmap_ttfq_ns", Json.Float mmap_ns);
            ("mmap_speedup", Json.Float speedup);
          ]
      in
      (rows, table))

let run_microbenches ~quick () =
  print_endline "### Microbenchmarks (Bechamel, monotonic clock)\n";
  let slow_tests, fast_tests = bench_tests () in
  (* ~1.5 s of sampling per benchmark — the 0.5 s quota left too few
     long samples for a stable OLS fit. The fast group additionally
     starts run counts at 100 (warm start): per-sample measurement and
     GC-stabilisation overhead swamps nanosecond-scale bodies when
     samples begin at one run. --quick (the CI smoke profile) cuts the
     quota to 0.3 s: fits get noisier but the schema and coverage are
     identical, so the uploaded JSON is still comparable run to run. *)
  let quota = Time.second (if quick then 0.3 else 1.5) in
  let slow_cfg =
    Benchmark.cfg ~limit:2000 ~quota ~stabilize:true ~kde:None ()
  in
  let fast_cfg =
    Benchmark.cfg ~limit:2000 ~quota ~start:10 ~sampling:(`Geometric 1.05)
      ~stabilize:false ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let analyze cfg tests =
    let raw =
      Benchmark.all cfg
        Instance.[ monotonic_clock ]
        (Test.make_grouped ~name:"distsketch" tests)
    in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
  in
  let rows =
    analyze slow_cfg slow_tests @ analyze fast_cfg fast_tests
    |> List.sort compare
  in
  let t =
    Ds_util.Table.create ~title:"wall-clock per run"
      ~headers:[ "benchmark"; "time/run"; "r^2" ]
  in
  let pretty_ns est =
    if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
    else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
    else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
    else Printf.sprintf "%.1f ns" est
  in
  let json_rows =
    List.map
      (fun (name, r) ->
        let est =
          match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan
        in
        let r2 = Analyze.OLS.r_square r in
        let r2s =
          match r2 with Some v -> Printf.sprintf "%.4f" v | None -> "-"
        in
        Ds_util.Table.add_row t [ name; pretty_ns est; r2s ];
        (name, est, r2))
      rows
  in
  let b12_rows, b12_table = oracle_batch_rows ~quick () in
  let b16_rows, serve_table = serve_rows ~quick () in
  let b19_rows, families_table = family_rows ~quick () in
  let b21_rows, snapshot_table = snapshot_rows ~quick () in
  let batch_rows =
    b12_rows
    @ scale_build_row ~quick ()
    @ b16_rows
    @ b19_rows
    @ b21_rows
  in
  List.iter
    (fun (name, est, _) ->
      Ds_util.Table.add_row t [ name; pretty_ns est; "-" ])
    batch_rows;
  Ds_util.Table.print t;
  save_json ~path:"BENCH_engine.json"
    ~extra:
      [
        ("b12_scaling", b12_table);
        ("serve", serve_table);
        ("families", families_table);
        ("snapshot", snapshot_table);
      ]
    (json_rows @ batch_rows)

(* --trace: one traced multi-bf execution, exported as the round log
   and a Chrome trace file next to BENCH_engine.json. *)
let run_traced () =
  let n = 256 in
  let g = Gen.erdos_renyi ~rng:(Rng.create 1) ~n ~avg_degree:6.0 () in
  let tracer = Ds_congest.Trace.create () in
  let _, m =
    Ds_congest.Multi_bf.run ~tracer g
      ~sources:(List.init 8 Fun.id)
      ~bound:(fun _ -> Ds_graph.Dist.none)
  in
  let write path contents =
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    Printf.printf "(trace: %s)\n" path
  in
  write "BENCH_trace.rounds.jsonl" (Ds_congest.Trace.jsonl tracer);
  write "BENCH_trace.json"
    (Ds_congest.Trace.chrome ~phases:(Ds_congest.Metrics.phases m) tracer);
  let p = Ds_congest.Trace.profile tracer in
  Printf.printf
    "traced multi-bf (n=%d): %d rounds, peak %d msgs/round at round %d, \
     peak backlog %d\n"
    n p.Ds_congest.Trace.rounds p.Ds_congest.Trace.peak_delivered
    p.Ds_congest.Trace.peak_delivered_round p.Ds_congest.Trace.max_link_backlog

let () =
  let micro_only =
    Array.exists (fun a -> a = "--micro-only") Sys.argv
  in
  let report =
    Array.exists (fun a -> a = "--report") Sys.argv
  in
  let trace =
    Array.exists (fun a -> a = "--trace") Sys.argv
  in
  let quick =
    Array.exists (fun a -> a = "--quick") Sys.argv
  in
  print_endline
    "Reproduction harness: 'Efficient Computation of Distance Sketches in \
     Distributed Networks' (Das Sarma, Dinitz, Pandurangan; SPAA 2012).\n\
     The paper is theory-only; each experiment below reproduces one theorem \
     or lemma (see DESIGN.md / EXPERIMENTS.md).\n";
  if not micro_only then begin
    let domains =
      match Sys.getenv_opt "DS_DOMAINS" with
      | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
      | None -> 1
    in
    Pool.with_pool ~domains (fun pool ->
        ignore (Registry.run_all ~pool ());
        if report then
          List.iter
            (Printf.printf "wrote %s\n")
            (Registry.write_files ~pool ~dir:"." ()))
  end;
  if trace then run_traced ();
  run_microbenches ~quick ()
