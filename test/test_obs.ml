(* The metrics plane's contract: sharded instruments reduce to exact
   totals once writers quiesce, the approximate (histogram) percentiles
   agree with the exact ones to within one log2 bucket, the sampler's
   cumulative points reconcile with the run's own accounting, the
   engine's [engine.*] counters equal its Metrics at every pool width,
   and attaching [?obs] never perturbs a [?tracer]'s exports. *)

module Rng = Ds_util.Rng
module Stats = Ds_util.Stats
module Mem = Ds_util.Mem
module Json = Ds_util.Json
module Graph = Ds_graph.Graph
module Metrics = Ds_congest.Metrics
module Trace = Ds_congest.Trace
module Multi_bf = Ds_congest.Multi_bf
module Obs = Ds_obs.Obs
module Obs_doc = Ds_obs.Obs_doc
module Sampler = Ds_obs.Sampler
module Oracle = Ds_oracle.Oracle
module Serve = Ds_oracle.Serve
module Workload = Ds_oracle.Workload
module Pool = Ds_parallel.Pool

(* --- registry ------------------------------------------------------ *)

let test_registration () =
  let t = Obs.create ~shards:4 () in
  Alcotest.(check int) "shards rounded" 4 (Obs.shards t);
  let c1 = Obs.counter t "a.count" in
  let c2 = Obs.counter t "a.count" in
  Obs.incr c1 ~shard:0;
  Obs.add c2 ~shard:1 2;
  Alcotest.(check int) "idempotent: same instrument" 3 (Obs.counter_value c1);
  Alcotest.check_raises "kind mismatch raises"
    (Invalid_argument "Obs.gauge: \"a.count\" already registered with another kind")
    (fun () -> ignore (Obs.gauge t "a.count"));
  let t8 = Obs.create ~shards:5 () in
  Alcotest.(check int) "shards rounded up to pow2" 8 (Obs.shards t8)

let test_counter_reduce_across_shards () =
  let t = Obs.create ~shards:8 () in
  let c = Obs.counter t "c" in
  for w = 0 to 7 do
    Obs.add c ~shard:w (w + 1)
  done;
  Alcotest.(check int) "sum over shards" 36 (Obs.counter_value c);
  (* out-of-range shard ids wrap with [land mask], never raise *)
  Obs.add c ~shard:1000 100;
  Alcotest.(check int) "wrapped shard lands in-bounds" 136 (Obs.counter_value c)

let test_gauge_semantics () =
  let t = Obs.create ~shards:4 () in
  let g = Obs.gauge t "g" in
  Obs.set g ~shard:0 7;
  Obs.set g ~shard:0 3;
  Alcotest.(check int) "single-writer gauge: last value" 3 (Obs.gauge_value g);
  Obs.set g ~shard:1 5;
  Obs.set g ~shard:2 2;
  Alcotest.(check int) "per-worker gauges sum" 10 (Obs.gauge_value g);
  let m = Obs.gauge t "m" in
  Obs.set_max m ~shard:0 4;
  Obs.set_max m ~shard:0 9;
  Obs.set_max m ~shard:0 6;
  Alcotest.(check int) "set_max keeps the peak" 9 (Obs.gauge_value m)

let test_histogram_reduce () =
  let t = Obs.create ~shards:4 () in
  let h = Obs.histogram t "h" in
  Obs.observe h ~shard:0 1;
  Obs.observe h ~shard:1 3;
  Obs.observe h ~shard:2 1000;
  let s = Obs.hist_value h in
  Alcotest.(check int) "count" 3 s.Obs.count;
  Alcotest.(check int) "sum" 1004 s.Obs.sum;
  Alcotest.(check int) "bucket of 1" 1 s.Obs.buckets.(Stats.log2_bucket 1);
  Alcotest.(check int) "bucket of 3" 1 s.Obs.buckets.(Stats.log2_bucket 3);
  Alcotest.(check int) "bucket of 1000" 1
    s.Obs.buckets.(Stats.log2_bucket 1000);
  Alcotest.(check int) "p100 = upper bound of top bucket"
    (Stats.log2_bucket_upper (Stats.log2_bucket 1000))
    (Obs.hist_percentile s 100.);
  let empty = Obs.hist_value (Obs.histogram t "h2") in
  Alcotest.(check int) "empty histogram percentile" 0
    (Obs.hist_percentile empty 99.)

let test_value_by_name () =
  let t = Obs.create () in
  let c = Obs.counter t "x" in
  Obs.add c ~shard:0 5;
  Alcotest.(check int) "counter by name" 5 (Obs.value t "x");
  Alcotest.(check int) "unregistered name reads 0" 0 (Obs.value t "nope")

(* --- log2 buckets and the +/-1-bucket percentile pin (S1) ---------- *)

let test_log2_edges () =
  Alcotest.(check int) "v<=0 -> bucket 0" 0 (Stats.log2_bucket 0);
  Alcotest.(check int) "negative -> bucket 0" 0 (Stats.log2_bucket (-5));
  Alcotest.(check int) "1 -> bucket 1" 1 (Stats.log2_bucket 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (Stats.log2_bucket 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (Stats.log2_bucket 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (Stats.log2_bucket 4);
  (* OCaml's max_int is 2^62 - 1: bit-length 62, one below the clamp *)
  Alcotest.(check int) "max_int in bucket 62" 62 (Stats.log2_bucket max_int);
  Alcotest.(check int) "upper 0" 0 (Stats.log2_bucket_upper 0);
  Alcotest.(check int) "upper 1" 1 (Stats.log2_bucket_upper 1);
  Alcotest.(check int) "upper 10" 1023 (Stats.log2_bucket_upper 10);
  Alcotest.(check int) "upper 63 saturates" max_int
    (Stats.log2_bucket_upper 63);
  (* every positive v lies in (upper (b-1), upper b] *)
  List.iter
    (fun v ->
      let b = Stats.log2_bucket v in
      Alcotest.(check bool)
        (Printf.sprintf "%d within its bucket bounds" v)
        true
        (v > Stats.log2_bucket_upper (b - 1) && v <= Stats.log2_bucket_upper b))
    [ 1; 2; 3; 7; 8; 9; 255; 256; 1_000_000; max_int ]

(* Exact percentile vs histogram percentile on the same samples: the
   histogram answer is a bucket upper bound, so the pin is bucket
   agreement to within one (the exact value's bucket and the reported
   bound's bucket differ by at most 1). *)
let test_exact_vs_histogram_percentiles =
  QCheck.Test.make ~name:"histogram percentile within one log2 bucket"
    ~count:60
    QCheck.(pair (int_range 1 100000) small_nat)
    (fun (seed, extra) ->
      let rng = Rng.create seed in
      let n = 50 + (extra mod 500) in
      let samples =
        Array.init n (fun _ -> 1 + Rng.int rng 1_000_000)
      in
      let counts = Array.make Stats.log2_buckets 0 in
      Array.iter
        (fun v ->
          let b = Stats.log2_bucket v in
          counts.(b) <- counts.(b) + 1)
        samples;
      let floats = Array.map float_of_int samples in
      List.for_all
        (fun p ->
          let exact = int_of_float (Stats.percentile floats p) in
          let approx = Stats.percentile_log2 counts p in
          abs (Stats.log2_bucket exact - Stats.log2_bucket approx) <= 1)
        [ 50.; 90.; 99.; 99.9 ])

(* --- prometheus exposition ---------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh
    && (String.equal (String.sub haystack i nn) needle || go (i + 1))
  in
  nn = 0 || go 0

let test_prometheus_format () =
  Alcotest.(check string) "name mangling" "dss_serve_block_ns"
    (Obs.prom_name "serve.block_ns");
  let t = Obs.create ~shards:2 () in
  let c = Obs.counter t "serve.served" in
  let g = Obs.gauge t "serve.queue_depth" in
  let h = Obs.histogram t "serve.block_ns" in
  Obs.add c ~shard:0 41;
  Obs.incr c ~shard:1;
  Obs.set g ~shard:0 7;
  Obs.observe h ~shard:0 3;
  Obs.observe h ~shard:1 900;
  let s = Obs.prometheus t in
  Alcotest.(check bool) "counter TYPE" true
    (contains s "# TYPE dss_serve_served counter");
  Alcotest.(check bool) "counter value" true (contains s "dss_serve_served 42");
  Alcotest.(check bool) "gauge TYPE" true
    (contains s "# TYPE dss_serve_queue_depth gauge");
  Alcotest.(check bool) "gauge value" true
    (contains s "dss_serve_queue_depth 7");
  Alcotest.(check bool) "histogram TYPE" true
    (contains s "# TYPE dss_serve_block_ns histogram");
  (* buckets are cumulative: the one holding 900 counts both samples *)
  Alcotest.(check bool) "cumulative bucket" true
    (contains s
       (Printf.sprintf "dss_serve_block_ns_bucket{le=\"%d\"} 2"
          (Stats.log2_bucket_upper (Stats.log2_bucket 900))));
  Alcotest.(check bool) "+Inf bucket" true
    (contains s "dss_serve_block_ns_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "sum row" true (contains s "dss_serve_block_ns_sum 903");
  Alcotest.(check bool) "count row" true
    (contains s "dss_serve_block_ns_count 2");
  Alcotest.(check string) "byte-stable for a given state" s (Obs.prometheus t)

(* --- labeled counters (per-family breakdowns) ---------------------- *)

let count_occurrences haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i acc =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then scan (i + 1) (acc + 1)
    else scan (i + 1) acc
  in
  scan 0 0

let test_prom_labels () =
  Alcotest.(check string) "family label comes out quoted"
    "dss_oracle_queries{family=\"tz\"}"
    (Obs.prom_name (Obs.Name.oracle_queries_family "tz"));
  Alcotest.(check string) "multiple labels" "dss_a_b{x=\"1\",y=\"2\"}"
    (Obs.prom_name "a.b{x=1,y=2}");
  (* A suffix that does not parse as labels is mangled whole, never
     dropped. *)
  Alcotest.(check string) "malformed suffix mangled whole" "dss_a_b{x}"
    (Obs.prom_name "a.b{x}");
  Alcotest.(check string) "unterminated suffix mangled whole" "dss_a_b{x=1"
    (Obs.prom_name "a.b{x=1");
  (* Exposition: a labeled variant rides under its base's TYPE comment
     — one comment per metric family, not one per label value. *)
  let t = Obs.create () in
  let total = Obs.counter t Obs.Name.oracle_queries in
  let fam = Obs.counter t (Obs.Name.oracle_queries_family "bottomk") in
  Obs.add total ~shard:0 10;
  Obs.add fam ~shard:0 4;
  let s = Obs.prometheus t in
  Alcotest.(check bool) "plain row" true (contains s "dss_oracle_queries 10");
  Alcotest.(check bool) "labeled row" true
    (contains s "dss_oracle_queries{family=\"bottomk\"} 4");
  Alcotest.(check int) "one TYPE line for the family" 1
    (count_occurrences s "# TYPE dss_oracle_queries counter")

(* --- obs/1 invariant checker (the obs-cat --check engine) ---------- *)

let doc_of ~points ~final =
  Json.Obj
    [
      ("schema", Json.String "obs/1");
      ("points", Json.List points);
      ("final", Json.Obj [ ("counters", Json.Obj final) ]);
    ]

let point ~elapsed counters =
  Json.Obj
    [
      ("elapsed_ms", Json.Float elapsed);
      ("derived", Json.Obj []);
      ("counters", Json.Obj counters);
    ]

let test_obs_doc_check () =
  let fam = Obs.Name.oracle_queries_family in
  let ok_doc =
    doc_of
      ~points:
        [
          point ~elapsed:5.0
            [ ("oracle.queries", Json.Int 10); (fam "tz", Json.Int 10) ];
          point ~elapsed:10.0
            [ ("oracle.queries", Json.Int 20); (fam "tz", Json.Int 20) ];
        ]
      ~final:[ ("oracle.queries", Json.Int 20); (fam "tz", Json.Int 20) ]
  in
  (match Obs_doc.check ok_doc with
  | Ok n -> Alcotest.(check int) "point count reported" 2 n
  | Error msg -> Alcotest.failf "valid doc rejected: %s" msg);
  let expect name doc substring =
    match Obs_doc.check doc with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error msg ->
      if not (contains msg substring) then
        Alcotest.failf "%s: error %S does not mention %S" name msg substring
  in
  expect "decreasing counter"
    (doc_of
       ~points:
         [
           point ~elapsed:1.0 [ ("oracle.queries", Json.Int 5) ];
           point ~elapsed:2.0 [ ("oracle.queries", Json.Int 3) ];
         ]
       ~final:[ ("oracle.queries", Json.Int 5) ])
    "decreased";
  expect "elapsed not increasing"
    (doc_of
       ~points:[ point ~elapsed:2.0 []; point ~elapsed:2.0 [] ]
       ~final:[])
    "elapsed_ms";
  expect "final below last"
    (doc_of
       ~points:[ point ~elapsed:1.0 [ ("oracle.queries", Json.Int 5) ] ]
       ~final:[ ("oracle.queries", Json.Int 3) ])
    "below last point";
  expect "malformed label suffix"
    (doc_of ~points:[] ~final:[ ("oracle.queries{family}", Json.Int 1) ])
    "malformed label suffix";
  expect "labeled variants overshoot their base"
    (doc_of ~points:[]
       ~final:
         [
           ("oracle.queries", Json.Int 5);
           (fam "tz", Json.Int 3);
           (fam "bottomk", Json.Int 4);
         ])
    "labeled variants";
  expect "wrong schema"
    (Json.Obj [ ("schema", Json.String "nope/9") ])
    "schema";
  expect "missing final"
    (Json.Obj [ ("schema", Json.String "obs/1"); ("points", Json.List []) ])
    "final"

(* --- Json parser (the obs-cat reading side) ------------------------ *)

let test_json_of_string () =
  let roundtrip v =
    match Json.of_string (Json.to_string v) with
    | Ok v' -> Alcotest.(check string) "roundtrip" (Json.to_string v)
                 (Json.to_string v')
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  roundtrip
    (Json.Obj
       [
         ("schema", Json.String "obs/1");
         ("n", Json.Int 42);
         ("neg", Json.Int (-7));
         ("rate", Json.Float 1.5);
         ("flag", Json.Bool true);
         ("none", Json.Null);
         ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
         ("nested", Json.Obj [ ("s", Json.String "a\"b\\c\n") ]);
       ]);
  (match Json.of_string "  [1, 2.5, \"x\"]  " with
  | Ok (Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]) -> ()
  | Ok v -> Alcotest.failf "unexpected parse: %s" (Json.to_string v)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.of_string "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage must be an error");
  (match Json.of_string "{\"a\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input must be an error");
  let doc =
    match Json.of_string "{\"a\": {\"b\": 3}, \"c\": null}" with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  (match Json.member "a" doc with
  | Some inner ->
    Alcotest.(check bool) "nested member" true
      (Json.member "b" inner = Some (Json.Int 3))
  | None -> Alcotest.fail "member a missing");
  Alcotest.(check bool) "missing member is None" true
    (Json.member "zzz" doc = None)

(* --- /proc parser robustness (S2) ---------------------------------- *)

let test_mem_parser () =
  let status =
    "Name:\tdistsketch\nVmHWM:\t  123456 kB\nVmRSS:\t   98304 kB\nThreads:\t8\n"
  in
  Alcotest.(check (option int)) "VmRSS" (Some 98304)
    (Mem.find_kb ~key:"VmRSS" status);
  Alcotest.(check (option int)) "VmHWM" (Some 123456)
    (Mem.find_kb ~key:"VmHWM" status);
  Alcotest.(check (option int)) "missing key" None
    (Mem.find_kb ~key:"VmSwap" status);
  Alcotest.(check (option int)) "key is a prefix, not a substring" None
    (Mem.find_kb ~key:"RSS" status);
  Alcotest.(check (option int)) "empty text" None (Mem.find_kb ~key:"VmRSS" "");
  Alcotest.(check (option int)) "line without digits" None
    (Mem.find_kb ~key:"VmRSS" "VmRSS: none\n");
  Alcotest.(check (option int)) "parse_kb first digit run" (Some 42)
    (Mem.parse_kb "  42 kB");
  Alcotest.(check (option int)) "parse_kb no digits" None (Mem.parse_kb "kB");
  (* the _or_zero views must never raise, whatever /proc looks like *)
  Alcotest.(check bool) "rss_kb_or_zero total" true (Mem.rss_kb_or_zero () >= 0);
  Alcotest.(check bool) "hwm_kb_or_zero total" true (Mem.hwm_kb_or_zero () >= 0)

(* --- sampler -------------------------------------------------------- *)

let test_sampler_ring () =
  let t = Obs.create ~shards:2 () in
  let c = Obs.counter t Obs.Name.serve_served in
  let s = Sampler.create ~capacity:4 ~interval_ms:10 t in
  Alcotest.(check int) "interval" 10 (Sampler.interval_ms s);
  (* not started: ticks are no-ops *)
  Sampler.tick s 1_000_000_000;
  Alcotest.(check int) "no points before start" 0
    (List.length (Sampler.points s));
  Sampler.start s ~now_ns:0;
  Sampler.tick s 1_000_000;
  Alcotest.(check int) "not due yet" 0 (List.length (Sampler.points s));
  Obs.add c ~shard:0 5;
  Sampler.tick s 10_000_000;
  (match Sampler.points s with
  | [ p ] ->
    Alcotest.(check int) "seq" 0 p.Sampler.seq;
    Alcotest.(check int) "elapsed" 10_000_000 p.Sampler.elapsed_ns;
    Alcotest.(check (option int)) "cumulative counter in point" (Some 5)
      (List.assoc_opt Obs.Name.serve_served p.Sampler.counters)
  | ps -> Alcotest.failf "expected 1 point, got %d" (List.length ps));
  (* deadlines reschedule from the sample time: a long stall yields
     one point, not a catch-up burst *)
  Sampler.tick s 95_000_000;
  Sampler.tick s 96_000_000;
  Alcotest.(check int) "no catch-up burst" 2 (List.length (Sampler.points s));
  for i = 1 to 6 do
    Sampler.sample s (100_000_000 + i)
  done;
  Alcotest.(check int) "ring capped at capacity" 4
    (List.length (Sampler.points s));
  Alcotest.(check int) "dropped counted" 4 (Sampler.dropped s);
  let seqs = List.map (fun p -> p.Sampler.seq) (Sampler.points s) in
  Alcotest.(check bool) "oldest dropped first" true
    (seqs = [ 4; 5; 6; 7 ])

let test_obs_doc_schema () =
  let t = Obs.create ~shards:2 () in
  let c = Obs.counter t Obs.Name.serve_served in
  let h = Obs.histogram t Obs.Name.serve_block_ns in
  let s = Sampler.create ~capacity:16 ~interval_ms:5 t in
  Sampler.start s ~now_ns:0;
  Obs.add c ~shard:0 100;
  Obs.observe h ~shard:0 500;
  Sampler.sample s 5_000_000;
  Obs.add c ~shard:1 100;
  Obs.observe h ~shard:1 700;
  Sampler.sample s 10_000_000;
  let doc = Sampler.doc ~sampler:s ~meta:[ ("cmd", Json.String "test") ] t in
  let get k = Json.member k doc in
  Alcotest.(check bool) "schema" true
    (get "schema" = Some (Json.String "obs/1"));
  Alcotest.(check bool) "shards" true (get "shards" = Some (Json.Int 2));
  Alcotest.(check bool) "interval_ms" true
    (get "interval_ms" = Some (Json.Int 5));
  Alcotest.(check bool) "meta passthrough" true
    (match get "meta" with
    | Some m -> Json.member "cmd" m = Some (Json.String "test")
    | None -> false);
  Alcotest.(check bool) "dropped_points" true
    (get "dropped_points" = Some (Json.Int 0));
  (match get "final" with
  | Some f ->
    Alcotest.(check bool) "final counters" true
      (match Json.member "counters" f with
      | Some c -> Json.member Obs.Name.serve_served c = Some (Json.Int 200)
      | None -> false)
  | None -> Alcotest.fail "no final snapshot");
  (match get "points" with
  | Some (Json.List pts) ->
    Alcotest.(check int) "two points" 2 (List.length pts);
    List.iter
      (fun p ->
        match Json.member "derived" p with
        | Some d ->
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " present") true
                (Json.member k d <> None))
            [
              "qps"; "hit_rate"; "p99_block_ns"; "queue_depth";
              "minor_words_per_s"; "rss_kb";
            ]
        | None -> Alcotest.fail "point without derived series")
      pts;
    (* second point's qps derives from the delta: 100 served in 5ms *)
    (match Json.member "derived" (List.nth pts 1) with
    | Some d ->
      (match Json.member "qps" d with
      | Some (Json.Float q) ->
        Alcotest.(check (float 1.0)) "delta qps" 20000.0 q
      | _ -> Alcotest.fail "qps not a float")
    | None -> assert false)
  | _ -> Alcotest.fail "no points array");
  (* the whole document round-trips through the parser *)
  match Json.of_string (Json.to_string doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "doc does not parse: %s" e

(* --- serve reconciliation ------------------------------------------ *)

let oracle_for ~n ~seed =
  let g =
    Ds_graph.Gen.erdos_renyi ~rng:(Rng.create seed) ~n ~avg_degree:6.0 ()
  in
  let levels = Ds_core.Levels.sample ~rng:(Rng.create (seed + 1)) ~n ~k:3 in
  Oracle.of_sketch
    (Ds_sketch.Sketch.of_tz_labels (Ds_core.Tz_centralized.build g ~levels))

(* The tentpole invariant CI also asserts end-to-end: the registry's
   quiesced counters and the sampler's final point must equal the
   stats Serve.run itself returns — same events, two ledgers. *)
let test_serve_reconciliation () =
  let n = 128 in
  let oracle = oracle_for ~n ~seed:41 in
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 7) (Workload.Zipf { alpha = 1.2 }) ~n
      ~count:6_000
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let t = Obs.create () in
          let s = Sampler.create ~interval_ms:1 t in
          let config =
            { Serve.default_config with cache_bits = 8; batch = 32 }
          in
          let _, stats = Serve.run ~pool ~config ~obs:t ~sampler:s oracle flat in
          let total f =
            Array.fold_left (fun acc w -> acc + f w) 0 stats.Serve.per_worker
          in
          Alcotest.(check int) "admitted = pairs" stats.Serve.pairs
            (Obs.value t Obs.Name.serve_admitted);
          Alcotest.(check int) "served = pairs" stats.Serve.pairs
            (Obs.value t Obs.Name.serve_served);
          Alcotest.(check int) "hits match"
            (total (fun w -> w.Serve.hits))
            (Obs.value t Obs.Name.serve_hits);
          Alcotest.(check int) "misses match"
            (total (fun w -> w.Serve.misses))
            (Obs.value t Obs.Name.serve_misses);
          Alcotest.(check int) "histogram counted every block"
            (Obs.value t Obs.Name.serve_block_ns)
            ((6_000 + 31) / 32);
          Alcotest.(check int) "queue drained" 0
            (Obs.value t Obs.Name.serve_queue_depth);
          (* the forced final sample is a quiesced read: its cumulative
             counters equal the registry's final reduction *)
          match List.rev (Sampler.points s) with
          | last :: _ ->
            List.iter
              (fun name ->
                Alcotest.(check (option int))
                  ("final point " ^ name)
                  (Some (Obs.value t name))
                  (List.assoc_opt name last.Sampler.counters))
              [
                Obs.Name.serve_admitted; Obs.Name.serve_served;
                Obs.Name.serve_hits; Obs.Name.serve_misses;
              ]
          | [] -> Alcotest.fail "no sampler points"))
    [ 1; 3 ]

(* With only a sampler, its own registry is the one instrumented. *)
let test_serve_sampler_only () =
  let n = 64 in
  let oracle = oracle_for ~n ~seed:43 in
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 9) Workload.Uniform ~n ~count:500
  in
  let t = Obs.create () in
  let s = Sampler.create ~interval_ms:1000 t in
  let _, stats = Serve.run ~sampler:s oracle flat in
  Alcotest.(check int) "served on sampler registry" stats.Serve.pairs
    (Obs.value t Obs.Name.serve_served);
  (* m = 0: still one forced point, zero counters *)
  let t0 = Obs.create () in
  let s0 = Sampler.create ~interval_ms:1000 t0 in
  let out, _ = Serve.run ~sampler:s0 oracle [||] in
  Alcotest.(check int) "empty stream answers" 0 (Array.length out);
  Alcotest.(check int) "empty stream: one point" 1
    (List.length (Sampler.points s0))

(* --- engine counters vs Metrics, sequential and pooled ------------- *)

let test_engine_obs_matches_metrics () =
  let g = Helpers.random_graph ~seed:91 80 in
  let sources = [ 0; 11; 40 ] in
  let t = Obs.create () in
  let _, m =
    Multi_bf.run ~obs:t g ~sources ~bound:(fun _ -> Ds_graph.Dist.none)
  in
  Alcotest.(check int) "rounds" (Metrics.rounds m)
    (Obs.value t Obs.Name.engine_rounds);
  Alcotest.(check int) "deliveries" (Metrics.messages m)
    (Obs.value t Obs.Name.engine_deliveries);
  Alcotest.(check int) "words" (Metrics.words m)
    (Obs.value t Obs.Name.engine_words);
  (* and identically when fanned over a real pool *)
  Pool.with_pool ~domains:4 (fun pool ->
      let t = Obs.create () in
      let _, m =
        Multi_bf.run ~pool ~obs:t g ~sources
          ~bound:(fun _ -> Ds_graph.Dist.none)
      in
      Alcotest.(check int) "pooled deliveries" (Metrics.messages m)
        (Obs.value t Obs.Name.engine_deliveries);
      Alcotest.(check int) "pooled words" (Metrics.words m)
        (Obs.value t Obs.Name.engine_words))

(* --- tracer/obs coexistence (S3) ----------------------------------- *)

(* Attaching [?obs] must not perturb the tracer: the timing-excluded
   exports are byte-identical with and without a registry attached,
   across pool widths. *)
let test_tracer_obs_coexistence () =
  let g = Helpers.random_graph ~seed:92 70 in
  let sources = [ 0; 23 ] in
  let run ?pool ?obs () =
    let tracer = Trace.create () in
    let _, m =
      Multi_bf.run ?pool ~tracer ?obs g ~sources
        ~bound:(fun _ -> Ds_graph.Dist.none)
    in
    (tracer, m)
  in
  let base_tracer, base_m = run () in
  let base_jsonl = Trace.jsonl ~timing:false base_tracer in
  let base_chrome =
    Trace.chrome ~clock:`Rounds ~phases:(Metrics.phases base_m) base_tracer
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let obs = Obs.create () in
          let tracer, m = run ~pool ~obs () in
          let label = Printf.sprintf "domains=%d" domains in
          Alcotest.(check string)
            (label ^ ": jsonl bytes with obs attached")
            base_jsonl
            (Trace.jsonl ~timing:false tracer);
          Alcotest.(check string)
            (label ^ ": chrome bytes with obs attached")
            base_chrome
            (Trace.chrome ~clock:`Rounds ~phases:(Metrics.phases m) tracer);
          (* and the registry still reconciles on the same run *)
          Alcotest.(check int)
            (label ^ ": obs deliveries")
            (Metrics.messages m)
            (Obs.value obs Obs.Name.engine_deliveries)))
    [ 1; 2; 4; 8 ]

let suite =
  [
    Alcotest.test_case "registration idempotent, kinds checked" `Quick
      test_registration;
    Alcotest.test_case "counter reduces across shards" `Quick
      test_counter_reduce_across_shards;
    Alcotest.test_case "gauge sum and set_max" `Quick test_gauge_semantics;
    Alcotest.test_case "histogram reduce and percentile" `Quick
      test_histogram_reduce;
    Alcotest.test_case "value by name" `Quick test_value_by_name;
    Alcotest.test_case "log2 bucket edges" `Quick test_log2_edges;
    QCheck_alcotest.to_alcotest test_exact_vs_histogram_percentiles;
    Alcotest.test_case "prometheus exposition format" `Quick
      test_prometheus_format;
    Alcotest.test_case "labeled counter names stay Prometheus-legal" `Quick
      test_prom_labels;
    Alcotest.test_case "obs/1 invariant checker" `Quick test_obs_doc_check;
    Alcotest.test_case "json parser round-trips" `Quick test_json_of_string;
    Alcotest.test_case "proc status parser robustness" `Quick test_mem_parser;
    Alcotest.test_case "sampler ring, deadlines, drops" `Quick
      test_sampler_ring;
    Alcotest.test_case "obs/1 document schema" `Quick test_obs_doc_schema;
    Alcotest.test_case "serve counters reconcile with stats" `Quick
      test_serve_reconciliation;
    Alcotest.test_case "sampler-only serve instruments its registry" `Quick
      test_serve_sampler_only;
    Alcotest.test_case "engine counters equal metrics on both pool widths"
      `Quick
      test_engine_obs_matches_metrics;
    Alcotest.test_case "tracer exports unchanged with obs attached" `Quick
      test_tracer_obs_coexistence;
  ]
