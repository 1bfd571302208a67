(* One workload, end to end, through public library calls only:

     gen -> build (x builds) -> save
     -> (load -> compile -> first query) x Workload.setup_tries
     -> serve rounds for --seconds: closed loop, the batch kernel in
        both load modes, open loop
     -> exact-distance check

   Untraced, this yields the end-to-end metrics. Traced, the same code
   runs with spans on (span.ml), then a few per-layer probes that the
   end-to-end numbers never see: an engine-traced build, two-domain
   build and serve, instrumented serve, probe counts.

   Every answer array is fingerprinted and compared: across build
   repetitions (the sketch), setup tries (the first answer), every
   serve run in both loop modes and pool widths, and the other load
   mode. Any mismatch, and any checked pair whose estimate is below
   the true distance, above (2k-1)·d for tz, or infinite, makes the
   run incorrect: every request it answered counts as failed. *)

module W = Workload

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** end-to-end untraced, per-layer traced *)
  spans : Span.t;
}

(* One restart: snapshot file -> load -> compile -> first answer. *)
type setup_try = {
  answer : int;
  setup_s : float;
  load_s : float;
  compile_s : float;
  first_s : float;
  rss_delta_mb : float;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let m = Array.length a in
  if m = 0 then nan
  else if m land 1 = 1 then a.(m / 2)
  else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

let timed f =
  let t0 = Span.now_ns () in
  let r = f () in
  (r, Span.seconds_since t0)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

let fingerprint a =
  Array.fold_left (fun h x -> (h * 0x100000001b3) lxor x) 0x2545F4914F6CDD1D a

(* The first [check_nodes] distinct sources of the stream: uniform
   nodes under uniform traffic, traffic-weighted ones under Zipf. *)
let check_sources flat ~n ~count =
  let seen = Array.make n false in
  let rec go i acc c =
    if c = count || 2 * i >= Array.length flat then Array.of_list (List.rev acc)
    else
      let u = flat.(2 * i) in
      if seen.(u) then go (i + 1) acc c
      else begin
        seen.(u) <- true;
        go (i + 1) (u :: acc) (c + 1)
      end
  in
  go 0 [] 0

(* Every served pair with an endpoint among the check sources, against
   exact Dijkstra distances: (pairs checked, errors, mean stretch). The
   mean weighs each source once — the mean over sources of its pairs'
   mean — so under Zipf traffic the hottest source does not decide it. *)
let exact_check g ~family ~n flat answers =
  let sources = check_sources flat ~n ~count:W.check_nodes in
  let slot = Array.make n (-1) in
  Array.iteri (fun i s -> slot.(s) <- i) sources;
  let dist = Array.map (fun s -> Sut.sssp g s) sources in
  let bounded = Sut.has_stretch_bound family and bound = (2 * W.k) - 1 in
  let pairs = Array.make (Array.length sources) 0 in
  let stretch = Array.make (Array.length sources) 0. in
  let checked = ref 0 and errors = ref 0 in
  Array.iteri
    (fun i est ->
      let u = flat.(2 * i) and v = flat.((2 * i) + 1) in
      let s, d =
        if slot.(u) >= 0 then (slot.(u), dist.(slot.(u)).(v))
        else if slot.(v) >= 0 then (slot.(v), dist.(slot.(v)).(u))
        else (-1, 0)
      in
      if d > 0 then begin
        incr checked;
        if (not (Sut.is_finite est)) || est < d || (bounded && est > bound * d)
        then incr errors
        else begin
          pairs.(s) <- pairs.(s) + 1;
          stretch.(s) <- stretch.(s) +. (float_of_int est /. float_of_int d)
        end
      end)
    answers;
  let sum = ref 0. and seen = ref 0 in
  Array.iteri
    (fun s c ->
      if c > 0 then begin
        sum := !sum +. (stretch.(s) /. float_of_int c);
        incr seen
      end)
    pairs;
  (!checked, !errors, !sum /. float_of_int (max 1 !seen))

let run ?(smoke = false) ~trace ~seconds ~tmp ~seed (w : W.t) =
  let n = if smoke then W.smoke_n else w.n in
  let count = if smoke then W.smoke_pairs else W.stream_pairs in
  let f = float_of_int in
  let sp = Span.create ~enabled:trace in
  let span layer name fn = Span.with_ sp ~layer ~name fn in
  let settle () = span "harness" "gc" Gc.full_major in
  let correct = ref true and attempted = ref 0 in
  let fail what =
    Printf.eprintf "e2e: %s seed %d: %s\n%!" w.name seed what;
    correct := false
  in
  let path =
    Filename.concat tmp (Printf.sprintf "e2e-%d-%s.dsk" (Unix.getpid ()) w.name)
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let metrics, tracer_extra_s =
    span "workload" w.name @@ fun () ->
    (* Inputs: the graph, the query stream and the check sources all
       come from --seed. *)
    let g, gen_s =
      timed (fun () ->
          span "gen" "gen" (fun () -> Sut.gen ~seed ~n ~avg_degree:W.avg_degree))
    in
    let flat =
      span "harness" "pairs" (fun () ->
          Sut.pairs ~seed:(seed + 1_000_003) w.pairs ~n ~count)
    in
    (* Build: (result, seconds, words allocated, major GCs). *)
    let build ?pool ?tracer ?(layer = "engine") name =
      settle ();
      let a0 = allocated_words () and gcs0 = major_gcs () in
      let b, s =
        timed (fun () ->
            span layer name (fun () ->
                Sut.build ?pool ?tracer ~family:w.family g ~k:W.k
                  ~seed:W.protocol_seed))
      in
      (b, s, allocated_words () -. a0, major_gcs () - gcs0)
    in
    let built, s0, build_alloc, build_gcs = build "build" in
    let build_times =
      s0
      :: List.init (w.builds - 1) (fun _ ->
             let b, s, _, _ = build "build" in
             if not (Sut.sketch_equal b.Sut.sketch built.Sut.sketch) then
               fail "build repetitions produced different sketches";
             s)
    in
    let build_s = median build_times in
    let messages = built.Sut.messages in
    let sketch_words = Sut.sketch_words built.Sut.sketch in
    let (), save_s =
      timed (fun () ->
          span "store" "save" (fun () -> Sut.save path ~seed built.Sut.sketch))
    in
    let bytes = (Unix.stat path).Unix.st_size in
    (* Restarts. Each try's garbage is collected before the next, and
       only the last oracle is kept for serving. *)
    let u0 = flat.(0) and v0 = flat.(1) in
    let serving = ref None in
    let tries =
      List.init W.setup_tries (fun _ ->
          settle ();
          let rss0 = Sut.rss_mb () in
          let t0 = Span.now_ns () in
          let store = span "store" "load" (fun () -> Sut.load w.mode path) in
          let t1 = Span.now_ns () in
          let o = span "oracle" "compile" (fun () -> Sut.compile store) in
          let t2 = Span.now_ns () in
          let a = span "oracle" "first_query" (fun () -> Sut.query o u0 v0) in
          let t3 = Span.now_ns () in
          serving := Some o;
          let sec a b = f (b - a) /. 1e9 in
          {
            answer = a;
            setup_s = sec t0 t3;
            load_s = sec t0 t1;
            compile_s = sec t1 t2;
            first_s = sec t2 t3;
            rss_delta_mb = Sut.rss_mb () -. rss0;
          })
    in
    let pick field = median (List.map field tries) in
    (* Peak memory of the build and the restarts; read before serving,
       whose footprint is the benchmark's own stream and answer arrays. *)
    let peak_rss_mb = Sut.hwm_mb () in
    let oracle = Option.get !serving and first_answer = (List.hd tries).answer in
    if List.exists (fun t -> t.answer <> first_answer) tries then
      fail "first answers differ between setup tries";
    (* Serve. The warm-up run's answers are the reference for every
       later run. *)
    let answers0, warm =
      span "serve" "closed.warmup" (fun () ->
          Sut.serve ~cache_bits:w.cache_bits ~rate:0. oracle flat)
    in
    attempted := !attempted + count;
    let reference = fingerprint answers0 in
    if answers0.(0) <> first_answer then
      fail "first answer differs from the served one";
    let same name answers =
      attempted := !attempted + count;
      if fingerprint answers <> reference then
        fail (name ^ " answers differ from the reference")
    in
    let serve ?pool ?obs ?(layer = "serve") ~rate name =
      let a, s =
        span layer name (fun () ->
            Sut.serve ?pool ?obs ~cache_bits:w.cache_bits ~rate oracle flat)
      in
      same name a;
      s
    in
    (* The other load mode answers the same stream through the batch
       kernel, as does the serving oracle: one pass of each per round, so
       the kernel and loop numbers come from the same stretch of time. *)
    let alt =
      span "store" "load.alt" (fun () ->
          Sut.compile (Sut.load (Sut.other_mode w.mode) path))
    in
    let kernel name o =
      let a, s =
        timed (fun () -> span "kernel" name (fun () -> Sut.query_batch o flat))
      in
      same name a;
      s *. 1e9 /. f count
    in
    let closed = ref [] and opened = ref [] and rounds = ref 0 in
    let kernel_runs = ref [] and alt_runs = ref [] and serve_alloc = ref 0. in
    let deadline = Span.now_ns () + int_of_float (seconds *. 1e9) in
    while !rounds < W.min_serve_rounds || Span.now_ns () < deadline do
      for _ = 1 to W.closed_per_round do
        let a0 = allocated_words () in
        closed := serve ~rate:0. "closed" :: !closed;
        serve_alloc := allocated_words () -. a0
      done;
      kernel_runs := kernel "batch" oracle :: !kernel_runs;
      alt_runs := kernel "batch.alt" alt :: !alt_runs;
      opened := serve ~rate:W.open_rate "open" :: !opened;
      incr rounds
    done;
    let med field runs = median (List.map field runs) in
    let qps = med (fun s -> s.Sut.qps) !closed in
    let kernel_ns = median !kernel_runs and kernel_alt_ns = median !alt_runs in
    let checked, errors, stretch_mean =
      span "harness" "check" (fun () ->
          exact_check g ~family:w.family ~n flat answers0)
    in
    if checked = 0 then fail "no served pair touched a check source";
    if errors > 0 then
      fail (Printf.sprintf "%d of %d checked pairs are wrong" errors checked);
    if not trace then
      ( [
          metric "setup_s" "s" (pick (fun t -> t.setup_s));
          metric "build_s" "s" build_s;
          metric "messages" "count" (f messages);
          metric "sketch_words" "words" (f sketch_words);
          metric "peak_rss_mb" "MB" peak_rss_mb;
          metric "qps" "1/s" qps;
          metric "p50_us" "us" (med (fun s -> s.Sut.p50_us) !opened);
          metric "stretch_mean" "ratio" stretch_mean;
        ],
        0. )
    else begin
      (* Per-layer probes, traced run only. *)
      let probes =
        span "kernel" "probes" (fun () ->
            let m = min count 65_536 in
            let total = ref 0 in
            for i = 0 to m - 1 do
              total :=
                !total + Sut.query_probes oracle flat.(2 * i) flat.((2 * i) + 1)
            done;
            f !total /. f m)
      in
      let tracer = Sut.tracer () in
      let _, traced_build_s, _, _ = build ~tracer "build.traced" in
      let deliver_ns, compute_ns = Sut.tracer_split_ns tracer in
      (* (reference, variant) closed-loop throughputs, alternated. *)
      let qps_pairs reference variant =
        let runs =
          List.init W.probe_pairs (fun _ ->
              let a = reference () in
              let b = variant () in
              (a.Sut.qps, b.Sut.qps))
        in
        (median (List.map fst runs), median (List.map snd runs))
      in
      let plain () = serve ~rate:0. "closed" in
      let domains = min 2 (Domain.recommended_domain_count ()) in
      let build_2d_s, (serve_1d, serve_2d) =
        Sut.with_pool ~domains (fun pool ->
            let _, s, _, _ = build ~pool ~layer:"pool" "build.2d" in
            (s, qps_pairs plain (fun () ->
                    serve ~pool ~layer:"pool" ~rate:0. "closed.2d")))
      in
      let obs_off, obs_on =
        qps_pairs plain (fun () -> serve ~obs:true ~layer:"obs" ~rate:0. "closed.obs")
      in
      let miss_share = f warm.Sut.misses /. f count in
      ( [
          metric "gen.s" "s" gen_s;
          metric "gen.edges" "count" (f (Sut.edges g));
          metric "engine.rounds" "count" (f built.Sut.rounds);
          metric "engine.messages" "count" (f messages);
          metric "engine.words" "words" (f built.Sut.words);
          metric "engine.deliver_s" "s" (f deliver_ns /. 1e9);
          metric "engine.compute_s" "s" (f compute_ns /. 1e9);
          metric "engine.other_s" "s"
            (traced_build_s -. (f (deliver_ns + compute_ns) /. 1e9));
          metric "engine.ns_per_message" "ns" (build_s *. 1e9 /. f messages);
          metric "engine.plane_words_per_node" "words" (f built.Sut.plane_words /. f n);
          metric "engine.alloc_words_per_message" "words" (build_alloc /. f messages);
          metric "engine.major_gcs" "count" (f build_gcs);
          metric "store.save_s" "s" save_s;
          metric "store.bytes" "bytes" (f bytes);
          metric "store.bytes_per_word" "bytes" (f bytes /. f sketch_words);
          metric "store.load_s" "s" (pick (fun t -> t.load_s));
          metric "store.rss_delta_mb" "MB" (pick (fun t -> t.rss_delta_mb));
          metric "oracle.compile_s" "s" (pick (fun t -> t.compile_s));
          metric "oracle.first_query_us" "us" (pick (fun t -> t.first_s) *. 1e6);
          metric "kernel.ns_per_pair" "ns" kernel_ns;
          metric "kernel.ns_per_pair_alt_mode" "ns" kernel_alt_ns;
          metric "kernel.probes_per_query" "count" probes;
          metric "cache.hit_rate" "fraction" (f warm.Sut.hits /. f count);
          metric "cache.hits" "count" (f warm.Sut.hits);
          metric "cache.misses" "count" (f warm.Sut.misses);
          metric "serve.busy_frac" "fraction"
            (med (fun s -> s.Sut.busy_s /. s.Sut.elapsed_s) !closed);
          metric "serve.self_ns_per_pair" "ns"
            ((1e9 /. qps) -. (miss_share *. kernel_ns));
          metric "serve.block_p50_us" "us" (med (fun s -> s.Sut.p50_us) !closed);
          metric "serve.alloc_words_per_query" "words" (!serve_alloc /. f count);
          metric "serve.open_p99_us" "us" (med (fun s -> s.Sut.p99_us) !opened);
          metric "serve.open_p999_us" "us" (med (fun s -> s.Sut.p999_us) !opened);
          metric "serve.open_delivered_ratio" "ratio"
            (med (fun s -> s.Sut.qps) !opened /. W.open_rate);
          metric "pool.build_speedup_2d" "ratio" (build_s /. build_2d_s);
          metric "pool.serve_speedup_2d" "ratio" (serve_2d /. serve_1d);
          metric "obs.overhead_frac" "fraction" (1. -. (obs_on /. obs_off));
          metric "check.pairs" "count" (f checked);
          metric "check.error_rate" "fraction" (f errors /. f (max 1 checked));
        ],
        Float.max 0. (traced_build_s -. build_s) )
    end
  in
  let metrics =
    if not trace then metrics
    else begin
      (* The ledger closes with the root span: self time per layer, the
         residual, and the tracing cost as a share of the traced wall
         time — span bookkeeping plus the engine tracer's extra build
         time. *)
      let l = Span.ledger sp in
      let cost = (f (Span.count sp) *. Span.cost_per_span_s ()) +. tracer_extra_s in
      metrics
      @ List.map (fun (layer, s) -> metric (layer ^ ".self_s") "s" s) l.Span.rows
      @ [
          metric "trace.overhead_frac" "fraction" (cost /. l.Span.wall_s);
          metric "residual_frac" "fraction" (l.Span.residual_s /. l.Span.wall_s);
          metric "trace.wall_s" "s" l.Span.wall_s;
        ]
    end
  in
  let correct = !correct in
  {
    correct;
    attempted = !attempted;
    failed = (if correct then 0 else !attempted);
    metrics;
    spans = sp;
  }
