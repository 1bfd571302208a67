(* Command-line driver: run paper experiments or one-off constructions
   with chosen parameters. *)

module Rng = Ds_util.Rng
module Table = Ds_util.Table
module Graph = Ds_graph.Graph
module Gen = Ds_graph.Gen
module Props = Ds_graph.Props
module Metrics = Ds_congest.Metrics
module Levels = Ds_core.Levels
module Label = Ds_core.Label
module Eval = Ds_core.Eval
module Registry = Ds_experiments.Registry
module Pool = Ds_parallel.Pool
module Sketch = Ds_sketch.Sketch
module Sketch_family = Ds_sketch.Family
module Sketch_build = Ds_sketch.Build
module Store = Ds_oracle.Sketch_store
module Oracle = Ds_oracle.Oracle
module Workload = Ds_oracle.Workload
module Serve = Ds_oracle.Serve
module Json = Ds_util.Json
module Obs = Ds_obs.Obs
module Sampler = Ds_obs.Sampler

open Cmdliner

let family_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "er" | "erdos-renyi" -> Ok (Gen.Erdos_renyi { avg_degree = 6.0 })
    | "geometric" -> Ok (Gen.Geometric { radius = 0.1 })
    | "grid" -> Ok Gen.Grid
    | "torus" -> Ok Gen.Torus
    | "ring-chords" -> Ok (Gen.Ring_chords { chords_frac = 0.2 })
    | "tree" -> Ok Gen.Tree
    | "power-law" -> Ok (Gen.Power_law { edges_per_node = 2 })
    | "star-ring" -> Ok (Gen.Star_ring { heavy_frac = 0.25 })
    | other -> Error (`Msg (Printf.sprintf "unknown family %S" other))
  in
  Arg.conv (parse, fun ppf f -> Format.pp_print_string ppf (Gen.family_name f))

(* An int bounded below: an out-of-range value is a usage error (exit
   124) instead of an exception from deep inside a generator. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%d is below the minimum %d" v lo))
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let n_arg =
  Arg.(
    value & opt (int_at_least 2) 256
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes (at least 2).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let k_arg =
  Arg.(
    value & opt (int_at_least 1) 3
    & info [ "k" ] ~docv:"K" ~doc:"Hierarchy depth k (at least 1).")

let family_arg =
  Arg.(
    value
    & opt family_conv (Gen.Erdos_renyi { avg_degree = 6.0 })
    & info [ "family" ] ~docv:"FAMILY"
        ~doc:
          "Graph family: er, geometric, grid, torus, ring-chords, tree, \
           power-law, star-ring.")

let sketch_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Sketch_family.of_string s) in
  Arg.conv
    (parse, fun ppf f -> Format.pp_print_string ppf (Sketch_family.name f))

let sketch_arg =
  Arg.(
    value & opt sketch_conv Sketch_family.Tz
    & info [ "sketch" ] ~docv:"SKETCH"
        ~doc:
          "Sketch family: $(b,tz) (Thorup-Zwick pivots/bunches), \
           $(b,landmark) (Das Sarma random landmarks), $(b,bottomk) \
           (rank-ordered bottom-k all-distance sketches). All three build \
           on the same engine and serve through the same oracle.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Worker domains for the simulator's round loop (1 = sequential). \
           Results are identical for every value.")

(* One pool per command invocation: created before the work, joined
   after, whatever happens in between. *)
let with_domains domains f =
  if domains < 1 then begin
    Printf.eprintf "--domains must be >= 1\n";
    exit 1
  end;
  Pool.with_pool ~domains f

let make_graph family n seed =
  let rng = Rng.create seed in
  Gen.build ~rng family ~n

(* Exact distances for a flat pair stream (pair [i] at [2i], [2i+1]),
   one memoized Dijkstra per distinct source. *)
let exact_triples g flat =
  let cache = Hashtbl.create 64 in
  Array.init (Array.length flat / 2) (fun i ->
      let u = flat.(2 * i) and v = flat.((2 * i) + 1) in
      let dist =
        match Hashtbl.find_opt cache u with
        | Some d -> d
        | None ->
          let d = Ds_graph.Dijkstra.sssp g ~src:u in
          Hashtbl.add cache u d;
          d
      in
      (u, v, dist.(v)))

(* Deterministic fingerprint of a batch's answers, for replay checks. *)
let answers_fnv answers =
  let b = Buffer.create (8 * Array.length answers) in
  Array.iter (fun d -> Buffer.add_int64_le b (Int64.of_int d)) answers;
  Printf.sprintf "%016Lx" (Store.fnv1a64 (Buffer.contents b))

(* ---- experiments ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-4s %-42s %s\n" e.Registry.id e.Registry.title
          e.Registry.claim)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments.")
    Term.(const run $ const ())

let run_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also save each table as CSV in $(docv).")
  in
  let run domains csv_dir ids =
    with_domains domains @@ fun pool ->
    match ids with
    | [] -> ignore (Registry.run_all ~pool ?csv_dir ())
    | ids ->
      List.iter
        (fun id ->
          match Registry.find id with
          | Some e -> ignore (Registry.run_one ~pool ?csv_dir e)
          | None -> Printf.eprintf "unknown experiment %S (try `list')\n" id)
        ids
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run experiments by id (all when none given); see `list'.")
    Term.(const run $ domains_arg $ csv_arg $ ids)

(* ---- report ---- *)

let profile_conv =
  Arg.enum [ ("full", Registry.Full); ("quick", Registry.Quick) ]

let report_cmd =
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Do not write anything; re-run the experiments and fail (exit 1) \
             if the committed EXPERIMENTS.md / EXPERIMENTS.json differ from a \
             fresh render.")
  in
  let profile_arg =
    Arg.(
      value & opt profile_conv Registry.Full
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "Parameter profile: $(b,full) (the committed artifacts) or \
             $(b,quick) (scaled-down, for smoke tests).")
  in
  let dir_arg =
    Arg.(
      value & opt string "."
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Directory holding EXPERIMENTS.md and EXPERIMENTS.json.")
  in
  let run domains check profile dir =
    with_domains domains @@ fun pool ->
    if check then
      match Registry.check_files ~profile ~pool ~dir () with
      | Ok () ->
        Printf.printf "report --check: %s and %s match a fresh run\n"
          Registry.md_file Registry.json_file
      | Error msg ->
        Printf.eprintf "report --check FAILED:\n%s\n" msg;
        exit 1
    else
      let paths = Registry.write_files ~profile ~pool ~dir () in
      List.iter (Printf.printf "wrote %s\n") paths
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run every experiment (e1-e15) and regenerate EXPERIMENTS.md and \
          EXPERIMENTS.json in place; with $(b,--check), verify the committed \
          files instead of rewriting them.")
    Term.(const run $ domains_arg $ check_arg $ profile_arg $ dir_arg)

(* ---- profile ---- *)

let profile_cmd =
  let run family n seed =
    let g = make_graph family n seed in
    let p = Props.profile g in
    Format.printf "%s: %a@." (Gen.family_name family) Props.pp_profile p
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Generate a graph and print n, |E|, D, S.")
    Term.(const run $ family_arg $ n_arg $ seed_arg)

(* ---- build ---- *)

let mode_conv =
  Arg.enum [ ("central", `Central); ("dist", `Dist); ("echo", `Echo) ]

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let build_cmd =
  let mode_arg =
    Arg.(
      value & opt mode_conv `Dist
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Construction: central, dist (known-S), echo (self-terminating).")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Persist the built labels as a snapshot (versioned, \
             checksummed); `oracle --load $(docv)' then serves them \
             without rebuilding.")
  in
  let obs_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-out" ] ~docv:"FILE"
          ~doc:
            "Write an obs/1 JSON dump of the build's engine metrics \
             (rounds, deliveries, words, peak backlog) to $(docv).")
  in
  let run family n seed k mode sketch_family domains save obs_out =
    with_domains domains @@ fun pool ->
    let g = make_graph family n seed in
    let gn = Graph.n g in
    let obs = match obs_out with Some _ -> Some (Obs.create ()) | None -> None in
    let describe sketch metrics =
      let sizes =
        Eval.size_summary (Sketch.node_size_words sketch) (Array.init gn Fun.id)
      in
      Format.printf "%s sketches built: %d nodes, k=%d@."
        (Sketch_family.name (Sketch.family sketch))
        gn k;
      Format.printf "sizes (words): %a@." Ds_util.Stats.pp_summary sizes;
      (match metrics with
      | None -> ()
      | Some m -> Format.printf "cost: %a@." Metrics.pp m);
      match save with
      | None -> ()
      | Some path ->
        let store =
          Store.v ~seed ~graph_family:(Gen.family_name family) sketch
        in
        Store.save path store;
        Format.printf "snapshot: wrote %s (%d bytes)@." path
          (String.length (Store.to_bytes store))
    in
    (match (sketch_family, mode) with
    | Sketch_family.Tz, `Central ->
      let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n:gn ~k in
      describe (Sketch.of_tz_labels (Ds_core.Tz_centralized.build g ~levels))
        None
    | Sketch_family.Tz, `Echo ->
      let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n:gn ~k in
      let r = Ds_core.Tz_echo.build ~pool ?obs g ~levels in
      Format.printf "leader: %d@." r.Ds_core.Tz_echo.leader;
      describe
        (Sketch.of_tz_labels r.Ds_core.Tz_echo.labels)
        (Some r.Ds_core.Tz_echo.metrics)
    | _, `Dist ->
      let r =
        Sketch_build.run ~pool ?obs ~family:sketch_family g ~k ~seed
      in
      describe r.Sketch_build.sketch (Some r.Sketch_build.metrics)
    | _, (`Central | `Echo) ->
      Printf.eprintf
        "--sketch %s is a distributed-only construction; use --mode dist\n"
        (Sketch_family.name sketch_family);
      exit 1);
    match (obs, obs_out) with
    | Some registry, Some path ->
      let meta =
        [
          ("cmd", Json.String "build");
          ("graph_family", Json.String (Gen.family_name family));
          ("sketch_family", Json.String (Sketch_family.name sketch_family));
          ("n", Json.Int gn);
          ("k", Json.Int k);
          ("domains", Json.Int (Pool.domains pool));
        ]
      in
      write_file path (Json.to_string (Sampler.doc ~meta registry));
      Format.printf "obs: wrote %s@." path
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Build distance sketches (any --sketch family) on a generated \
             graph and report sizes and CONGEST cost.")
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ k_arg $ mode_arg
      $ sketch_arg $ domains_arg $ save_arg $ obs_out_arg)

(* ---- scale ---- *)

(* The n sweep behind SCALE.json: streaming graph construction, full
   distributed TZ build, honest cost accounting plus process RSS per
   row. *)
let scale_cmd =
  let ns_arg =
    Arg.(
      value
      & opt_all (int_at_least 2) [ 10_000; 100_000 ]
      & info [ "n"; "nodes" ] ~docv:"N"
          ~doc:"Node count (at least 2); repeatable, one sweep row per value.")
  in
  let scale_family_arg =
    Arg.(
      value & opt string "sparse"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Streaming graph family: $(b,sparse) (spanning skeleton + \
             uniform extras), $(b,torus), $(b,tree). Unit weights.")
  in
  let avg_degree_arg =
    Arg.(
      value & opt float 8.0
      & info [ "avg-degree" ] ~docv:"DEG"
          ~doc:"Average degree for the sparse family.")
  in
  let k_arg =
    Arg.(
      value & opt (int_at_least 0) 0
      & info [ "k" ] ~docv:"K"
          ~doc:
            "Hierarchy depth; 0 (default) picks round(log10 n) per row, \
             keeping the bunch size ~ k n^(1/k) flat across the sweep.")
  in
  let out_arg =
    Arg.(
      value & opt string "SCALE.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Output JSON path.")
  in
  let max_words_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-words-per-node" ] ~docv:"W"
          ~doc:
            "Budget assertion: fail (exit 1) if the message-plane backbone \
             exceeds $(docv) words per node on any row.")
  in
  let max_rss_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-rss-mb" ] ~docv:"MB"
          ~doc:
            "Budget assertion: fail (exit 1) if peak process RSS exceeds \
             $(docv) MB after any row.")
  in
  let now_ms () = Unix.gettimeofday () *. 1000.0 in
  let run ns family avg_degree k0 seed domains out max_words max_rss =
    with_domains domains @@ fun pool ->
    let fam = Gen.scale_family_of_string ~avg_degree family in
    let budget_failures = ref [] in
    let rows =
      List.map
        (fun n ->
          let g = Gen.build_scale ~rng:(Rng.create seed) fam ~n in
          let gn = Graph.n g in
          let k =
            if k0 > 0 then k0
            else max 3 (int_of_float (Float.round (log10 (float_of_int gn))))
          in
          let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n:gn ~k in
          let t0 = now_ms () in
          let r = Ds_core.Tz_distributed.build ~pool g ~levels in
          let wall_ms = now_ms () -. t0 in
          let m = r.Ds_core.Tz_distributed.metrics in
          let mem_words = r.Ds_core.Tz_distributed.mem_words in
          let words_per_node = float_of_int mem_words /. float_of_int gn in
          let sketch_words =
            Array.fold_left
              (fun acc l -> acc + Label.size_words l)
              0 r.Ds_core.Tz_distributed.labels
          in
          let rss = Ds_util.Mem.rss_kb () and hwm = Ds_util.Mem.hwm_kb () in
          Printf.printf
            "n=%-8d k=%d  %6d rounds  %12d words  %8.0f ms  %5.1f plane \
             words/node  rss %s kB\n%!"
            gn k (Metrics.rounds m) (Metrics.words m) wall_ms words_per_node
            (match rss with Some v -> string_of_int v | None -> "?");
          (match max_words with
          | Some limit when words_per_node > float_of_int limit ->
            budget_failures :=
              Printf.sprintf "n=%d: %.1f plane words/node exceeds budget %d"
                gn words_per_node limit
              :: !budget_failures
          | _ -> ());
          (match (max_rss, hwm) with
          | Some limit, Some kb when kb > limit * 1024 ->
            budget_failures :=
              Printf.sprintf "n=%d: peak RSS %d kB exceeds %d MB" gn kb limit
              :: !budget_failures
          | _ -> ());
          Json.Obj
            [
              ("n", Json.Int gn);
              ("m", Json.Int (Graph.m g));
              ("k", Json.Int k);
              ("family", Json.String (Gen.scale_family_name fam));
              ("domains", Json.Int domains);
              ("rounds", Json.Int (Metrics.rounds m));
              ("messages", Json.Int (Metrics.messages m));
              ("words", Json.Int (Metrics.words m));
              ("max_link_backlog", Json.Int (Metrics.max_link_backlog m));
              ("max_pending", Json.Int r.Ds_core.Tz_distributed.max_pending);
              ("wall_ms", Json.Float wall_ms);
              ("plane_mem_words", Json.Int mem_words);
              ("plane_words_per_node", Json.Float words_per_node);
              ("sketch_words", Json.Int sketch_words);
              ( "rss_kb",
                match rss with Some v -> Json.Int v | None -> Json.Null );
              ( "hwm_kb",
                match hwm with Some v -> Json.Int v | None -> Json.Null );
              ("heap_words", Json.Int (Ds_util.Mem.heap_words ()));
              ("seed", Json.Int seed);
            ])
        ns
    in
    let doc =
      Json.Obj
        [ ("schema", Json.String "scale/1"); ("rows", Json.List rows) ]
    in
    let oc = open_out out in
    output_string oc (Json.to_string doc);
    output_string oc "\n";
    close_out oc;
    Printf.printf "wrote %s (%d rows)\n" out (List.length rows);
    match !budget_failures with
    | [] -> ()
    | fs ->
      List.iter (Printf.eprintf "scale budget FAILED: %s\n") (List.rev fs);
      exit 1
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Sweep full sketch builds over n (streaming generators, unit \
          weights) and write a JSON table of rounds, words, wall-clock and \
          RSS per row; optional memory-budget assertions for CI.")
    Term.(
      const run $ ns_arg $ scale_family_arg $ avg_degree_arg $ k_arg
      $ seed_arg $ domains_arg $ out_arg $ max_words_arg $ max_rss_arg)

(* ---- trace ---- *)

let trace_protocol_conv =
  Arg.enum
    [
      ("setup", `Setup);
      ("multi-bf", `Multi_bf);
      ("super-bf", `Super_bf);
      ("tz", `Tz);
      ("tz-echo", `Tz_echo);
    ]

let trace_cmd =
  let protocol_arg =
    Arg.(
      value & opt trace_protocol_conv `Multi_bf
      & info [ "protocol" ] ~docv:"PROTO"
          ~doc:
            "Execution to trace: setup, multi-bf, super-bf, tz (known-S \
             build), tz-echo (self-terminating build).")
  in
  let out_arg =
    Arg.(
      value & opt string "trace-out"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Output directory (created if missing).")
  in
  let top_k_arg =
    Arg.(
      value & opt int 5
      & info [ "top-k" ] ~docv:"K" ~doc:"Hotspot nodes to print.")
  in
  let max_delay_arg =
    Arg.(
      value & opt int 0
      & info [ "max-delay" ] ~docv:"R"
          ~doc:"Bounded link asynchrony: extra 0..$(docv) rounds per message.")
  in
  let sources_arg =
    Arg.(
      value & opt int 4
      & info [ "sources" ] ~docv:"S"
          ~doc:"Source count for multi-bf / super-bf.")
  in
  let deterministic_arg =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~doc:
            "Emit only the schema-deterministic fields: the JSONL drops the \
             wall-clock and pool columns, the Chrome trace uses virtual \
             round time. Output is then byte-identical for any --domains.")
  in
  let run family n seed k domains protocol out top_k max_delay sources det =
    with_domains domains @@ fun pool ->
    let g = make_graph family n seed in
    let gn = Graph.n g in
    let jitter =
      if max_delay <= 0 then None
      else
        Some
          {
            Ds_congest.Engine.rng = Rng.create (seed + 17);
            max_delay;
          }
    in
    let tracer = Ds_congest.Trace.create () in
    let srcs =
      let s = max 1 (min sources gn) in
      List.init s (fun i -> i * gn / s)
    in
    let name, metrics =
      match protocol with
      | `Setup ->
        let _, m = Ds_congest.Setup.run ~pool ?jitter ~tracer g in
        ("setup", m)
      | `Multi_bf ->
        if jitter <> None then begin
          Printf.eprintf "multi-bf does not support --max-delay\n";
          exit 1
        end;
        let _, m =
          Ds_congest.Multi_bf.run ~pool ~tracer g ~sources:srcs
            ~bound:(fun _ -> Ds_graph.Dist.none)
        in
        ("multi-bf", m)
      | `Super_bf ->
        let _, m = Ds_congest.Super_bf.run ~pool ?jitter ~tracer g ~sources:srcs in
        ("super-bf", m)
      | `Tz ->
        if jitter <> None then begin
          Printf.eprintf "tz does not support --max-delay (use tz-echo)\n";
          exit 1
        end;
        let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n:gn ~k in
        let r = Ds_core.Tz_distributed.build ~pool ~tracer g ~levels in
        ("tz", r.Ds_core.Tz_distributed.metrics)
      | `Tz_echo ->
        let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n:gn ~k in
        let r = Ds_core.Tz_echo.build ~pool ?jitter ~tracer g ~levels in
        ( "tz-echo",
          Metrics.add r.Ds_core.Tz_echo.setup_metrics
            r.Ds_core.Tz_echo.metrics )
    in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let timing = not det in
    let write file contents =
      let path = Filename.concat out file in
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    write
      (Printf.sprintf "%s.rounds.jsonl" name)
      (Ds_congest.Trace.jsonl ~timing tracer);
    write
      (Printf.sprintf "%s.trace.json" name)
      (Ds_congest.Trace.chrome
         ~clock:(if det then `Rounds else `Wall)
         ~phases:(Metrics.phases metrics) tracer);
    Format.printf "cost: %a@." Metrics.pp metrics;
    Format.printf "%s@."
      (Ds_util.Json.to_string
         (Ds_congest.Trace.summary ~top_k ~timing tracer))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a protocol with per-round telemetry and export the round log \
          (JSONL) and a Chrome trace-event file (load in Perfetto or \
          about:tracing).")
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ k_arg $ domains_arg
      $ protocol_arg $ out_arg $ top_k_arg $ max_delay_arg $ sources_arg
      $ deterministic_arg)

(* ---- spanner ---- *)

let spanner_cmd =
  let run family n seed k domains =
    with_domains domains @@ fun pool ->
    let g = make_graph family n seed in
    let gn = Graph.n g in
    let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n:gn ~k in
    let sp, metrics = Ds_core.Spanner.of_distributed ~pool g ~levels in
    Format.printf "input:   n=%d |E|=%d@." gn (Graph.m g);
    Format.printf "spanner: |E'|=%d (bound %d * 2k-1 stretch), %.1f%% of edges@."
      (Graph.m sp) ((2 * k) - 1)
      (100.0 *. float_of_int (Graph.m sp) /. float_of_int (Graph.m g));
    Format.printf "max stretch: %.3f (bound %d)@."
      (Ds_core.Spanner.max_stretch g ~spanner:sp)
      ((2 * k) - 1);
    Format.printf "construction cost: %a@." Metrics.pp metrics
  in
  Cmd.v
    (Cmd.info "spanner"
       ~doc:"Extract the (2k-1)-spanner from the distributed construction.")
    Term.(const run $ family_arg $ n_arg $ seed_arg $ k_arg $ domains_arg)

(* ---- oracle ---- *)

let workload_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Workload.kind_of_string s) in
  Arg.conv (parse, fun ppf w -> Format.pp_print_string ppf (Workload.name w))

let oracle_cmd =
  let load_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:
            "Serve from a saved snapshot instead of building; the graph \
             arguments are ignored (the snapshot's own family/seed are \
             used to regenerate the graph for the exact-stretch check).")
  in
  let mmap_arg =
    Arg.(
      value & flag
      & info [ "mmap" ]
          ~doc:
            "With $(b,--load): map the snapshot file and serve queries \
             straight out of the mapping instead of copying it onto the \
             heap. O(header + n) start-up, zero payload copies, pages \
             shared across processes serving the same snapshot. Requires \
             a version-3 snapshot (re-save an older one to upgrade). \
             Answers are byte-identical to a heap load.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Also persist the labels served.")
  in
  let workload_arg =
    Arg.(
      value & opt workload_conv Workload.Uniform
      & info [ "workload" ] ~docv:"W"
          ~doc:
            "Query-pair stream: $(b,uniform) or $(b,zipf)[:alpha] (skewed \
             hotspot traffic, default alpha 1.2).")
  in
  let pairs_arg =
    Arg.(
      value & opt int 10_000
      & info [ "pairs" ] ~docv:"P" ~doc:"Number of query pairs in the batch.")
  in
  let qseed_arg =
    Arg.(
      value & opt int 1
      & info [ "qseed" ] ~docv:"Q" ~doc:"Workload (pair-stream) seed.")
  in
  let pairs_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pairs-file" ] ~docv:"FILE"
          ~doc:
            "Replay an explicit pair set (one \"u v\" line per query, \
             $(b,#) comments allowed) instead of drawing from \
             $(b,--workload)/$(b,--qseed) — the escape hatch for \
             byte-identical head-to-head runs across sketch families \
             or processes.")
  in
  let dump_pairs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-pairs" ] ~docv:"FILE"
          ~doc:
            "Write the pair set this run served (drawn or replayed) in \
             the $(b,--pairs-file) format, for later replay.")
  in
  let skip_exact_arg =
    Arg.(
      value & flag
      & info [ "skip-exact" ]
          ~doc:
            "Skip the exact-distance comparison (one Dijkstra per distinct \
             source); the summary then reports null stretch.")
  in
  let serve_arg =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:
            "Run the batch through the serving loop (sharded per-domain \
             request queues, batched admission, optional hot-pair cache, \
             open-loop pacing) instead of the one-shot parallel batch; the \
             summary gains per-domain QPS, cache hit rate and p999 latency.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"QPS"
          ~doc:
            "Offered load for $(b,--serve) in queries/second; requests \
             arrive open-loop at this rate, so queueing delay shows up in \
             the latency percentiles. 0 (default) serves closed-loop at \
             full speed.")
  in
  let cache_bits_arg =
    Arg.(
      value & opt int 0
      & info [ "cache-bits" ] ~docv:"B"
          ~doc:
            "log2 of the per-domain hot-pair cache slots for $(b,--serve) \
             (0 = no cache). Cached answers are byte-identical to uncached \
             ones.")
  in
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Admission batch for $(b,--serve): pairs admitted per queue \
             dequeue (amortizes dispatch and clock reads).")
  in
  let obs_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-out" ] ~docv:"FILE"
          ~doc:
            "Write an obs/1 JSON dump to $(docv): the final metrics \
             registry plus (with $(b,--serve)) the sampler's time-series \
             points, whose cumulative counters reconcile exactly with the \
             printed summary.")
  in
  let obs_interval_arg =
    Arg.(
      value & opt int 100
      & info [ "obs-interval-ms" ] ~docv:"MS"
          ~doc:"Sampling interval for the $(b,--serve) time series.")
  in
  let obs_prom_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-prom" ] ~docv:"FILE"
          ~doc:"Write the final registry as Prometheus text exposition.")
  in
  let run family n seed k sketch_family domains load mmap save workload pairs
      qseed pairs_file dump_pairs skip_exact serve rate cache_bits batch
      obs_out obs_interval obs_prom =
    with_domains domains @@ fun pool ->
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
    if mmap && load = None then fail "--mmap requires --load";
    let store, source =
      match load with
      | Some path -> (
        (try Store.load ~mode:(if mmap then Store.Mmap else Store.Heap) path
         with
        | Store.Error msg -> fail "cannot load %s: %s" path msg
        | Sys_error msg -> fail "cannot load %s: %s" path msg),
        "snapshot:" ^ path )
      | None ->
        let g = make_graph family n seed in
        let built =
          Sketch_build.run ~pool ~family:sketch_family g ~k ~seed
        in
        ( Store.v ~seed ~graph_family:(Gen.family_name family)
            built.Sketch_build.sketch,
          "built" )
    in
    (match save with
    | None -> ()
    | Some path ->
      Store.save path store;
      Printf.eprintf "wrote %s (%d bytes)\n" path
        (String.length (Store.to_bytes store)));
    let meta = store.Store.meta in
    let oracle = Oracle.of_store store in
    if pairs < 1 then fail "--pairs must be >= 1";
    if meta.Store.n < 2 then fail "need at least 2 nodes to query";
    let flat, pairs =
      match pairs_file with
      | None ->
        ( Workload.pairs_flat ~rng:(Rng.create qseed) workload ~n:meta.Store.n
            ~count:pairs,
          pairs )
      | Some path ->
        let flat =
          try Workload.load_pairs ~n:meta.Store.n path with
          | Failure msg -> fail "%s" msg
          | Sys_error msg -> fail "cannot read %s: %s" path msg
        in
        let count = Array.length flat / 2 in
        if count = 0 then fail "%s: empty pair file" path;
        (flat, count)
    in
    (match dump_pairs with
    | None -> ()
    | Some path ->
      Workload.save_pairs path flat;
      Printf.eprintf "wrote %s (%d pairs)\n" path pairs);
    if obs_interval < 1 then fail "--obs-interval-ms must be >= 1";
    let obs_registry =
      match (obs_out, obs_prom) with
      | None, None -> None
      | _ -> Some (Obs.create ())
    in
    (* The mapped-bytes gauge is set once at startup (0 for heap
       loads/builds): dashboards read the zero-copy footprint next to
       RSS. *)
    (match obs_registry with
    | Some registry ->
      Obs.set
        (Obs.gauge registry Obs.Name.store_mapped_bytes)
        ~shard:0 (Store.mapped_bytes store)
    | None -> ());
    let sampler =
      match obs_registry with
      | Some registry when serve ->
        Some (Sampler.create ~interval_ms:obs_interval registry)
      | _ -> None
    in
    let serve_result =
      if not serve then None
      else begin
        if batch < 1 then fail "--batch must be >= 1";
        if cache_bits < 0 || cache_bits > Serve.max_cache_bits then
          fail "--cache-bits must be in [0, %d]" Serve.max_cache_bits;
        if rate < 0.0 then fail "--rate must be >= 0";
        Some
          (Serve.run ~pool
             ~config:{ Serve.batch; cache_bits; rate }
             ?obs:obs_registry ?sampler oracle flat)
      end
    in
    let answers, stats =
      match serve_result with
      | Some (answers, _) ->
        (* Timing fields below come from the serve stats; this keeps
           the answers identical between the two paths (pinned by the
           serve test suite). *)
        (answers, None)
      | None ->
        let answers, stats =
          Oracle.run_batch_flat ~pool ?obs:obs_registry oracle flat
        in
        (answers, Some stats)
    in
    (* Exact stretch needs the graph. A snapshot records its generation
       recipe (family name + seed), so regenerate when possible; give
       up gracefully when the family is unknown or the node count
       disagrees (approximate families like grids). *)
    let graph_for_stretch =
      if skip_exact then None
      else
        match load with
        | None -> Some (make_graph family n seed)
        | Some _ -> (
          match
            Arg.conv_parser family_conv
              (if meta.Store.graph_family = "" then "?"
               else meta.Store.graph_family)
          with
          | Error _ -> None
          | Ok fam ->
            let g = make_graph fam meta.Store.n meta.Store.seed in
            if Graph.n g = meta.Store.n then Some g else None)
    in
    let stretch_json =
      match graph_for_stretch with
      | None -> Json.Null
      | Some g ->
        let report =
          Eval.on_pairs ~query:(Oracle.query oracle) (exact_triples g flat)
        in
        (* Only tz carries a worst-case multiplicative guarantee
           (2k-1); landmark and bottom-k estimates are upper bounds
           with no fixed stretch bound, so the field goes null. *)
        let bound =
          match meta.Store.sketch_family with
          | Sketch_family.Tz -> Json.Int ((2 * meta.Store.k) - 1)
          | Sketch_family.Landmark | Sketch_family.Bottomk -> Json.Null
        in
        Json.Obj
          [
            ("max", Json.Float report.Eval.max_stretch);
            ("avg", Json.Float report.Eval.avg_stretch);
            ("p99", Json.Float report.Eval.p99);
            ("violations", Json.Int report.Eval.violations);
            ("unreachable", Json.Int report.Eval.unreachable);
            ("bound", bound);
          ]
    in
    let workload_name =
      match pairs_file with
      | None -> Workload.name workload
      | Some path -> "file:" ^ path
    in
    let id_fields =
      [
        ("source", Json.String source);
        ("n", Json.Int meta.Store.n);
        ("k", Json.Int meta.Store.k);
        ("graph_family", Json.String meta.Store.graph_family);
        ( "sketch_family",
          Json.String (Sketch_family.name meta.Store.sketch_family) );
        ("seed", Json.Int meta.Store.seed);
        ("size_words", Json.Int (Oracle.size_words oracle));
        ("load_mode", Json.String (Store.mode_name store.Store.load_mode));
        ("workload", Json.String workload_name);
      ]
    in
    let summary =
      match (serve_result, stats) with
      | Some (_, s), _ ->
        let lat = s.Serve.latency_ns in
        Json.Obj
          (("schema", Json.String "oracle-serve/1")
          :: id_fields
          @ [
              ("pairs", Json.Int s.Serve.pairs);
              ("domains", Json.Int domains);
              ("batch", Json.Int batch);
              ("rate", Json.Float s.Serve.offered_qps);
              ("qps", Json.Float s.Serve.qps);
              ("elapsed_ns", Json.Float s.Serve.elapsed_ns);
              ( "latency_ns",
                Json.Obj
                  [
                    ("mean", Json.Float lat.Serve.mean);
                    ("p50", Json.Float lat.Serve.p50);
                    ("p90", Json.Float lat.Serve.p90);
                    ("p99", Json.Float lat.Serve.p99);
                    ("p999", Json.Float lat.Serve.p999);
                    ("max", Json.Float lat.Serve.max);
                  ] );
              ( "cache",
                Json.Obj
                  [
                    ("bits", Json.Int cache_bits);
                    ( "hits",
                      Json.Int
                        (Array.fold_left
                           (fun acc (w : Serve.worker_stats) ->
                             acc + w.Serve.hits)
                           0 s.Serve.per_worker) );
                    ( "misses",
                      Json.Int
                        (Array.fold_left
                           (fun acc (w : Serve.worker_stats) ->
                             acc + w.Serve.misses)
                           0 s.Serve.per_worker) );
                    ("hit_rate", Json.Float s.Serve.hit_rate);
                  ] );
              ( "per_domain",
                Json.List
                  (Array.to_list
                     (Array.map
                        (fun (w : Serve.worker_stats) ->
                          Json.Obj
                            [
                              ("domain", Json.Int w.Serve.worker);
                              ("served", Json.Int w.Serve.served);
                              ("hits", Json.Int w.Serve.hits);
                              ("misses", Json.Int w.Serve.misses);
                              ("busy_ns", Json.Float w.Serve.busy_ns);
                              ("qps", Json.Float w.Serve.worker_qps);
                            ])
                        s.Serve.per_worker)) );
              ("stretch", stretch_json);
              ("results_fnv", Json.String (answers_fnv answers));
            ])
      | None, Some stats ->
        let lat = stats.Oracle.latency_ns in
        Json.Obj
          (("schema", Json.String "oracle-summary/1")
          :: id_fields
          @ [
              ("pairs", Json.Int stats.Oracle.pairs);
              ("domains", Json.Int domains);
              ("qps", Json.Float stats.Oracle.qps);
              ("elapsed_ns", Json.Float stats.Oracle.elapsed_ns);
              ( "latency_ns",
                Json.Obj
                  [
                    ("mean", Json.Float lat.Ds_util.Stats.mean);
                    ("p50", Json.Float lat.Ds_util.Stats.p50);
                    ("p90", Json.Float lat.Ds_util.Stats.p90);
                    ("p99", Json.Float lat.Ds_util.Stats.p99);
                    ("max", Json.Float lat.Ds_util.Stats.max);
                  ] );
              ("stretch", stretch_json);
              ("results_fnv", Json.String (answers_fnv answers));
            ])
      | None, None -> assert false
    in
    print_string (Json.to_string summary);
    match obs_registry with
    | None -> ()
    | Some registry ->
      let obs_meta =
        [
          ("cmd", Json.String "oracle");
          ("source", Json.String source);
          ("n", Json.Int meta.Store.n);
          ("k", Json.Int meta.Store.k);
          ( "sketch_family",
            Json.String (Sketch_family.name meta.Store.sketch_family) );
          ("pairs", Json.Int pairs);
          ("domains", Json.Int domains);
          ("workload", Json.String workload_name);
          ("serve", Json.Bool serve);
          ("load_mode", Json.String (Store.mode_name store.Store.load_mode));
        ]
      in
      (match obs_out with
      | Some path ->
        write_file path
          (Json.to_string (Sampler.doc ?sampler ~meta:obs_meta registry));
        Printf.eprintf "obs: wrote %s\n" path
      | None -> ());
      (match obs_prom with
      | Some path ->
        write_file path (Obs.prometheus registry);
        Printf.eprintf "obs: wrote %s\n" path
      | None -> ())
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:
         "Serve a batch of distance queries from the compact local oracle \
          (built fresh or loaded from a $(b,build --save) snapshot) and \
          print a JSON summary: throughput, latency percentiles, stretch \
          vs exact distances. With $(b,--serve), run the full serving loop \
          (sharded queues, batched admission, hot-pair cache, open-loop \
          rate) and report per-domain QPS, cache hit rate and p999 \
          latency.")
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ k_arg $ sketch_arg
      $ domains_arg $ load_arg $ mmap_arg $ save_arg $ workload_arg
      $ pairs_arg $ qseed_arg $ pairs_file_arg $ dump_pairs_arg
      $ skip_exact_arg $ serve_arg $ rate_arg $ cache_bits_arg $ batch_arg
      $ obs_out_arg $ obs_interval_arg $ obs_prom_arg)

(* ---- obs-cat ---- *)

(* Pretty-printer / validator for obs/1 dumps: the human end of the
   metrics plane, and the schema gate CI runs (`obs-cat --check`). *)
let obs_cat_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"An obs/1 JSON dump (oracle --obs-out / build --obs-out).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate instead of printing: schema tag, per-point derived \
             block, monotone cumulative counters, strictly increasing \
             elapsed times, final >= last point. Non-zero exit on any \
             violation.")
  in
  let run file check =
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
    let contents =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error msg -> fail "cannot read %s: %s" file msg
    in
    let doc =
      match Json.of_string contents with
      | Ok d -> d
      | Error msg -> fail "%s: invalid JSON (%s)" file msg
    in
    let num = function
      | Json.Int i -> float_of_int i
      | Json.Float f -> f
      | _ -> fail "%s: expected a number" file
    in
    let obj_field ctx name j =
      match Json.member name j with
      | Some v -> v
      | None -> fail "%s: %s: missing field %S" file ctx name
    in
    if check then begin
      (* The whole invariant battery lives in {!Ds_obs.Obs_doc} (so the
         test suite can drive it on synthetic dumps): schema tag,
         per-point derived block, strictly increasing elapsed times,
         monotone cumulative counters, final >= last point, well-formed
         counter label suffixes, and labeled-variant sums bounded by
         their plain base counter. *)
      match Ds_obs.Obs_doc.check doc with
      | Ok points -> Printf.printf "%s: ok (obs/1, %d points)\n" file points
      | Error msg -> fail "%s: %s" file msg
    end
    else begin
      let points =
        match obj_field "document" "points" doc with
        | Json.List l -> l
        | _ -> fail "%s: points is not a list" file
      in
      let final = obj_field "document" "final" doc in
      let final_counters =
        match obj_field "final" "counters" final with
        | Json.Obj fields -> fields
        | _ -> fail "%s: final.counters is not an object" file
      in
      let dnum point name =
        match Json.member "derived" point with
        | Some d -> (
          match Json.member name d with Some v -> num v | None -> 0.0)
        | None -> 0.0
      in
      Printf.printf "%-6s %10s %12s %9s %14s %12s %10s\n" "seq" "ms" "qps"
        "hit_rate" "p99_block_ns" "queue_depth" "rss_kb";
      List.iter
        (fun point ->
          let seq =
            match Json.member "seq" point with
            | Some (Json.Int i) -> i
            | _ -> -1
          in
          Printf.printf "%-6d %10.2f %12.0f %9.3f %14.0f %12.0f %10.0f\n" seq
            (num (obj_field "point" "elapsed_ms" point))
            (dnum point "qps") (dnum point "hit_rate")
            (dnum point "p99_block_ns")
            (dnum point "queue_depth") (dnum point "rss_kb"))
        points;
      Printf.printf "final:\n";
      List.iter
        (fun (name, v) -> Printf.printf "  %-24s %.0f\n" name (num v))
        final_counters
    end
  in
  Cmd.v
    (Cmd.info "obs-cat"
       ~doc:
         "Pretty-print an obs/1 metrics dump as a time-series table \
          (derived QPS, hit rate, p99 block latency, queue depth, RSS), \
          or validate its schema and monotonicity invariants with \
          $(b,--check).")
    Term.(const run $ file_arg $ check_arg)

(* ---- query ---- *)

let query_cmd =
  let u_arg =
    Arg.(value & opt int 0 & info [ "u"; "from" ] ~docv:"U" ~doc:"Query endpoint u.")
  in
  let v_arg =
    Arg.(value & opt int 1 & info [ "v"; "to" ] ~docv:"V" ~doc:"Query endpoint v.")
  in
  let run family n seed k u v domains =
    let g = make_graph family n seed in
    let gn = Graph.n g in
    if u < 0 || u >= gn || v < 0 || v >= gn then
      `Error
        ( true,
          Printf.sprintf "endpoints -u %d and -v %d must be in [0, %d)" u v gn
        )
    else begin
      with_domains domains @@ fun pool ->
      let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n:gn ~k in
      let built = Ds_core.Tz_distributed.build ~pool g ~levels in
      let tree, _ = Ds_congest.Setup.run ~pool g in
      let r =
        Ds_core.Query_protocol.query ~pool g ~tree
          ~labels:built.Ds_core.Tz_distributed.labels ~u ~v
      in
      let exact = Ds_graph.Dijkstra.sssp g ~src:u in
      Format.printf
        "estimate d(%d,%d) = %d (exact %d, stretch %.2f), exchanged in %d \
         rounds / %d messages@."
        u v r.Ds_core.Query_protocol.estimate exact.(v)
        (float_of_int r.Ds_core.Query_protocol.estimate
        /. float_of_int exact.(v))
        r.Ds_core.Query_protocol.rounds r.Ds_core.Query_protocol.messages;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Answer one distance query by in-network sketch exchange.")
    Term.(
      ret
        (const run $ family_arg $ n_arg $ seed_arg $ k_arg $ u_arg $ v_arg
       $ domains_arg))

(* ---- route ---- *)

let route_cmd =
  let u_arg =
    Arg.(value & opt int 0 & info [ "src" ] ~docv:"SRC" ~doc:"Token source.")
  in
  let v_arg =
    Arg.(value & opt int 1 & info [ "dst" ] ~docv:"DST" ~doc:"Token target.")
  in
  let run family n seed k src dst domains =
    with_domains domains @@ fun pool ->
    let g = make_graph family n seed in
    let gn = Graph.n g in
    let levels = Levels.sample ~rng:(Rng.create (seed + 1)) ~n:gn ~k in
    let built = Ds_core.Tz_distributed.build ~pool g ~levels in
    match
      Ds_core.Routing.with_labels g built.Ds_core.Tz_distributed.labels ~src
        ~dst
    with
    | None -> Printf.printf "token gave up (hop budget exhausted)\n"
    | Some o ->
      let exact = Ds_graph.Dijkstra.sssp g ~src in
      Printf.printf "delivered in %d hops, cost %d (shortest %d, %.2fx)\n"
        o.Ds_core.Routing.hops o.Ds_core.Routing.cost exact.(dst)
        (float_of_int o.Ds_core.Routing.cost /. float_of_int exact.(dst));
      Printf.printf "path: %s\n"
        (String.concat " -> "
           (List.map string_of_int o.Ds_core.Routing.path))
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Greedily forward a token using sketches as the distance oracle.")
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ k_arg $ u_arg $ v_arg
      $ domains_arg)

let main =
  Cmd.group
    (Cmd.info "distsketch" ~version:"1.0.0"
       ~doc:"Distributed distance sketches (Das Sarma-Dinitz-Pandurangan).")
    [ list_cmd; run_cmd; report_cmd; profile_cmd; build_cmd; scale_cmd;
      trace_cmd; spanner_cmd; oracle_cmd; obs_cat_cmd; query_cmd; route_cmd ]

let () = exit (Cmd.eval main)
