(* The end-to-end benchmark's command line; see README.md.

     e2e.exe --workload W --seed S [--seconds T] [--trace 0|1]
             [--trace-dir D] [--tmp D]
       one workload in this process; the last stdout line is
       {"correct", "attempted", "failed", "metrics"}
     e2e.exe --seed S [--seconds T] [--trace 0|1] [--tmp D]
       every workload, each in its own child process, one at a time;
       one line per workload, tagged with workload, seed and cores
     e2e.exe --compare A B [--benchmark FILE]
       the regression gate over two files of such lines
     e2e.exe --smoke [--benchmark FILE] [--tmp D]
       every workload at toy size, traced and untraced; fails when a
       metric BENCHMARK.json names is missing or not finite, or when
       any answer is wrong

   Exit status: 0 when every run is correct, 1 when a run is incorrect
   or the gate finds a regression, 2 on bad arguments. *)

module Json = Sut.Json

let result_json (r : Pipeline.result) =
  let metric (m : Pipeline.metric) =
    (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ])
  in
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.map metric r.metrics));
    ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
  end

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let run_one ~(workload : Workload.t) ~seed ~seconds ~trace ~trace_dir ~tmp =
  mkdir_p tmp;
  let r = Pipeline.run ~trace ~seconds ~tmp ~seed workload in
  (match trace_dir with
  | Some dir when trace ->
    mkdir_p dir;
    let base = Filename.concat dir workload.name in
    let ledger = Span.ledger_json ~workload:workload.name (Span.ledger r.spans) in
    write_file (base ^ ".trace.json") (Json.to_string_compact (Span.chrome r.spans));
    write_file (base ^ ".layers.json") (Json.to_string ledger)
  | _ -> ());
  print_endline (Json.to_string_compact (result_json r));
  if r.correct then 0 else 1

(* Runs this executable with [args] as a child process and returns its
   exit code and the last line it printed. *)
let child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.append [| exe |] args) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then last := line
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  ((match status with Unix.WEXITED c -> c | _ -> 1), !last)

let run_all ~seed ~seconds ~trace ~tmp =
  let cores = Domain.recommended_domain_count () in
  let trace_flag = if trace then "1" else "0" in
  List.fold_left
    (fun worst (w : Workload.t) ->
      let code, last =
        child
          [|
            "--workload"; w.name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; trace_flag;
            "--tmp"; tmp;
          |]
      in
      (match Json.of_string last with
      | Ok (Json.Obj fields) ->
        let tags =
          [
            ("workload", Json.String w.name);
            ("seed", Json.Int seed);
            ("cores", Json.Int cores);
            ("trace", Json.Int (if trace then 1 else 0));
          ]
        in
        print_endline (Json.to_string_compact (Json.Obj (tags @ fields)))
      | _ -> Printf.eprintf "e2e: %s printed no result\n%!" w.name);
      max worst (if code = 0 then 0 else 1))
    0 Workload.all

(* Every workload at toy size, untraced then traced, checked against
   the metric names in BENCHMARK.json. *)
let smoke ~benchmark ~tmp =
  let e2e, layers = Compare.metric_specs benchmark in
  mkdir_p tmp;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (trace, names) ->
          let r = Pipeline.run ~smoke:true ~trace ~seconds:0. ~tmp ~seed:1 w in
          if not r.correct then problem "%s: incorrect answers" w.name;
          List.iter
            (fun (name, _) ->
              let found =
                List.find_opt (fun (m : Pipeline.metric) -> m.name = name) r.metrics
              in
              match found with
              | None -> problem "%s: metric %s missing" w.name name
              | Some m when not (Float.is_finite m.value) ->
                problem "%s: %s = %g" w.name name m.value
              | Some m when name = "check.error_rate" && m.value <> 0. ->
                problem "%s: error rate %g" w.name m.value
              | Some _ -> ())
            names)
        [ (false, e2e); (true, layers) ])
    Workload.all;
  match List.rev !problems with
  | [] ->
    Printf.printf "e2e smoke: %d workloads, %d end-to-end and %d per-layer metrics\n"
      (List.length Workload.all) (List.length e2e) (List.length layers);
    0
  | ps ->
    List.iter (Printf.printf "e2e smoke: %s\n") ps;
    1

let () =
  let workload = ref None and seed = ref None and seconds = ref 6. in
  let trace = ref 0 and trace_dir = ref None and tmp = ref "_build/e2e" in
  let benchmark = ref "BENCHMARK.json" in
  let compare_mode = ref false and smoke_mode = ref false and anon = ref [] in
  let usage =
    "e2e.exe [--workload W] --seed S [--seconds T] [--trace 0|1]\n\
    \       e2e.exe --compare A B\n\
    \       e2e.exe --smoke"
  in
  let bad msg =
    prerr_endline ("e2e: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let names =
    String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)
  in
  let set_workload s =
    match Workload.find s with
    | Some w -> workload := Some w
    | None -> bad (Printf.sprintf "unknown workload %S (one of: %s)" s names)
  in
  Arg.parse
    [
      ("--workload", Arg.String set_workload, "NAME run one workload in this process");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "T length of the serve phase (default 6)");
      ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics");
      ( "--trace-dir",
        Arg.String (fun d -> trace_dir := Some d),
        "DIR write the Chrome trace and the ledger there" );
      ("--tmp", Arg.Set_string tmp, "DIR snapshot scratch (default _build/e2e)");
      ( "--benchmark",
        Arg.Set_string benchmark,
        "FILE metric names and bounds (default BENCHMARK.json)" );
      ("--compare", Arg.Set compare_mode, " compare the two result files that follow");
      ("--smoke", Arg.Set smoke_mode, " toy-size run of every workload");
    ]
    (fun a -> anon := a :: !anon)
    usage;
  let code =
    match (!compare_mode, !smoke_mode, List.rev !anon) with
    | true, false, [ a; b ] -> Compare.run ~benchmark:!benchmark a b
    | true, _, _ -> bad "--compare takes two result files"
    | false, true, [] -> smoke ~benchmark:!benchmark ~tmp:!tmp
    | _, _, _ :: _ -> bad "unexpected arguments"
    | false, false, [] -> (
      if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
      if not (Float.is_finite !seconds && !seconds >= 0.) then
        bad "--seconds must be >= 0";
      let trace = !trace = 1 and seconds = !seconds and tmp = !tmp in
      match (!seed, !workload) with
      | None, _ -> bad "--seed is required"
      | Some seed, Some workload ->
        run_one ~workload ~seed ~seconds ~trace ~trace_dir:!trace_dir ~tmp
      | Some seed, None -> run_all ~seed ~seconds ~trace ~tmp)
  in
  exit code
