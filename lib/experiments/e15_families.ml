(** E15 — the sketch-family head-to-head: TZ / slack / CDG vs the
    platform's landmark and bottom-k families.

    Not a single-theorem reproduction but the platform experiment
    ROADMAP item 4 asks for: every family built by the same engine on
    the same topology sweep, evaluated on one shared query-pair
    stream, with build rounds, message words, per-node sketch size and
    the stretch distribution side by side. The hard guarantees that do
    carry over are checked: landmark and bottom-k estimates are upper
    bounds (zero underestimates anywhere), and TZ stays within its
    2k-1 worst case. Slack / CDG rows are context — their guarantees
    only cover ε-far pairs, and this table deliberately queries the
    unrestricted uniform stream. *)

module Table = Ds_util.Table
module Report = Ds_util.Report
module Rng = Ds_util.Rng
module Stats = Ds_util.Stats
module Graph = Ds_graph.Graph
module Apsp = Ds_graph.Apsp
module Dist = Ds_graph.Dist
module Metrics = Ds_congest.Metrics
module Slack = Ds_core.Slack
module Cdg = Ds_core.Cdg
module Eval = Ds_core.Eval
module Sketch = Ds_sketch.Sketch
module Family = Ds_sketch.Family
module Build = Ds_sketch.Build
module Workload = Ds_oracle.Workload

type params = { seed : int; n : int; k : int; eps : float; qpairs : int }

let default = { seed = 15; n = 300; k = 3; eps = 0.25; qpairs = 4000 }
let quick = { seed = 15; n = 100; k = 2; eps = 0.25; qpairs = 1000 }

let id = "e15"
let title = "sketch-family head-to-head: tz / slack / cdg / landmark / bottom-k"
let claim_id = "platform (ROADMAP item 4)"

let claim =
  "one engine builds five sketch families on the same topology sweep; \
   landmark and bottom-k estimates never underestimate (they are minima \
   over exact two-leg paths), and TZ keeps its 2k-1 worst case, while \
   build cost and sketch size trade off per family"

let bound_expr =
  "0 underestimates for landmark / bottom-k on every family; `2k-1` max \
   stretch for tz"

let prose =
  "The five families split exactly as their constructions predict. TZ \
   is the only one with a universal stretch bound and it holds on every \
   topology. Landmark and bottom-k are upper-bound estimators: zero \
   violations everywhere, with accuracy bought by sketch words — \
   bottom-k's k-pruned ADS stays near TZ's size, while the landmark \
   family's k·⌊log2 n⌋ Bellman–Ford waves cost the most rounds and \
   words but give the tightest non-TZ estimates on most sweeps. The \
   unreach column counts pairs where a sketch holds no common witness \
   (impossible for full TZ sketches on a connected graph, expected \
   occasionally for the sampled families). Slack and CDG rows are \
   evaluated outside their contract on purpose — uniform pairs, not \
   ε-far ones — so their worst-case stretch here is not a bound \
   violation."

(* One built scheme, normalized for the table. *)
type scheme_run = {
  rounds : int;
  words : int;
  mean_words : float;
  report : Eval.report;
}

let run ?pool { seed; n; k; eps; qpairs } =
  let cdg_k = 2 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E15: family head-to-head (n=%d, k=%d, eps=%g, %d uniform pairs)" n
           k eps qpairs)
      ~headers:
        [
          "family"; "scheme"; "rounds"; "kwords"; "w/node";
          "max"; "avg"; "p99"; "viol"; "unreach";
        ]
  in
  let worst_tz = ref 0.0 in
  let tz_viol = ref 0 in
  let landmark_viol = ref 0 in
  let bottomk_viol = ref 0 in
  let phases = ref [] in
  List.iter
    (fun (fname, family) ->
      let w = Common.make_workload ?pool ~seed ~family ~n () in
      let gn = Graph.n w.Common.graph in
      (* One pair stream per topology, shared verbatim by all five
         schemes — the in-process analogue of the CLI's --pairs-file. *)
      let flat =
        Workload.pairs_flat ~rng:(Rng.create (seed + 101)) Workload.Uniform
          ~n:gn ~count:qpairs
      in
      let triples =
        List.init qpairs (fun i -> (flat.(2 * i), flat.((2 * i) + 1)))
        |> List.filter_map (fun (u, v) ->
               let d = Apsp.dist w.Common.apsp u v in
               if Dist.is_finite d then Some (u, v, d) else None)
        |> Array.of_list
      in
      let sketch_scheme sf =
        let r = Build.run ?pool ~family:sf w.Common.graph ~k ~seed in
        let sizes =
          Eval.size_summary
            (Sketch.node_size_words r.Build.sketch)
            (Array.init gn Fun.id)
        in
        if sf = Family.Tz && !phases = [] then
          phases :=
            [
              ( Printf.sprintf "tz build (%s, n=%d, k=%d)" fname gn k,
                Common.report_phases r.Build.metrics );
            ];
        {
          rounds = Metrics.rounds r.Build.metrics;
          words = Metrics.words r.Build.metrics;
          mean_words = sizes.Stats.mean;
          report = Eval.on_pairs ~query:(Sketch.estimate r.Build.sketch) triples;
        }
      in
      let slack_scheme () =
        let r =
          Slack.build_distributed ?pool ~rng:(Rng.create (seed + 13))
            w.Common.graph ~eps
        in
        let sizes = Eval.size_summary Slack.size_words r.Slack.sketches in
        {
          rounds = Metrics.rounds r.Slack.metrics;
          words = Metrics.words r.Slack.metrics;
          mean_words = sizes.Stats.mean;
          report =
            Eval.on_pairs
              ~query:(fun u v ->
                Slack.query r.Slack.sketches.(u) r.Slack.sketches.(v))
              triples;
        }
      in
      let cdg_scheme () =
        let r =
          Cdg.build_distributed ?pool ~rng:(Rng.create (seed + 17))
            w.Common.graph ~eps ~k:cdg_k
        in
        let sizes = Eval.size_summary Cdg.size_words r.Cdg.sketches in
        {
          rounds = Metrics.rounds r.Cdg.metrics;
          words = Metrics.words r.Cdg.metrics;
          mean_words = sizes.Stats.mean;
          report =
            Eval.on_pairs
              ~query:(fun u v ->
                Cdg.query r.Cdg.sketches.(u) r.Cdg.sketches.(v))
              triples;
        }
      in
      let schemes =
        [
          ("tz", sketch_scheme Family.Tz);
          (Printf.sprintf "slack(%g)" eps, slack_scheme ());
          (Printf.sprintf "cdg(%g,%d)" eps cdg_k, cdg_scheme ());
          ("landmark", sketch_scheme Family.Landmark);
          ("bottomk", sketch_scheme Family.Bottomk);
        ]
      in
      List.iter
        (fun (sname, s) ->
          (match sname with
          | "tz" ->
            worst_tz := max !worst_tz s.report.Eval.max_stretch;
            tz_viol := !tz_viol + s.report.Eval.violations
          | "landmark" ->
            landmark_viol := !landmark_viol + s.report.Eval.violations
          | "bottomk" ->
            bottomk_viol := !bottomk_viol + s.report.Eval.violations
          | _ -> ());
          Table.add_row t
            ([
               fname;
               sname;
               Table.cell_int s.rounds;
               Table.cell_int (s.words / 1000);
               Table.cell_float s.mean_words;
             ]
            @ Common.stretch_cells s.report
            @ [ Table.cell_int s.report.Eval.unreachable ]))
        schemes)
    (Common.standard_families ~n);
  let bound = float_of_int ((2 * k) - 1) in
  let checks =
    [
      Report.check ~bound
        ~ok:(!tz_viol = 0 && !worst_tz <= bound)
        "tz max stretch, all families (bound 2k-1, zero violations)"
        !worst_tz;
      Report.check ~bound:0.0 ~ok:(!landmark_viol = 0)
        "landmark underestimates, all families (upper-bound estimator)"
        (float_of_int !landmark_viol);
      Report.check ~bound:0.0 ~ok:(!bottomk_viol = 0)
        "bottom-k underestimates, all families (upper-bound estimator)"
        (float_of_int !bottomk_viol);
    ]
  in
  {
    Report.id;
    title;
    claim_id;
    claim;
    bound_expr;
    prose;
    checks;
    tables = [ t ];
    phases = !phases;
    round_profiles = [];
    verdict = Report.Reproduced;
  }
