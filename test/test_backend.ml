(* The engine contract: a protocol run is a pure function of (graph,
   protocol) — byte-identical states and metrics for every pool size.
   The canonical inbox order (ascending sender index, unique per
   round) is what pins the interleavings. Also here: the packed wire
   words and the message-plane word budget. *)

module Rng = Ds_util.Rng
module Graph = Ds_graph.Graph
module Gen = Ds_graph.Gen
module Engine = Ds_congest.Engine
module Superstep = Ds_congest.Superstep
module Metrics = Ds_congest.Metrics
module Multi_bf = Ds_congest.Multi_bf
module Super_bf = Ds_congest.Super_bf
module Wire = Ds_congest.Wire
module Levels = Ds_core.Levels
module Label = Ds_core.Label
module Tz = Ds_core.Tz_distributed
module Slack = Ds_core.Slack
module Cdg = Ds_core.Cdg
module Pool = Ds_parallel.Pool

let check_metrics_equal name a b =
  Alcotest.(check int) (name ^ " rounds") (Metrics.rounds a) (Metrics.rounds b);
  Alcotest.(check int)
    (name ^ " messages")
    (Metrics.messages a) (Metrics.messages b);
  Alcotest.(check int) (name ^ " words") (Metrics.words a) (Metrics.words b);
  Alcotest.(check int)
    (name ^ " backlog")
    (Metrics.max_link_backlog a)
    (Metrics.max_link_backlog b)

let labels_equal name a b =
  Alcotest.(check int) (name ^ " label count") (Array.length a) (Array.length b);
  Array.iteri
    (fun u la ->
      Alcotest.(check bool)
        (Printf.sprintf "%s label %d" name u)
        true (Label.equal la b.(u)))
    a

let graph seed n = Gen.erdos_renyi ~rng:(Rng.create seed) ~n ~avg_degree:5.0 ()

(* One sequential reference run per construction, then the same run
   across pool sizes: results must match the reference bit for bit.
   Domain counts beyond the host's core count still run (chunks just
   queue), so the matrix is stable on any machine. *)
let domain_matrix = [ 2; 4; 8 ]

let test_tz_pool_width () =
  let g = graph 301 120 in
  let levels = Levels.sample ~rng:(Rng.create 302) ~n:(Graph.n g) ~k:3 in
  let ref_r = Tz.build g ~levels in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains @@ fun pool ->
      let r = Tz.build ~pool g ~levels in
      let name = Printf.sprintf "tz d=%d" domains in
      labels_equal name ref_r.Tz.labels r.Tz.labels;
      check_metrics_equal name ref_r.Tz.metrics r.Tz.metrics;
      Alcotest.(check int)
        (name ^ " max_pending")
        ref_r.Tz.max_pending r.Tz.max_pending)
    domain_matrix

let test_slack_pool_width () =
  let g = graph 303 140 in
  let ref_r = Slack.build_distributed ~rng:(Rng.create 304) g ~eps:0.25 in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains @@ fun pool ->
      let r =
        Slack.build_distributed ~pool ~rng:(Rng.create 304) g ~eps:0.25
      in
      let name = Printf.sprintf "slack d=%d" domains in
      Alcotest.(check bool)
        (name ^ " sketches")
        true
        (ref_r.Slack.sketches = r.Slack.sketches);
      Alcotest.(check bool) (name ^ " net") true (ref_r.Slack.net = r.Slack.net);
      check_metrics_equal name ref_r.Slack.metrics r.Slack.metrics)
    domain_matrix

let test_cdg_pool_width () =
  let g = graph 305 130 in
  let ref_r = Cdg.build_distributed ~rng:(Rng.create 306) g ~eps:0.3 ~k:2 in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains @@ fun pool ->
      let r =
        Cdg.build_distributed ~pool ~rng:(Rng.create 306) g ~eps:0.3 ~k:2
      in
      let name = Printf.sprintf "cdg d=%d" domains in
      Array.iteri
        (fun u (s : Cdg.sketch) ->
          let s' = r.Cdg.sketches.(u) in
          Alcotest.(check int) (name ^ " nearest") s.Cdg.nearest s'.Cdg.nearest;
          Alcotest.(check int)
            (name ^ " nearest_dist")
            s.Cdg.nearest_dist s'.Cdg.nearest_dist;
          Alcotest.(check bool)
            (name ^ " net_label")
            true
            (Label.equal s.Cdg.net_label s'.Cdg.net_label);
          Alcotest.(check bool)
            (name ^ " own_label")
            true
            (Label.equal s.Cdg.own_label s'.Cdg.own_label))
        ref_r.Cdg.sketches;
      check_metrics_equal name ref_r.Cdg.metrics r.Cdg.metrics)
    domain_matrix

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* The split gives src ceil(log2 n) bits and dist the rest of 62, so
   both extremes round-trip and one past the largest dist raises. *)
let test_wire_packing_extremes () =
  List.iter
    (fun (n, dist_bits) ->
      let sp = Wire.split n in
      let top = Wire.max_dist sp in
      let name = Printf.sprintf "n=%d" n in
      Alcotest.(check int) (name ^ " max dist") ((1 lsl dist_bits) - 1) top;
      List.iter
        (fun (src, dist) ->
          let m = Wire.pack sp ~src ~dist in
          Alcotest.(check bool) (name ^ " non-negative") true (m >= 0);
          Alcotest.(check (pair int int))
            (name ^ " round-trip") (src, dist)
            (Wire.src sp m, Wire.dist sp m))
        [ (n - 1, top); (0, top); (n - 1, 0); (0, 0) ];
      Alcotest.(check bool) (name ^ " dist overflow raises") true
        (raises_invalid (fun () -> Wire.pack sp ~src:(n - 1) ~dist:(top + 1)));
      Alcotest.(check bool) (name ^ " negative dist raises") true
        (raises_invalid (fun () -> Wire.pack sp ~src:0 ~dist:(-1)));
      Alcotest.(check bool) (name ^ " src overflow raises") true
        (raises_invalid (fun () -> Wire.pack sp ~src:(1 lsl (62 - dist_bits)) ~dist:0)))
    [ (1, 62); (2, 61); (1 lsl 20, 42) ]

(* The decoders [Super_bf.on_round] runs: tag, then source and
   distance of an update. *)
let test_super_bf_tags () =
  List.iter
    (fun n ->
      let sp = Super_bf.split n in
      let top = Wire.max_dist sp in
      Alcotest.(check int) "two tag bits" (Wire.max_dist (Wire.split n) lsr 2) top;
      Alcotest.(check int) "claim" 1 (Super_bf.tag Super_bf.claim);
      Alcotest.(check int) "unclaim" 2 (Super_bf.tag Super_bf.unclaim);
      List.iter
        (fun (src, dist) ->
          let m = Super_bf.update sp ~src ~dist in
          let name = Printf.sprintf "update (%d, %d)" src dist in
          Alcotest.(check bool) (name ^ " non-negative") true ((m :> int) >= 0);
          Alcotest.(check int) (name ^ " tag") 0 (Super_bf.tag m);
          Alcotest.(check (pair int int))
            name (src, dist)
            (Super_bf.update_src sp m, Super_bf.update_dist sp m))
        [ (n - 1, top); (0, 0); (n - 1, 0); (0, top) ];
      Alcotest.(check bool) "update overflow raises" true
        (raises_invalid (fun () -> Super_bf.update sp ~src:0 ~dist:(top + 1))))
    [ 1; 2; 1 lsl 20 ]

(* The canonical inbox order, observed from inside [on_round]: every
   inbox a protocol sees lists its senders in strictly ascending
   neighbor index. Nodes send to a pseudo-random subset of links each
   round, sometimes twice, so rings back up and inboxes are partial
   and irregular. *)
type probe = { mutable ordered : bool; mutable widest : int }

let order_probe ~rounds : (probe, int) Superstep.protocol =
  let send_some (api : int Superstep.api) r =
    for i = 0 to api.degree - 1 do
      let h = Rng.mix ((api.id * 7919) + (r * 104_729) + i) in
      if h land 3 = 0 then api.send i r;
      if h land 15 = 1 then api.send i r
    done
  in
  {
    Superstep.name = "order-probe";
    max_msg_words = 1;
    msg_words = (fun _ -> 1);
    halted = (fun _ -> true);
    init =
      (fun api ->
        send_some api 0;
        { ordered = true; widest = 0 });
    on_round =
      (fun api st inbox ->
        let len = Superstep.Inbox.length inbox in
        for i = 1 to len - 1 do
          if Superstep.Inbox.from inbox (i - 1) >= Superstep.Inbox.from inbox i
          then st.ordered <- false
        done;
        st.widest <- max st.widest len;
        let r = api.Superstep.round () in
        if r < rounds then send_some api r);
  }

let test_canonical_inbox_order () =
  let check name (r : (probe, int) Engine.exec) =
    Alcotest.(check bool) (name ^ " inboxes ascending") true
      (Array.for_all (fun st -> st.ordered) r.Engine.states);
    Alcotest.(check bool) (name ^ " some inbox holds several") true
      (Array.exists (fun st -> st.widest >= 3) r.Engine.states)
  in
  Pool.with_pool ~domains:2 @@ fun pool ->
  List.iter
    (fun seed ->
      let g = Helpers.random_graph ~seed ~avg_degree:8.0 150 in
      let proto = order_probe ~rounds:12 in
      check
        (Printf.sprintf "synchronous seed %d" seed)
        (Engine.execute ~pool g proto);
      let jitter = { Engine.rng = Rng.create seed; max_delay = 3 } in
      check
        (Printf.sprintf "jittered seed %d" seed)
        (Engine.execute ~pool ~jitter g proto))
    [ 311; 312; 313 ]

(* The audited word budget of the message-plane backbone (DESIGN.md
   "Engine internals"): at most 48 words per directed link plus 32
   words per node. Checked at n = 10^5 — the scale experiment's size —
   with a streaming sparse graph and an unrestricted 4-source flood
   (rings at their high-water mark). *)
let test_memory_budget_at_scale () =
  let n = 100_000 in
  let g = Gen.streaming_sparse ~rng:(Rng.create 310) ~n ~avg_degree:8.0 () in
  let directed_links = 2 * Graph.m g in
  let budget = (48 * directed_links) + (32 * n) in
  let sources = [ 0; n / 3; n / 2; (2 * n) / 3 ] in
  let src_set = Array.make n false in
  List.iter (fun s -> src_set.(s) <- true) sources;
  Pool.with_pool ~domains:2 @@ fun pool ->
  let r =
    Engine.execute ~pool g
      (Multi_bf.protocol ~n
         ~is_source:(fun u -> src_set.(u))
         ~bound:(fun _ -> Ds_graph.Dist.none))
  in
  (match r.Engine.stop with
  | Engine.Quiescent | Engine.All_halted -> ()
  | Engine.Round_limit -> Alcotest.fail "round limit");
  Alcotest.(check bool)
    (Printf.sprintf "plane fits budget (%d <= %d)" r.Engine.mem_words budget)
    true
    (r.Engine.mem_words <= budget)

let suite =
  [
    Alcotest.test_case "tz pool-width invariant" `Quick test_tz_pool_width;
    Alcotest.test_case "slack pool-width invariant" `Quick
      test_slack_pool_width;
    Alcotest.test_case "cdg pool-width invariant" `Quick test_cdg_pool_width;
    Alcotest.test_case "wire packing extremes" `Quick test_wire_packing_extremes;
    Alcotest.test_case "super-bf tags decode" `Quick test_super_bf_tags;
    Alcotest.test_case "inboxes arrive in canonical order" `Quick
      test_canonical_inbox_order;
    Alcotest.test_case "memory budget at n=1e5" `Slow
      test_memory_budget_at_scale;
  ]
