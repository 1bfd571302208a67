(* Engine-level semantics that the protocol correctness proofs lean
   on: FIFO links (with and without jitter), round numbering, and
   quiescence behaviour. *)

module Rng = Ds_util.Rng
module Graph = Ds_graph.Graph
module Engine = Ds_congest.Engine
module Metrics = Ds_congest.Metrics

(* Node 0 sends a numbered burst to node 1; node 1 records arrivals. *)
let burst_protocol ~count : ((int * int) list ref, int) Engine.protocol =
  {
    Engine.name = "burst";
    max_msg_words = 1;
    msg_words = (fun _ -> 1);
    halted = (fun _ -> true);
    init =
      (fun api ->
        if api.Engine.id = 0 then
          for s = 1 to count do
            api.Engine.send 0 s
          done;
        ref []);
    on_round =
      (fun api st inbox ->
        Engine.Inbox.iter
          (fun _ m -> st := (m, api.Engine.round ()) :: !st)
          inbox);
  }

let arrivals ?jitter count =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let eng = Engine.create ?jitter g (burst_protocol ~count) in
  ignore (Engine.run eng);
  List.rev !(Engine.state eng 1)

let test_fifo_synchronous () =
  let a = arrivals 5 in
  Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.map fst a);
  Alcotest.(check (list int)) "one per round" [ 1; 2; 3; 4; 5 ]
    (List.map snd a)

let test_fifo_under_jitter () =
  let jitter = { Engine.rng = Rng.create 901; max_delay = 5 } in
  let a = arrivals ~jitter 8 in
  Alcotest.(check (list int)) "order preserved" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.map fst a);
  let rounds = List.map snd a in
  let rec strictly_increasing = function
    | x :: (y :: _ as rest) -> x < y && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "arrival rounds strictly increase" true
    (strictly_increasing rounds)

let test_jitter_never_reorders_qcheck =
  QCheck.Test.make ~name:"jitter preserves per-link FIFO order" ~count:50
    QCheck.(pair (int_range 1 20) (int_range 0 100000))
    (fun (count, seed) ->
      let jitter = { Engine.rng = Rng.create seed; max_delay = seed mod 7 } in
      let a = arrivals ~jitter count in
      List.map fst a = List.init count (fun i -> i + 1))

let test_round_numbers_visible_to_nodes () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let seen = ref [] in
  let proto : (unit, int) Engine.protocol =
    {
      Engine.name = "rounds";
      max_msg_words = 1;
      msg_words = (fun _ -> 1);
      halted = (fun _ -> true);
      init = (fun api -> if api.Engine.id = 0 then api.Engine.send 0 0);
      on_round =
        (fun api _ inbox ->
          if api.Engine.id = 0 then seen := api.Engine.round () :: !seen;
          (* keep one message circulating for three rounds *)
          Engine.Inbox.iter
            (fun _ m -> if m < 2 then api.Engine.send 0 (m + 1))
            inbox);
    }
  in
  let eng = Engine.create g proto in
  ignore (Engine.run eng);
  Alcotest.(check bool) "rounds increase from 1" true
    (List.rev !seen |> List.mapi (fun i r -> r = i + 1) |> List.for_all Fun.id)

let test_quiescent_empty_protocol () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1); (1, 2, 1) ] in
  let proto : (unit, int) Engine.protocol =
    {
      Engine.name = "silent";
      max_msg_words = 1;
      msg_words = (fun _ -> 1);
      halted = (fun _ -> true);
      init = (fun _ -> ());
      on_round = (fun _ _ _ -> ());
    }
  in
  let eng = Engine.create g proto in
  let reason = Engine.run eng in
  Alcotest.(check bool) "halts immediately" true (reason = Engine.All_halted);
  Alcotest.(check int) "zero rounds" 0 (Metrics.rounds (Engine.metrics eng));
  Alcotest.(check int) "zero messages" 0 (Metrics.messages (Engine.metrics eng))

let test_round_limit () =
  (* Two nodes ping-pong forever; the limit must fire. *)
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let proto : (unit, int) Engine.protocol =
    {
      Engine.name = "ping-pong";
      max_msg_words = 1;
      msg_words = (fun _ -> 1);
      halted = (fun _ -> false);
      init = (fun api -> if api.Engine.id = 0 then api.Engine.send 0 0);
      on_round =
        (fun api _ inbox ->
          Engine.Inbox.iter (fun i m -> api.Engine.send i m) inbox);
    }
  in
  let eng = Engine.create g proto in
  let reason = Engine.run ~max_rounds:50 eng in
  Alcotest.(check bool) "limit reached" true (reason = Engine.Round_limit)

(* Minor words per round after 100 warm-up rounds. [Gc.minor_words]
   returns a boxed float and the box for call [k] is charged to the
   counter read by call [k+1], so the per-call overhead is measured
   first and subtracted. *)
let minor_words_per_round ?(rounds = 1000) step =
  for _ = 1 to 100 do
    step ()
  done;
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let call_overhead = w1 -. w0 in
  let a = Gc.minor_words () in
  for _ = 1 to rounds do
    step ()
  done;
  let b = Gc.minor_words () in
  (b -. a -. call_overhead) /. float_of_int rounds

(* The message plane's headline claim: once ring/inbox capacities hit
   their high-water mark, a round allocates zero minor words. The
   protocol body uses indexed inbox access (no closure, no iterator)
   and int messages, so any allocation the test sees comes from the
   engine itself. *)
let test_zero_alloc_steady_state () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let proto : (unit, int) Engine.protocol =
    {
      Engine.name = "ping-pong";
      max_msg_words = 1;
      msg_words = (fun _ -> 1);
      halted = (fun _ -> false);
      init = (fun api -> if api.Engine.id = 0 then api.Engine.send 0 0);
      on_round =
        (fun api _ inbox ->
          for i = 0 to Engine.Inbox.length inbox - 1 do
            api.Engine.send (Engine.Inbox.from inbox i)
              (Engine.Inbox.msg inbox i)
          done);
    }
  in
  let eng = Engine.create g proto in
  Alcotest.(check (float 0.0)) "minor words per steady round" 0.0
    (minor_words_per_round (fun () -> Engine.step eng))

(* A star whose every node sends every round: the hub gathers one slot
   per leaf into its inbox each round. [widest] records the hub's inbox
   length, proving several slots were gathered. *)
let test_zero_alloc_star () =
  let leaves = 16 in
  let g = Graph.of_edges ~n:(leaves + 1) (List.init leaves (fun i -> (0, i + 1, 1))) in
  let proto : (int ref, int) Engine.protocol =
    {
      Engine.name = "star";
      max_msg_words = 1;
      msg_words = (fun _ -> 1);
      halted = (fun _ -> false);
      init =
        (fun api ->
          api.Engine.broadcast api.Engine.id;
          ref 0);
      on_round =
        (fun api widest inbox ->
          let len = Engine.Inbox.length inbox in
          widest := len;
          if len > 0 then api.Engine.broadcast (Engine.Inbox.msg inbox (len - 1)));
    }
  in
  let eng = Engine.create g proto in
  Alcotest.(check (float 0.0)) "minor words per star round" 0.0
    (minor_words_per_round (fun () -> Engine.step eng));
  Alcotest.(check int) "hub gathers every leaf" leaves !(Engine.state eng 0)

(* The same pin with the metrics plane attached: an instrumented round
   is a handful of extra int-array stores, so steady-state rounds must
   still allocate exactly zero minor words. *)
let test_zero_alloc_instrumented_round () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let proto : (unit, int) Engine.protocol =
    {
      Engine.name = "ping-pong";
      max_msg_words = 1;
      msg_words = (fun _ -> 1);
      halted = (fun _ -> false);
      init = (fun api -> if api.Engine.id = 0 then api.Engine.send 0 0);
      on_round =
        (fun api _ inbox ->
          for i = 0 to Engine.Inbox.length inbox - 1 do
            api.Engine.send (Engine.Inbox.from inbox i)
              (Engine.Inbox.msg inbox i)
          done);
    }
  in
  let obs = Ds_obs.Obs.create () in
  let eng = Engine.create ~obs g proto in
  let rounds = 1000 in
  Alcotest.(check (float 0.0)) "minor words per instrumented round" 0.0
    (minor_words_per_round ~rounds (fun () -> Engine.step eng));
  Alcotest.(check bool) "counters advanced" true
    (Ds_obs.Obs.value obs Ds_obs.Obs.Name.engine_deliveries >= rounds)

(* And for the serving tier: the per-block instrumentation Serve.run
   executes — three counter adds, a gauge store, a histogram observe,
   plus the int_of_float narrowing of the clock delta the block
   already holds — must allocate zero minor words. (The whole of
   Serve.run cannot be pinned this way: its post-join latency sort
   boxes a data-dependent number of floats. The sampler's own
   minor-words series covers the full loop end to end; this test
   pins the instrumentation itself, with warm handles, exactly as the
   engine-round pin above does.) *)
let test_zero_alloc_instrumented_serve_block () =
  let obs = Ds_obs.Obs.create () in
  let module Obs = Ds_obs.Obs in
  let admitted = Obs.counter obs Obs.Name.serve_admitted in
  let served = Obs.counter obs Obs.Name.serve_served in
  let hits = Obs.counter obs Obs.Name.serve_hits in
  let misses = Obs.counter obs Obs.Name.serve_misses in
  let queue = Obs.gauge obs Obs.Name.serve_queue_depth in
  let block = Obs.histogram obs Obs.Name.serve_block_ns in
  let t_adm = 1234.5 and t_done = 987654.25 in
  let instrumented_block w i =
    Obs.add admitted ~shard:w 64;
    Obs.add served ~shard:w 64;
    Obs.add hits ~shard:w (i land 63);
    Obs.add misses ~shard:w (64 - (i land 63));
    Obs.set queue ~shard:w (100_000 - i);
    Obs.observe block ~shard:w (int_of_float (t_done -. t_adm))
  in
  for i = 1 to 100 do
    instrumented_block (i land 3) i
  done;
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let call_overhead = w1 -. w0 in
  let blocks = 10_000 in
  let a = Gc.minor_words () in
  for i = 1 to blocks do
    instrumented_block (i land 3) i
  done;
  let b = Gc.minor_words () in
  let per_block = (b -. a -. call_overhead) /. float_of_int blocks in
  Alcotest.(check (float 0.0)) "minor words per instrumented serve block" 0.0
    per_block;
  Alcotest.(check int) "served counted" ((100 + blocks) * 64)
    (Obs.counter_value served)

let suite =
  [
    Alcotest.test_case "fifo synchronous" `Quick test_fifo_synchronous;
    Alcotest.test_case "fifo under jitter" `Quick test_fifo_under_jitter;
    QCheck_alcotest.to_alcotest test_jitter_never_reorders_qcheck;
    Alcotest.test_case "round numbers visible" `Quick
      test_round_numbers_visible_to_nodes;
    Alcotest.test_case "quiescent empty protocol" `Quick
      test_quiescent_empty_protocol;
    Alcotest.test_case "round limit fires" `Quick test_round_limit;
    Alcotest.test_case "steady-state rounds allocate zero minor words" `Quick
      test_zero_alloc_steady_state;
    Alcotest.test_case "instrumented rounds allocate zero minor words" `Quick
      test_zero_alloc_instrumented_round;
    Alcotest.test_case "star rounds allocate zero minor words in steady state"
      `Quick test_zero_alloc_star;
    Alcotest.test_case "instrumented serve block allocates zero minor words"
      `Quick test_zero_alloc_instrumented_serve_block;
  ]
