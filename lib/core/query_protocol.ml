module Graph = Ds_graph.Graph
module Engine = Ds_congest.Engine
module Metrics = Ds_congest.Metrics
module Setup = Ds_congest.Setup

type msg =
  | Req
  | Chunk of bool  (* true on the final chunk of the label stream *)

let msg_words = function Req -> 2 (* requester, target ids *) | Chunk _ -> 2

type state = {
  tree_neighbors : int array; (* neighbor indices of tree edges *)
  mutable req_parent : int; (* neighbor index toward the requester *)
  mutable to_stream : int; (* chunks left to emit (target only) *)
  mutable received_last : bool; (* requester: stream finished *)
}

let protocol ~tree ~label_chunks ~u ~v : (state, msg) Engine.protocol =
  let open Engine in
  let forward_req api st from =
    Array.iter (fun i -> if i <> from then api.send i Req) st.tree_neighbors
  in
  let stream_one api st last =
    api.send st.req_parent (Chunk last)
  in
  {
    name = "sketch-exchange";
    max_msg_words = 2;
    msg_words;
    halted = (fun st -> st.to_stream = 0);
    init =
      (fun api ->
        let me = api.id in
        let tn =
          let parent = tree.Setup.parent.(me) in
          let ids =
            (if parent < 0 then [] else [ parent ]) @ tree.Setup.children.(me)
          in
          let to_idx w =
            let rec find i = if api.neighbor_id i = w then i else find (i + 1) in
            find 0
          in
          Array.of_list (List.map to_idx ids)
        in
        let st =
          {
            tree_neighbors = tn;
            req_parent = -1;
            to_stream = 0;
            received_last = false;
          }
        in
        if me = u then begin
          if u = v then st.received_last <- true
          else forward_req api st (-1)
        end;
        st);
    on_round =
      (fun api st inbox ->
        let me = api.id in
        let process i m =
          match m with
          | Req ->
            if st.req_parent < 0 && me <> u then begin
              st.req_parent <- i;
              if me = v then st.to_stream <- max 1 label_chunks
              else forward_req api st i
            end
          | Chunk last ->
            if me = u then begin
              if last then st.received_last <- true
            end
            else if st.req_parent >= 0 then
              (* Relay the stream toward the requester. *)
              api.send st.req_parent (Chunk last)
        in
        Engine.Inbox.iter process inbox;
        if me = v && st.to_stream > 0 then begin
          st.to_stream <- st.to_stream - 1;
          stream_one api st (st.to_stream = 0)
        end);
  }

type result = {
  estimate : int;
  rounds : int;
  messages : int;
  metrics : Metrics.t;
}

let query ?pool g ~tree ~labels ~u ~v =
  let chunks = (Label.size_words labels.(v) + 1) / 2 in
  let r =
    Engine.execute ?pool g (protocol ~tree ~label_chunks:chunks ~u ~v)
  in
  (match r.Engine.stop with
  | Engine.Quiescent | Engine.All_halted -> ()
  | Engine.Round_limit -> failwith "Query_protocol: round limit hit");
  if not r.Engine.states.(u).received_last then
    failwith "Query_protocol: stream never arrived";
  let m = r.Engine.metrics in
  {
    estimate = (if u = v then 0 else Label.query labels.(u) labels.(v));
    rounds = Metrics.rounds m;
    messages = Metrics.messages m;
    metrics = m;
  }
