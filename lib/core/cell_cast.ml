module Graph = Ds_graph.Graph
module Engine = Ds_congest.Engine
module Super_bf = Ds_congest.Super_bf

type msg = Chunk of int * int

type state = {
  children : int array; (* neighbor indices *)
  stream : (int * int) array; (* own payload (roots) or [||] *)
  mutable cursor : int; (* next chunk to originate (roots only) *)
  mutable received : (int * int) list; (* reversed chunks from parent *)
}

let protocol ~forest ~payload : (state, msg) Engine.protocol =
  let open Engine in
  let send_chunk api st (a, b) =
    Array.iter (fun c -> api.send c (Chunk (a, b))) st.children
  in
  let emit api st =
    if st.cursor < Array.length st.stream then begin
      send_chunk api st st.stream.(st.cursor);
      st.cursor <- st.cursor + 1
    end
  in
  {
    name = "cell-cast";
    max_msg_words = 2;
    msg_words = (fun (Chunk _) -> 2);
    halted = (fun st -> st.cursor >= Array.length st.stream);
    init =
      (fun api ->
        let u = api.id in
        let to_idx v =
          let rec find i = if api.neighbor_id i = v then i else find (i + 1) in
          find 0
        in
        let is_root = forest.Super_bf.parent.(u) < 0 in
        let st =
          {
            children =
              Array.of_list (List.map to_idx forest.Super_bf.children.(u));
            stream = (if is_root then payload u else [||]);
            cursor = 0;
            received = [];
          }
        in
        emit api st;
        st);
    on_round =
      (fun api st inbox ->
        (* Forward every chunk received from the cell parent. The
           parent sends at most one chunk per round, so each child link
           carries at most one forwarded chunk per round. *)
        Engine.Inbox.iter
          (fun _ (Chunk (a, b)) ->
            st.received <- (a, b) :: st.received;
            send_chunk api st (a, b))
          inbox;
        emit api st);
  }

let run ?pool g ~forest ~payload =
  let r = Engine.execute ?pool g (protocol ~forest ~payload) in
  (match r.Engine.stop with
  | Quiescent | All_halted -> ()
  | Round_limit -> failwith "Cell_cast: round limit hit");
  let received =
    Array.mapi
      (fun u st ->
        if forest.Super_bf.parent.(u) < 0 then payload u
        else Array.of_list (List.rev st.received))
      r.Engine.states
  in
  let m = r.Engine.metrics in
  Ds_congest.Metrics.mark_phase m "cell-cast";
  (received, m)
