module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Engine = Ds_congest.Engine
module Metrics = Ds_congest.Metrics
module Setup = Ds_congest.Setup

(* Data, Echo and Complete carry their phase. Under synchronous
   execution the tag is redundant (control-first processing suffices),
   but under bounded link asynchrony a phase-i announcement can
   overtake the START(i) wave along a fast non-tree path; the tag lets
   the receiver advance its phase by causal inference (see
   [handle_data]) instead of by timing. *)
type msg =
  | Data of int * int * int  (* phase, source, distance *)
  | Echo of int * int * int  (* copy of the announcement acknowledged *)
  | Complete of int  (* phase *)
  | Start of int
  | Finish

let msg_words = function
  | Data _ | Echo _ -> 3
  | Complete _ -> 2
  | Finish | Start _ -> 1

(* Per-source progress within the current phase. [recv_dist] is the
   advertised distance in the announcement that produced [dist]; a
   supersession echo must return that exact copy to [parent_idx]. *)
type entry = {
  mutable dist : int;
  mutable recv_dist : int;
  mutable parent_idx : int; (* -1 when we are the source *)
  mutable queued : bool;
}

(* An outstanding broadcast: once [pending] echoes (one per neighbor)
   arrive, the original announcement is echoed back to [parent_idx]
   ([-1] = we are the source, so resolution completes our flood). *)
type obligation = { ob_parent : int; ob_recv : int; mutable ob_pending : int }

type state = {
  id : int;
  k : int;
  my_level : int;
  tree_parent : int; (* neighbor index; -1 at the root *)
  tree_children : int array; (* neighbor indices *)
  mutable phase : int; (* k-1 .. 0; -1 once finished *)
  mutable bound : int * int;
  cur : (int, entry) Hashtbl.t;
  pending : int Queue.t;
  obligations : (int * int, obligation) Hashtbl.t; (* (src, dist sent) *)
  mutable flood_open : bool; (* we are a source and our flood is live *)
  mutable children_complete : int;
  mutable complete_sent : bool;
  mutable halted : bool;
  (* accumulated output *)
  pivot : (int * int) array; (* pivot.(i) valid once phase i closed *)
  bunch : (int, int * int) Hashtbl.t; (* node -> (dist, level) *)
}

let is_complete st = not st.flood_open

(* Close the books on the phase that just ended: fold the accepted
   announcements into the bunch, lower the pivot, reset phase state. *)
let close_phase st =
  let i = st.phase in
  let best = ref st.bound in
  Hashtbl.iter
    (fun src e ->
      Hashtbl.replace st.bunch src (e.dist, i);
      if Dist.lex_lt (e.dist, src) !best then best := (e.dist, src))
    st.cur;
  st.pivot.(i) <- !best;
  assert (Queue.is_empty st.pending);
  assert (Hashtbl.length st.obligations = 0);
  Hashtbl.reset st.cur;
  st.bound <- !best

let open_phase api st i =
  st.phase <- i;
  st.children_complete <- 0;
  st.complete_sent <- false;
  st.flood_open <- st.my_level = i;
  if st.flood_open then begin
    let e = { dist = 0; recv_dist = 0; parent_idx = -1; queued = true } in
    Hashtbl.replace st.cur st.id e;
    Queue.push st.id st.pending;
    (* Degenerate single-node graphs have no one to flood to. *)
    if api.Engine.degree = 0 then st.flood_open <- false
  end

let send_complete_if_ready api st =
  if
    st.phase >= 0 && (not st.complete_sent) && is_complete st
    && st.children_complete = Array.length st.tree_children
  then begin
    st.complete_sent <- true;
    if st.tree_parent >= 0 then
      api.Engine.send st.tree_parent (Complete st.phase)
  end

(* The root detects phase completion locally instead of sending itself
   a COMPLETE message. *)
let root_phase_done st =
  st.tree_parent < 0 && st.complete_sent

let start_next_phase api st =
  close_phase st;
  let next = st.phase - 1 in
  if next >= 0 then begin
    Array.iter (fun c -> api.Engine.send c (Start next)) st.tree_children;
    open_phase api st next
  end
  else begin
    Array.iter (fun c -> api.Engine.send c Finish) st.tree_children;
    st.phase <- -1;
    st.halted <- true
  end

let resolve_obligation api st key ob =
  Hashtbl.remove st.obligations key;
  let src, _sent = key in
  if ob.ob_parent >= 0 then
    api.Engine.send ob.ob_parent (Echo (st.phase, src, ob.ob_recv))
  else begin
    (* Our own flood has fully quiesced. *)
    st.flood_open <- false;
    send_complete_if_ready api st
  end

(* A phase-p announcement while we are still in phase p+1 proves that
   phase p+1 has globally completed (sources of phase p flood only
   after the leader collected every COMPLETE of phase p+1, and by then
   all our phase-p+1 bookkeeping has been delivered and processed), so
   we may close it and enter phase p before our START(p) arrives. *)
let advance_to api st p =
  assert (p = st.phase - 1);
  close_phase st;
  open_phase api st p

let handle_data api st j (p, src, adv) =
  if p = st.phase - 1 then advance_to api st p;
  assert (p = st.phase);
  let nd = adv + api.Engine.neighbor_weight j in
  let reject () = api.Engine.send j (Echo (p, src, adv)) in
  if not (Dist.lex_lt (nd, src) st.bound) then reject ()
  else begin
    match Hashtbl.find_opt st.cur src with
    | Some e when nd >= e.dist -> reject ()
    | Some e ->
      (* Improvement. If the previous value was still waiting to be
         sent it is superseded: acknowledge its announcement now. *)
      if e.queued then
        api.Engine.send e.parent_idx (Echo (p, src, e.recv_dist))
      else begin
        Queue.push src st.pending;
        e.queued <- true
      end;
      e.dist <- nd;
      e.recv_dist <- adv;
      e.parent_idx <- j
    | None ->
      let e = { dist = nd; recv_dist = adv; parent_idx = j; queued = true } in
      Hashtbl.replace st.cur src e;
      Queue.push src st.pending
  end

let handle_echo api st (p, src, sent) =
  assert (p = st.phase);
  match Hashtbl.find_opt st.obligations (src, sent) with
  | None -> ()
  | Some ob ->
    ob.ob_pending <- ob.ob_pending - 1;
    if ob.ob_pending = 0 then resolve_obligation api st (src, sent) ob

let pop_and_broadcast api st =
  match Queue.take_opt st.pending with
  | None -> ()
  | Some src ->
    let e = Hashtbl.find st.cur src in
    e.queued <- false;
    api.Engine.broadcast (Data (st.phase, src, e.dist));
    let ob =
      { ob_parent = e.parent_idx; ob_recv = e.recv_dist;
        ob_pending = api.Engine.degree }
    in
    Hashtbl.replace st.obligations (src, e.dist) ob

let protocol ~levels ~tree : (state, msg) Engine.protocol =
  let open Engine in
  let k = Levels.k levels in
  {
    name = "tz-echo";
    max_msg_words = 3;
    msg_words;
    halted = (fun st -> st.halted);
    init =
      (fun api ->
        let u = api.id in
        let parent_id = tree.Setup.parent.(u) in
        let to_idx v =
          let rec find i = if api.neighbor_id i = v then i else find (i + 1) in
          find 0
        in
        let st =
          {
            id = u;
            k;
            my_level = Levels.level levels u;
            tree_parent = (if parent_id < 0 then -1 else to_idx parent_id);
            tree_children =
              Array.of_list (List.map to_idx tree.Setup.children.(u));
            phase = k; (* no phase open yet *)
            bound = Dist.none;
            cur = Hashtbl.create 16;
            pending = Queue.create ();
            obligations = Hashtbl.create 16;
            flood_open = false;
            children_complete = 0;
            complete_sent = false;
            halted = false;
            pivot = Array.make (k + 1) Dist.none;
            bunch = Hashtbl.create 16;
          }
        in
        (* The leader opens phase k-1 for everyone. *)
        if st.tree_parent < 0 then begin
          Array.iter (fun c -> api.send c (Start (k - 1))) st.tree_children;
          open_phase api st (k - 1);
          send_complete_if_ready api st;
          if root_phase_done st then start_next_phase api st
        end;
        st);
    on_round =
      (fun api st inbox ->
        (* A phase-i announcement can share a round with START(i) (the
           BFS tree gives depth(v) <= depth(src) + hops exactly), so
           phase control is processed first: the new bound must be in
           place before any new-phase data is judged. *)
        let control _ m =
          match m with
          | Start i ->
            Array.iter (fun c -> api.send c (Start i)) st.tree_children;
            (* Phases count down, so i < st.phase means news; a START
               arriving at or behind our phase was preempted by causal
               inference and is only forwarded. *)
            if i < st.phase then begin
              if st.phase >= 0 && st.phase < st.k then close_phase st;
              open_phase api st i
            end
          | Finish ->
            Array.iter (fun c -> api.send c Finish) st.tree_children;
            close_phase st;
            st.phase <- -1;
            st.halted <- true
          | Data _ | Echo _ | Complete _ -> ()
        in
        let process j m =
          match m with
          | Start _ | Finish -> ()
          | Data (p, src, adv) -> handle_data api st j (p, src, adv)
          | Echo (p, src, sent) -> handle_echo api st (p, src, sent)
          | Complete p ->
            (* A child that advanced by causal inference can complete
               phase p before our START(p) arrives; its COMPLETE is
               then itself the causal proof that lets us advance. *)
            if p = st.phase - 1 then advance_to api st p;
            assert (p = st.phase);
            st.children_complete <- st.children_complete + 1
        in
        Engine.Inbox.iter control inbox;
        Engine.Inbox.iter process inbox;
        if st.phase >= 0 && st.phase < st.k then begin
          pop_and_broadcast api st;
          send_complete_if_ready api st;
          if root_phase_done st then start_next_phase api st
        end);
  }

type result = {
  labels : Label.t array;
  metrics : Metrics.t;
  setup_metrics : Metrics.t;
  leader : int;
}

let build ?pool ?jitter ?tracer ?obs g ~levels =
  let n = Graph.n g in
  let k = Levels.k levels in
  let tree, setup_metrics = Setup.run ?pool ?jitter ?tracer ?obs g in
  let r =
    Engine.execute ?pool ?jitter ?tracer ?obs g (protocol ~levels ~tree)
  in
  (match r.Engine.stop with
  | All_halted | Quiescent -> ()
  | Round_limit -> failwith "Tz_echo: round limit hit");
  let m = r.Engine.metrics in
  Metrics.mark_phase m "tz-echo";
  let labels =
    Array.init n (fun u ->
        let st = r.Engine.states.(u) in
        let l = Label.create ~owner:u ~k in
        for i = 0 to k - 1 do
          let d, p = st.pivot.(i) in
          if Dist.is_finite d then Label.set_pivot l ~level:i ~dist:d ~node:p
        done;
        Hashtbl.iter
          (fun src (dist, lvl) -> Label.add_bunch l ~node:src ~dist ~level:lvl)
          st.bunch;
        l)
  in
  let setup_m = setup_metrics in
  {
    labels;
    metrics = Metrics.add setup_m m;
    setup_metrics = setup_m;
    leader = tree.Setup.leader;
  }
