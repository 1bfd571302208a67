module Graph = Ds_graph.Graph

type msg =
  | Cand of int  (* flood: smallest candidate leader ID seen *)
  | Cand_echo of int
  | Build  (* leader's tree wave *)
  | Build_claim  (* "you are my tree parent" *)
  | Build_echo  (* subtree below this edge is finished *)
  | Done  (* tree complete; halt *)

let msg_words = function
  | Cand _ | Cand_echo _ -> 2
  | Build | Build_claim | Build_echo | Done -> 1

(* One outstanding broadcast obligation: echo the flood of candidate
   [cand] back to [parent_idx] once all of our own copies are echoed. *)
type obligation = { parent_idx : int; mutable pending : int }

type state = {
  id : int;
  mutable best : int;
  obligations : (int, obligation) Hashtbl.t; (* candidate -> obligation *)
  mutable is_leader : bool;
  mutable tree_parent : int; (* neighbor index; -1 = root or unset *)
  mutable tree_seen : bool;
  mutable build_pending : int;
  child : bool array;
  mutable done_seen : bool;
}

let protocol () : (state, msg) Engine.protocol =
  let open Engine in
  let resolve api st cand ob =
    Hashtbl.remove st.obligations cand;
    if ob.parent_idx >= 0 then api.send ob.parent_idx (Cand_echo cand)
    else if cand = api.id && st.best = api.id then begin
      (* Our own flood quiesced without us ever seeing a smaller ID:
         we are the leader. Start the tree wave. *)
      st.is_leader <- true;
      st.tree_seen <- true;
      st.build_pending <- api.degree;
      api.broadcast Build;
      if st.build_pending = 0 then st.done_seen <- true
    end
  in
  let adopt api st cand i =
    st.best <- cand;
    let ob = { parent_idx = i; pending = api.degree } in
    Hashtbl.replace st.obligations cand ob;
    api.broadcast (Cand cand);
    if ob.pending = 0 then resolve api st cand ob
  in
  let finish_build api st =
    if st.tree_parent >= 0 then api.send st.tree_parent Build_echo
    else begin
      (* Root: the whole tree is built. Dismiss everyone. *)
      Array.iteri (fun i c -> if c then api.send i Done) st.child;
      st.done_seen <- true
    end
  in
  {
    name = "setup";
    max_msg_words = 2;
    msg_words;
    halted = (fun st -> st.done_seen);
    init =
      (fun api ->
        let st =
          {
            id = api.id;
            best = api.id;
            obligations = Hashtbl.create 4;
            is_leader = false;
            tree_parent = -1;
            tree_seen = false;
            build_pending = 0;
            child = Array.make api.degree false;
            done_seen = false;
          }
        in
        adopt api st api.id (-1);
        st);
    on_round =
      (fun api st inbox ->
        let process i m =
          match m with
          | Cand c -> if c < st.best then adopt api st c i else api.send i (Cand_echo c)
          | Cand_echo c -> begin
            match Hashtbl.find_opt st.obligations c with
            | None -> ()
            | Some ob ->
              ob.pending <- ob.pending - 1;
              if ob.pending = 0 then resolve api st c ob
          end
          | Build ->
            if st.tree_seen then api.send i Build_echo
            else begin
              st.tree_seen <- true;
              st.tree_parent <- i;
              api.send i Build_claim;
              st.build_pending <- api.degree;
              api.broadcast Build;
              if st.build_pending = 0 then finish_build api st
            end
          | Build_claim -> st.child.(i) <- true
          | Build_echo ->
            st.build_pending <- st.build_pending - 1;
            if st.build_pending = 0 then finish_build api st
          | Done ->
            Array.iteri (fun j c -> if c then api.send j Done) st.child;
            st.done_seen <- true
        in
        Engine.Inbox.iter process inbox);
  }

type result = {
  leader : int;
  parent : int array;
  children : int list array;
}

let run ?pool ?jitter ?tracer ?obs g =
  let r = Engine.execute ?pool ?jitter ?tracer ?obs g (protocol ()) in
  (match r.Engine.stop with
  | All_halted | Quiescent -> ()
  | Round_limit -> failwith "Setup: round limit hit");
  let states = r.Engine.states in
  let leader =
    match Array.find_opt (fun st -> st.is_leader) states with
    | Some st -> st.id
    | None -> failwith "Setup: no leader elected"
  in
  let parent =
    Array.mapi
      (fun u st ->
        if st.tree_parent < 0 then -1
        else fst (Graph.neighbor_at g u st.tree_parent))
      states
  in
  let children =
    Array.mapi
      (fun u st ->
        let acc = ref [] in
        Array.iteri
          (fun i c -> if c then acc := fst (Graph.neighbor_at g u i) :: !acc)
          st.child;
        !acc)
      states
  in
  let m = r.Engine.metrics in
  Metrics.mark_phase m "setup";
  ({ leader; parent; children }, m)
