module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist

(* One immediate word. The low two bits are the tag — 0 Update,
   1 Claim, 2 Unclaim — and an Update carries a [Wire]-packed
   (src, dist) word above them. *)
type msg = int

let split n = Wire.split ~tag_bits:2 n
let update sp ~src ~dist = Wire.pack sp ~src ~dist lsl 2
let claim = 1
let unclaim = 2

let tag m = m land 3
let update_src sp m = Wire.src sp (m lsr 2)
let update_dist sp m = Wire.dist sp (m lsr 2)

type state = {
  mutable best_dist : int;
  mutable best_src : int;
  mutable parent_idx : int; (* neighbor index; -1 = none/source *)
  mutable dirty : bool;
  child : bool array; (* per neighbor index *)
}

let msg_words m = if tag m = 0 then 2 else 1

let protocol ~n ~is_source : (state, msg) Engine.protocol =
  let open Engine in
  let sp = split n in
  {
    name = "super-bf";
    max_msg_words = 2;
    msg_words;
    halted = (fun st -> not st.dirty);
    init =
      (fun api ->
        let source = is_source api.id in
        let st =
          {
            best_dist = (if source then 0 else Dist.infinity);
            best_src = (if source then api.id else max_int);
            parent_idx = -1;
            dirty = false;
            child = Array.make api.degree false;
          }
        in
        if source then api.broadcast (update sp ~src:api.id ~dist:0);
        st);
    on_round =
      (fun api st inbox ->
        (* Indexed loop: [Inbox.iter] would allocate a closure per
           node-round. *)
        for i = 0 to Engine.Inbox.length inbox - 1 do
          let m = Engine.Inbox.msg inbox i in
          let from = Engine.Inbox.from inbox i in
          match tag m with
          | 1 -> st.child.(from) <- true
          | 2 -> st.child.(from) <- false
          | _ ->
            let src = update_src sp m in
            let nd = update_dist sp m + api.neighbor_weight from in
            if nd < st.best_dist || (nd = st.best_dist && src < st.best_src)
            then begin
              if st.parent_idx >= 0 && st.parent_idx <> from then
                api.send st.parent_idx unclaim;
              if st.parent_idx <> from then api.send from claim;
              st.best_dist <- nd;
              st.best_src <- src;
              st.parent_idx <- from;
              st.dirty <- true
            end
        done;
        if st.dirty then begin
          st.dirty <- false;
          api.broadcast (update sp ~src:st.best_src ~dist:st.best_dist)
        end);
  }

type result = {
  dist : int array;
  nearest : int array;
  parent : int array;
  children : int list array;
}

let run ?pool ?jitter ?tracer ?obs g ~sources =
  let n = Graph.n g in
  let src_set = Array.make n false in
  List.iter (fun s -> src_set.(s) <- true) sources;
  let r =
    Engine.execute ?pool ?jitter ?tracer ?obs g
      (protocol ~n ~is_source:(fun u -> src_set.(u)))
  in
  (match r.Engine.stop with
  | Quiescent | All_halted -> ()
  | Round_limit -> failwith "Super_bf: round limit hit");
  let states = r.Engine.states in
  let dist = Array.map (fun st -> st.best_dist) states in
  let nearest =
    Array.map (fun st -> if st.best_src = max_int then -1 else st.best_src) states
  in
  let parent =
    Array.mapi
      (fun u st ->
        if st.parent_idx < 0 then -1 else fst (Graph.neighbor_at g u st.parent_idx))
      states
  in
  let children =
    Array.mapi
      (fun u st ->
        let acc = ref [] in
        Array.iteri
          (fun i is_child ->
            if is_child then acc := fst (Graph.neighbor_at g u i) :: !acc)
          st.child;
        !acc)
      states
  in
  let m = r.Engine.metrics in
  Metrics.mark_phase m "super-bf";
  ({ dist; nearest; parent; children }, m)

let single_source ?pool g ~src =
  let r, m = run ?pool g ~sources:[ src ] in
  (r.dist, m)
