module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist

(* Per-node state. The source table is an open-addressed hash map from
   source id to (dist, parent, queued), stored as parallel int arrays
   with linear probing — [accept] runs once per delivered message, and
   the stdlib [Hashtbl] spent most of that budget in the out-of-line
   hash primitive plus a bucket-cell allocation per insert. Capacity
   is a power of two kept at most half full; keys are never deleted.
   The pending FIFO is an int ring for the same reason ([Queue] cells
   are one allocation per push). *)
type state = {
  (* [bound] split into its components so the per-message comparison
     needs no pair construction. *)
  bound_d : int;
  bound_i : int;
  mutable keys : int array; (* source id, -1 = empty slot *)
  mutable dist : int array;
  mutable parent : int array; (* neighbor that delivered [dist]; -1 at source *)
  mutable queued : int array; (* 1 iff the source sits in the FIFO *)
  mutable mask : int; (* capacity - 1 *)
  mutable count : int;
  mutable pend : int array; (* ring of source ids, power-of-two cap *)
  mutable pend_head : int;
  mutable pend_len : int;
  mutable max_pending : int;
}

(* (nd, src) <lex (bound_d, bound_i), without building the pairs. *)
let below_bound st nd src =
  nd < st.bound_d || (nd = st.bound_d && src < st.bound_i)

(* Fibonacci-style mixing: source ids are often arithmetic sequences
   (samples of 0..n-1), which degenerate under [id land mask]. *)
let rec probe keys mask key i =
  let k = keys.(i) in
  if k = key || k < 0 then i else probe keys mask key ((i + 1) land mask)

let slot st key =
  probe st.keys st.mask key (((key * 0x9E3779B1) lsr 8) land st.mask)

let grow_tbl st =
  let old_keys = st.keys
  and old_dist = st.dist
  and old_parent = st.parent
  and old_queued = st.queued in
  let cap = 2 * Array.length old_keys in
  st.keys <- Array.make cap (-1);
  st.dist <- Array.make cap 0;
  st.parent <- Array.make cap 0;
  st.queued <- Array.make cap 0;
  st.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = slot st k in
        st.keys.(j) <- k;
        st.dist.(j) <- old_dist.(i);
        st.parent.(j) <- old_parent.(i);
        st.queued.(j) <- old_queued.(i)
      end)
    old_keys

let grow_pend st =
  let old = st.pend in
  let cap = Array.length old in
  let next = Array.make (2 * cap) 0 in
  for i = 0 to st.pend_len - 1 do
    next.(i) <- old.((st.pend_head + i) land (cap - 1))
  done;
  st.pend <- next;
  st.pend_head <- 0

let enqueue st src j =
  if st.queued.(j) = 0 then begin
    st.queued.(j) <- 1;
    if st.pend_len = Array.length st.pend then grow_pend st;
    st.pend.((st.pend_head + st.pend_len) land (Array.length st.pend - 1))
    <- src;
    st.pend_len <- st.pend_len + 1;
    if st.pend_len > st.max_pending then st.max_pending <- st.pend_len
  end

(* Cold path: first announcement from [src]. Growing rehashes, so the
   slot must be recomputed afterwards. *)
let insert st src nd from =
  if 2 * (st.count + 1) > Array.length st.keys then grow_tbl st;
  st.count <- st.count + 1;
  let j = slot st src in
  st.keys.(j) <- src;
  st.dist.(j) <- nd;
  st.parent.(j) <- from;
  st.queued.(j) <- 0;
  enqueue st src j

(* Runs once per delivered message — the protocol side of the engine's
   allocation budget. Steady state touches only int arrays. *)
let accept st src nd from =
  if below_bound st nd src then begin
    let j = slot st src in
    if st.keys.(j) >= 0 then begin
      if nd < st.dist.(j) then begin
        st.dist.(j) <- nd;
        st.parent.(j) <- from;
        enqueue st src j
      end
    end
    else insert st src nd from
  end

let pop_and_broadcast api sp st =
  if st.pend_len > 0 then begin
    let src = st.pend.(st.pend_head) in
    st.pend_head <- (st.pend_head + 1) land (Array.length st.pend - 1);
    st.pend_len <- st.pend_len - 1;
    let j = slot st src in
    st.queued.(j) <- 0;
    api.Engine.broadcast (Wire.pack sp ~src ~dist:st.dist.(j))
  end

let protocol ~n ~is_source ~bound : (state, int) Engine.protocol =
  let open Engine in
  let sp = Wire.split n in
  {
    name = "multi-bf";
    max_msg_words = 2;
    msg_words = (fun _ -> 2);
    halted = (fun st -> st.pend_len = 0);
    init =
      (fun api ->
        let bound_d, bound_i = bound api.id in
        let st =
          {
            bound_d;
            bound_i;
            keys = Array.make 16 (-1);
            dist = Array.make 16 0;
            parent = Array.make 16 0;
            queued = Array.make 16 0;
            mask = 15;
            count = 0;
            pend = Array.make 8 0;
            pend_head = 0;
            pend_len = 0;
            max_pending = 0;
          }
        in
        (* A source records and announces itself only if its own (0, id)
           passes its bound — the Thorup–Zwick condition for belonging
           to its own bunch, which always holds for phase-i sources. *)
        if is_source api.id && below_bound st 0 api.id then
          insert st api.id 0 (-1);
        st);
    on_round =
      (fun api st inbox ->
        (* Indexed loop: [Inbox.iter] would allocate its callback
           closure on every node-round. *)
        for i = 0 to Engine.Inbox.length inbox - 1 do
          let w = Engine.Inbox.msg inbox i in
          let from = Engine.Inbox.from inbox i in
          accept st (Wire.src sp w) (Wire.dist sp w + api.neighbor_weight from)
            from
        done;
        pop_and_broadcast api sp st);
  }

let found st =
  let acc = ref [] in
  for j = Array.length st.keys - 1 downto 0 do
    if st.keys.(j) >= 0 then acc := (st.keys.(j), st.dist.(j)) :: !acc
  done;
  !acc

let found_with_parents st =
  let acc = ref [] in
  for j = Array.length st.keys - 1 downto 0 do
    if st.keys.(j) >= 0 then
      acc := (st.keys.(j), st.dist.(j), st.parent.(j)) :: !acc
  done;
  !acc

let max_pending st = st.max_pending

let codec = Wire.codec

let run ?backend ?pool ?shards ?tracer ?obs g ~sources ~bound =
  let n = Graph.n g in
  let src_set = Array.make n false in
  List.iter (fun s -> src_set.(s) <- true) sources;
  let r =
    Plane.run ?backend ?pool ?shards ?tracer ?obs ~codec g
      (protocol ~n ~is_source:(fun u -> src_set.(u)) ~bound)
  in
  (match r.Plane.stop with
  | Quiescent | All_halted -> ()
  | Round_limit -> failwith "Multi_bf: round limit hit");
  let m = r.Plane.metrics in
  Metrics.mark_phase m "multi-bf";
  (Array.map found r.Plane.states, m)
