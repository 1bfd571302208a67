module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Dijkstra = Ds_graph.Dijkstra
module Engine = Ds_congest.Engine
module Metrics = Ds_congest.Metrics
module Wire = Ds_congest.Wire
module Rng = Ds_util.Rng

let rank ~seed v = Rng.mix (Rng.mix seed lxor v)

(* Per-node state: an open-addressed map from source id to (dist,
   cached rank, queued), in parallel int arrays with linear probing,
   plus an int-ring rebroadcast FIFO — the same machinery as
   [Multi_bf.state] and for the same reason (the admission test runs
   once per delivered message; [Hashtbl] would allocate on that
   path). Entries are never deleted. *)
type state = {
  k : int;
  seed : int;
  mutable keys : int array; (* source id, -1 = empty slot *)
  mutable dist : int array;
  mutable rnk : int array; (* rank of [keys], cached *)
  mutable queued : int array; (* 1 iff the source sits in the FIFO *)
  mutable mask : int; (* capacity - 1 *)
  mutable count : int;
  mutable pend : int array; (* ring of source ids, power-of-two cap *)
  mutable pend_head : int;
  mutable pend_len : int;
  mutable max_pending : int;
}

(* Fibonacci-style mixing, as in [Multi_bf.probe]: source ids are the
   full 0..n-1 range and degenerate under [id land mask]. *)
let rec probe keys mask key i =
  let k = keys.(i) in
  if k = key || k < 0 then i else probe keys mask key ((i + 1) land mask)

let slot st key =
  probe st.keys st.mask key (((key * 0x9E3779B1) lsr 8) land st.mask)

let grow_tbl st =
  let old_keys = st.keys
  and old_dist = st.dist
  and old_rnk = st.rnk
  and old_queued = st.queued in
  let cap = 2 * Array.length old_keys in
  st.keys <- Array.make cap (-1);
  st.dist <- Array.make cap 0;
  st.rnk <- Array.make cap 0;
  st.queued <- Array.make cap 0;
  st.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = slot st k in
        st.keys.(j) <- k;
        st.dist.(j) <- old_dist.(i);
        st.rnk.(j) <- old_rnk.(i);
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

(* Admission: fewer than [k] known sources dominate the candidate,
   where [j] dominates iff [dist.(j) <= nd] and [(rnk.(j), keys.(j))]
   is lex-below [(r, src)]. A linear scan over the table — it holds
   O(k log n) entries in expectation, and the scan stops at [k]. The
   count is over set contents only (order-independent), which is what
   keeps the protocol byte-deterministic across pool sizes. *)
let admits st src r nd =
  let c = ref 0 in
  let cap = Array.length st.keys in
  let j = ref 0 in
  while !c < st.k && !j < cap do
    let key = st.keys.(!j) in
    if
      key >= 0
      && st.dist.(!j) <= nd
      && (st.rnk.(!j) < r || (st.rnk.(!j) = r && key < src))
    then incr c;
    incr j
  done;
  !c < st.k

(* Cold path: first admitted announcement from [src]. Growing
   rehashes, so the slot must be recomputed afterwards. *)
let insert st src r nd =
  if 2 * (st.count + 1) > Array.length st.keys then grow_tbl st;
  st.count <- st.count + 1;
  let j = slot st src in
  st.keys.(j) <- src;
  st.dist.(j) <- nd;
  st.rnk.(j) <- r;
  st.queued.(j) <- 0;
  enqueue st src j

(* Once per delivered message. An already-known source is always
   improved in place (never re-tested — permissive acceptance is what
   guarantees exact distances along shortest paths; see the .mli);
   an unknown one must pass [admits]. Nothing is ever evicted. *)
let accept st src nd =
  let j = slot st src in
  if st.keys.(j) >= 0 then begin
    if nd < st.dist.(j) then begin
      st.dist.(j) <- nd;
      enqueue st src j
    end
  end
  else begin
    let r = rank ~seed:st.seed src in
    if admits st src r nd then insert st src r nd
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

let protocol ~n ~k ~seed : (state, int) Engine.protocol =
  let open Engine in
  let sp = Wire.split n in
  {
    name = "bottomk";
    max_msg_words = 2;
    msg_words = (fun _ -> 2);
    halted = (fun st -> st.pend_len = 0);
    init =
      (fun api ->
        let st =
          {
            k;
            seed;
            keys = Array.make 16 (-1);
            dist = Array.make 16 0;
            rnk = Array.make 16 0;
            queued = Array.make 16 0;
            mask = 15;
            count = 0;
            pend = Array.make 8 0;
            pend_head = 0;
            pend_len = 0;
            max_pending = 0;
          }
        in
        (* Every node is a source: it is trivially in its own bottom-k
           set (distance 0, empty table), so announce unconditionally. *)
        insert st api.id (rank ~seed api.id) 0;
        st);
    on_round =
      (fun api st inbox ->
        for i = 0 to Engine.Inbox.length inbox - 1 do
          let w = Engine.Inbox.msg inbox i in
          let from = Engine.Inbox.from inbox i in
          accept st (Wire.src sp w) (Wire.dist sp w + api.neighbor_weight from)
        done;
        pop_and_broadcast api sp st);
  }

(* Greedy bottom-k filter over candidates sorted ascending by
   (rank, id): admit iff fewer than [k] already-admitted entries sit
   at distance <= the candidate's. Shared by the distributed
   extraction and the sequential [reference], so "equal sketches"
   really compares the two distance computations. *)
let select ~k sorted =
  let acc = ref [] and accd = ref [] in
  Array.iter
    (fun (_, key, d) ->
      let c =
        List.fold_left (fun c d' -> if d' <= d then c + 1 else c) 0 !accd
      in
      if c < k then begin
        acc := (key, d) :: !acc;
        accd := d :: !accd
      end)
    sorted;
  let out = Array.of_list !acc in
  Array.sort compare out;
  out

(* A node's final sketch: rank-order the surviving table and filter.
   The k lex-lowest-ranked nodes of any ball around [u] are themselves
   true ADS members and end the protocol present with exact distances,
   so entries admitted early on stale (longer) distances are exactly
   the ones the filter demotes — the result matches [reference]. *)
let sketch_entries st =
  let es = ref [] in
  Array.iteri
    (fun j key -> if key >= 0 then es := (st.rnk.(j), key, st.dist.(j)) :: !es)
    st.keys;
  let arr = Array.of_list !es in
  Array.sort compare arr;
  select ~k:st.k arr

type result = {
  sketch : Sketch.t;
  metrics : Metrics.t;
  mem_words : int;
  max_pending : int;
}

let run ?pool ?tracer ?obs g ~k ~seed =
  if k < 1 then invalid_arg "Bottomk.run: k < 1";
  let r =
    Engine.execute ?pool ?tracer ?obs g (protocol ~n:(Graph.n g) ~k ~seed)
  in
  (match r.Engine.stop with
  | Quiescent | All_halted -> ()
  | Round_limit -> failwith "Bottomk: round limit hit");
  let m = r.Engine.metrics in
  Metrics.mark_phase m "bottomk";
  let max_pending =
    Array.fold_left
      (fun acc (st : state) -> max acc st.max_pending)
      0 r.Engine.states
  in
  let entries = Array.map sketch_entries r.Engine.states in
  let sketch = Sketch.v ~family:Family.Bottomk ~k entries in
  { sketch; metrics = m; mem_words = r.Engine.mem_words; max_pending }

let reference g ~k ~seed =
  if k < 1 then invalid_arg "Bottomk.reference: k < 1";
  let n = Graph.n g in
  Array.init n (fun u ->
      let dist = Dijkstra.sssp g ~src:u in
      let es = ref [] in
      for v = n - 1 downto 0 do
        if Dist.is_finite dist.(v) then
          es := (rank ~seed v, v, dist.(v)) :: !es
      done;
      let arr = Array.of_list !es in
      Array.sort compare arr;
      select ~k arr)
