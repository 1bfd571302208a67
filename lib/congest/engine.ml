module Graph = Ds_graph.Graph
module Pool = Ds_parallel.Pool
module Rng = Ds_util.Rng
module Ivec = Ds_util.Ivec

(* The node-facing types are owned by [Superstep] — the contract both
   this backend and [Shard_engine] implement — and re-exported here
   with equations so existing [Engine.foo] references keep working. *)
type 'msg api = 'msg Superstep.api = {
  id : int;
  degree : int;
  neighbor_id : int -> int;
  neighbor_weight : int -> int;
  send : int -> 'msg -> unit;
  broadcast : 'msg -> unit;
  round : unit -> int;
}

module Inbox = Superstep.Inbox

type ('state, 'msg) protocol = ('state, 'msg) Superstep.protocol = {
  name : string;
  init : 'msg api -> 'state;
  on_round : 'msg api -> 'state -> 'msg Inbox.t -> unit;
  halted : 'state -> bool;
  msg_words : 'msg -> int;
  max_msg_words : int;
}

type stop_reason = Superstep.stop_reason =
  | Quiescent
  | All_halted
  | Round_limit

type jitter = { rng : Rng.t; max_delay : int }

(* Links are flattened: directed link [offsets.(u) + i] is u's i-th
   outgoing edge. Each link's FIFO is a growable ring: a power-of-two
   [q_msg.(l)] array with head/len cursors in flat int arrays. Without
   jitter every message is deliverable exactly one round after the
   push, and FIFO order means the head of a nonempty ring is always
   the oldest message, so no per-message ready round is stored at all;
   with jitter a parallel [q_ready.(l)] ring carries it. Either way a
   steady-state send writes an array slot and bumps two ints — zero
   minor words, where the previous plane allocated a queue cell and a
   boxed record per message.

   Delivery is sharded by destination node: node [u] belongs to chunk
   [u / chunk_div], and [active.(c)] holds exactly the nonempty links
   whose destination lies in chunk [c]. All of a node's incoming links
   live in one bucket, so each node's delivery slots have a single
   writer and the phase is race-free under any pool. A delivered
   message lands in its link's slot (see [Slots]); compute gathers a
   node's slots, already in canonical order, into its chunk's one
   reusable inbox. Per-chunk scratch ([d_*], [recv_new]) is reduced
   sequentially in chunk order, so metrics and traces are
   bit-identical for every pool size. Nothing observable depends on
   the order of the run list — each node's inbox comes from its own
   slots, and every per-round figure is a sum or a maximum over
   nodes — so sorting it (see [deliver]) is only for speed. *)
type ('state, 'msg) t = {
  graph : Graph.t;
  protocol : ('state, 'msg) protocol;
  pool : Pool.t;
  jitter : jitter option;
  jitter_base : int;
  mutable apis : 'msg api array;
  mutable node_states : 'state array;
  offsets : int array; (* length n+1; prefix sums of out-degrees *)
  q_msg : 'msg array array; (* per link: ring of queued payloads *)
  q_ready : int array array; (* per link: ready rounds; jitter only *)
  q_head : int array; (* per link: ring read position *)
  q_len : int array; (* per link: queued message count *)
  link_dst : int array; (* destination node of each link *)
  link_slot : int array; (* delivery slot: the reverse link's id *)
  link_chunk : int array; (* delivery chunk of each link's destination *)
  link_pushes : int array; (* messages ever pushed; jitter only *)
  slots : 'msg Slots.t;
  inbox : 'msg Inbox.t array; (* per chunk: reused by every node it runs *)
  (* Delivery sharding. [nchunks] equals the pool width; chunk [c]
     owns nodes [c * chunk_div, (c+1) * chunk_div). The [d_*] arrays
     are per-chunk counters written only by the chunk's owner during
     delivery; [recv_new.(c)] collects the chunk's nodes that received
     their first message this round. *)
  nchunks : int;
  chunk_div : int;
  active : Ivec.t array; (* per chunk: links with nonempty rings *)
  recv_new : Ivec.t array; (* per chunk: this round's receivers *)
  d_delivered : int array;
  d_words : int array;
  d_maxw : int array;
  activated : Ivec.t array; (* per node: own links that went 0 -> 1 *)
  enqueued : int array; (* per node: messages pushed this round *)
  push_backlog : int array; (* per node: max own-queue length at push *)
  (* Scheduling. [run_now] is the set of nodes stepped this round:
     last round's senders plus this round's receivers (or every node
     on a probe round, when nothing is in flight). [run_next]
     accumulates this round's senders. The [in_*] bytes are
     membership flags; lists and flags swap wholesale each round. *)
  mutable run_now : Ivec.t;
  mutable run_next : Ivec.t;
  mutable in_now : Bytes.t;
  mutable in_next : Bytes.t;
  (* Round bodies, preallocated once so the per-round loops close over
     nothing: a steady-state round must not allocate even one closure. *)
  mutable deliver_body : int -> int -> int -> unit;
  mutable compute_body : int -> int -> int -> unit;
  metrics : Metrics.t;
  tracer : Trace.t option;
  obs : Obs_hooks.t option;
  mutable round : int;
  mutable in_flight : int; (* total queued messages *)
  mutable sent_last_round : int;
  mutable round_backlog : int; (* traced: max link backlog this round *)
}

let graph t = t.graph
let metrics t = t.metrics
let states t = t.node_states
let state t u = t.node_states.(u)

(* Delivery goes parallel only past this many active links; below it
   the bucket loop runs inline on the caller, so quiet rounds skip the
   pool handshake entirely. Results are identical either way — the
   same per-bucket code runs in the same reduction order. *)
let par_threshold = 512

(* Bounded-asynchrony delay for the [seq]-th message on link [l]:
   a pure hash of the run's base seed and the message's coordinates.
   Unlike drawing from a shared RNG stream inside [send] (the previous
   scheme), the delay does not depend on the order nodes happen to
   execute in, so jittered runs are reproducible under any pool. *)
let link_delay t l seq =
  match t.jitter with
  | None -> 0
  | Some { max_delay; _ } ->
    if max_delay = 0 then 0
    else Rng.mix (t.jitter_base lxor Rng.mix ((l * 2654435761) + seq))
         mod (max_delay + 1)

let schedule_now t u =
  if Bytes.get t.in_now u = '\000' then begin
    Bytes.set t.in_now u '\001';
    Ivec.push t.run_now u
  end

(* Append [m] (ready at [ready]) to link [l]'s ring, growing by
   doubling when full — the copy-out restarts the ring at slot 0.
   Returns the new queue length. Growth is amortised away: once a ring
   reaches its high-water capacity, pushes write in place. *)
let push_msg t l m ready =
  let len = t.q_len.(l) in
  let cap = Array.length t.q_msg.(l) in
  if len = cap then begin
    let ncap = if cap = 0 then 4 else 2 * cap in
    let head = t.q_head.(l) in
    let ring = t.q_msg.(l) in
    let nring = Array.make ncap m in
    for i = 0 to len - 1 do
      nring.(i) <- ring.((head + i) land (cap - 1))
    done;
    t.q_msg.(l) <- nring;
    (match t.jitter with
    | Some _ ->
      let rdy = t.q_ready.(l) in
      let nrdy = Array.make ncap 0 in
      for i = 0 to len - 1 do
        nrdy.(i) <- rdy.((head + i) land (cap - 1))
      done;
      t.q_ready.(l) <- nrdy
    | None -> ());
    t.q_head.(l) <- 0
  end;
  let ring = t.q_msg.(l) in
  let pos = (t.q_head.(l) + len) land (Array.length ring - 1) in
  ring.(pos) <- m;
  (match t.jitter with
  | Some _ -> t.q_ready.(l).(pos) <- ready
  | None -> ());
  t.q_len.(l) <- len + 1;
  len + 1

(* Top-level recursion (not a local closure capturing [t]) so counting
   the worklist in the per-round gate allocates nothing. *)
let rec count_active_from t c acc =
  if c >= t.nchunks then acc
  else count_active_from t (c + 1) (acc + Ivec.length t.active.(c))

let count_active t = count_active_from t 0 0

(* Scan chunk [c]'s active links once: release each deliverable head
   into its delivery slot and compact drained links away in place.
   [jit] hoists the jitter test out of the loop; without jitter the
   head of a nonempty FIFO ring is always deliverable, so no ready
   round is ever read. Written as a tail-recursive loop over plain
   ints — a [ref] accumulator would heap-allocate in every round. *)
let rec scan_bucket t c act jit now idx nact kept =
  if idx >= nact then kept
  else begin
    let l = Ivec.get act idx in
    let head = t.q_head.(l) in
    let len =
      if jit && t.q_ready.(l).(head) > now then t.q_len.(l)
      else begin
        let ring = t.q_msg.(l) in
        let m = ring.(head) in
        t.q_head.(l) <- (head + 1) land (Array.length ring - 1);
        let len = t.q_len.(l) - 1 in
        t.q_len.(l) <- len;
        let v = t.link_dst.(l) in
        if Slots.put t.slots ~round:now v t.link_slot.(l) m = 0 then
          Ivec.push t.recv_new.(c) v;
        t.d_delivered.(c) <- t.d_delivered.(c) + 1;
        let w = t.protocol.msg_words m in
        t.d_words.(c) <- t.d_words.(c) + w;
        if w > t.d_maxw.(c) then t.d_maxw.(c) <- w;
        len
      end
    in
    let kept =
      if len > 0 then begin
        Ivec.set act kept l;
        kept + 1
      end
      else kept
    in
    scan_bucket t c act jit now (idx + 1) nact kept
  end

let deliver_bucket t c =
  t.d_delivered.(c) <- 0;
  t.d_words.(c) <- 0;
  t.d_maxw.(c) <- 0;
  let act = t.active.(c) in
  let nact = Ivec.length act in
  if nact > 0 then begin
    let jit = t.jitter <> None in
    let kept = scan_bucket t c act jit (t.round + 1) 0 nact 0 in
    Ivec.truncate act kept
  end

(* The slot array is allocated at the first delivery, from a message
   already on the wire (see [Slots.prime]). *)
let prime_slots t =
  match Array.find_opt (fun act -> Ivec.length act > 0) t.active with
  | Some act ->
    let l = Ivec.get act 0 in
    Slots.prime t.slots t.q_msg.(l).(t.q_head.(l))
  | None -> ()

(* Run node [u] on [inbox], its chunk's reusable buffer. *)
let run_node t inbox u =
  Slots.gather t.slots inbox ~round:t.round u;
  t.protocol.on_round t.apis.(u) t.node_states.(u) inbox;
  Inbox.clear inbox

let create ?(pool = Pool.sequential) ?jitter ?tracer ?obs g protocol =
  let n = Graph.n g in
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + Graph.degree g u
  done;
  let m2 = offsets.(n) in
  let nchunks = Pool.domains pool in
  let chunk_div = max 1 ((n + nchunks - 1) / nchunks) in
  let link_dst = Array.make (max 1 m2) 0 and link_slot = Array.make (max 1 m2) 0 in
  let link_chunk = Array.make (max 1 m2) 0 in
  for u = 0 to n - 1 do
    for i = 0 to Graph.degree g u - 1 do
      let v = Graph.neighbor_node g u i in
      link_dst.(offsets.(u) + i) <- v;
      link_slot.(offsets.(u) + i) <- offsets.(v) + Graph.neighbor_index g v u;
      link_chunk.(offsets.(u) + i) <- v / chunk_div
    done
  done;
  let jittered = jitter <> None in
  let t =
    {
      graph = g;
      protocol;
      pool;
      jitter;
      jitter_base =
        (match jitter with None -> 0 | Some { rng; _ } -> Rng.int rng max_int);
      apis = [||];
      node_states = [||];
      offsets;
      q_msg = Array.make (max 1 m2) [||];
      q_ready = (if jittered then Array.make (max 1 m2) [||] else [||]);
      q_head = Array.make (max 1 m2) 0;
      q_len = Array.make (max 1 m2) 0;
      link_dst;
      link_slot;
      link_chunk;
      link_pushes = (if jittered then Array.make (max 1 m2) 0 else [||]);
      slots = Slots.create ~offsets;
      inbox = Array.init nchunks (fun _ -> Inbox.create ());
      nchunks;
      chunk_div;
      active = Array.init nchunks (fun _ -> Ivec.create ());
      recv_new = Array.init nchunks (fun _ -> Ivec.create ());
      d_delivered = Array.make nchunks 0;
      d_words = Array.make nchunks 0;
      d_maxw = Array.make nchunks 0;
      activated = Array.init n (fun _ -> Ivec.create ~capacity:4 ());
      enqueued = Array.make n 0;
      push_backlog = Array.make n 0;
      run_now = Ivec.create ();
      run_next = Ivec.create ();
      in_now = Bytes.make n '\000';
      in_next = Bytes.make n '\000';
      deliver_body = (fun _ _ _ -> ());
      compute_body = (fun _ _ _ -> ());
      metrics = Metrics.create ();
      tracer;
      obs = Obs_hooks.of_opt obs;
      round = 0;
      in_flight = 0;
      sent_last_round = 0;
      round_backlog = 0;
    }
  in
  t.deliver_body <-
    (fun _ lo hi ->
      for c = lo to hi - 1 do
        deliver_bucket t c
      done);
  t.compute_body <-
    (fun c lo hi ->
      let inbox = t.inbox.(c) in
      for idx = lo to hi - 1 do
        run_node t inbox (Ivec.get t.run_now idx)
      done);
  let make_api u =
    let deg = offsets.(u + 1) - offsets.(u) in
    let send i m =
      if protocol.msg_words m > protocol.max_msg_words then
        invalid_arg
          (Printf.sprintf "Engine(%s): message exceeds %d words" protocol.name
             protocol.max_msg_words);
      let l = t.offsets.(u) + i in
      let len =
        if jittered then begin
          let seq = t.link_pushes.(l) in
          t.link_pushes.(l) <- seq + 1;
          push_msg t l m (t.round + 1 + link_delay t l seq)
        end
        else push_msg t l m 0
      in
      if len = 1 then Ivec.push t.activated.(u) l;
      if len > t.push_backlog.(u) then t.push_backlog.(u) <- len;
      t.enqueued.(u) <- t.enqueued.(u) + 1
    in
    {
      id = u;
      degree = deg;
      neighbor_id = (fun i -> Graph.neighbor_node g u i);
      neighbor_weight = (fun i -> Graph.neighbor_weight_at g u i);
      send;
      broadcast =
        (fun m ->
          for i = 0 to deg - 1 do
            send i m
          done);
      round = (fun () -> t.round);
    }
  in
  (match tracer with
  | Some tr -> Trace.attach tr ~n ~domains:(Pool.domains pool)
  | None -> ());
  t.apis <- Array.init n make_api;
  t.node_states <- Array.init n (fun u -> protocol.init t.apis.(u));
  (* Absorb init-phase sends: count them, activate their links, and
     schedule the senders for round 1. *)
  for u = 0 to n - 1 do
    if t.enqueued.(u) > 0 then begin
      (match tracer with
      | Some tr -> Trace.count_send tr u t.enqueued.(u)
      | None -> ());
      t.in_flight <- t.in_flight + t.enqueued.(u);
      t.enqueued.(u) <- 0;
      Metrics.observe_backlog t.metrics t.push_backlog.(u);
      t.push_backlog.(u) <- 0;
      let av = t.activated.(u) in
      for k = 0 to Ivec.length av - 1 do
        let l = Ivec.get av k in
        Ivec.push t.active.(t.link_chunk.(l)) l
      done;
      Ivec.clear av;
      schedule_now t u
    end
  done;
  t

(* Delivery happens at the start of round (t.round + 1): each chunk's
   bucket is scanned — on the pool when enough links are active,
   inline otherwise — then the per-chunk scratch is reduced here,
   sequentially and in chunk order, and the receivers join the run
   list. The run list is then put in ascending node order. This is for
   speed, not determinism: node ids index the apis, states, slots and
   protocol tables, so compute sweeps them in address order, and the
   links it activates reach the next round's buckets in the same
   order. *)
let deliver t =
  if not (Slots.primed t.slots) then prime_slots t;
  if t.nchunks > 1 && count_active t >= par_threshold then
    ignore (Pool.parallel_chunks t.pool ~n:t.nchunks t.deliver_body)
  else
    for c = 0 to t.nchunks - 1 do
      deliver_bucket t c
    done;
  let trc = t.tracer in
  let obs = t.obs in
  for c = 0 to t.nchunks - 1 do
    let rn = t.recv_new.(c) in
    for i = 0 to Ivec.length rn - 1 do
      let v = Ivec.get rn i in
      schedule_now t v;
      match trc with
      | Some tr -> Trace.count_recv tr v (Slots.count t.slots v)
      | None -> ()
    done;
    Ivec.clear rn;
    Metrics.count_delivered t.metrics ~messages:t.d_delivered.(c)
      ~words:t.d_words.(c) ~max_msg_words:t.d_maxw.(c);
    (match obs with
    | Some o ->
      Ds_obs.Obs.add o.Obs_hooks.deliveries ~shard:c t.d_delivered.(c);
      Ds_obs.Obs.add o.Obs_hooks.words ~shard:c t.d_words.(c)
    | None -> ());
    t.in_flight <- t.in_flight - t.d_delivered.(c)
  done;
  Ivec.sort_flagged t.run_now t.in_now ~lo:0 ~hi:(Bytes.length t.in_now)

let step t =
  (* With nothing in flight nobody can be woken by a message, so run
     every node once: this is the probe round [run] uses to detect
     quiescence, and it also lets protocols whose nodes start without
     sending (e.g. Multi_bf sources) bootstrap themselves. [run_now]
     is necessarily empty here — last round's senders imply in-flight
     messages. *)
  if t.in_flight = 0 then
    for u = 0 to Graph.n t.graph - 1 do
      schedule_now t u
    done;
  (* Telemetry pre-reads. All of it is gated on [t.tracer], an
     immutable field set at creation: an untraced engine pays only
     these branches — no clock reads, no allocation. *)
  let trc = t.tracer in
  let active_links = match trc with Some _ -> count_active t | None -> 0 in
  let pre_msgs =
    match trc with Some _ -> Metrics.messages t.metrics | None -> 0
  in
  let pre_words =
    match trc with Some _ -> Metrics.words t.metrics | None -> 0
  in
  let t0 = match trc with Some _ -> Trace.now_ns () | None -> 0 in
  deliver t;
  let t1 = match trc with Some _ -> Trace.now_ns () | None -> 0 in
  t.round <- t.round + 1;
  Metrics.tick_round t.metrics;
  let rl = t.run_now in
  ignore (Pool.parallel_chunks t.pool ~n:(Ivec.length rl) t.compute_body);
  let ran = Ivec.length rl in
  (* Sequentially absorb the round's sends from the per-node scratch:
     O(nodes that ran + links activated), independent of pool size and
     of node execution order, so parallel runs stay deterministic. *)
  t.sent_last_round <- 0;
  t.round_backlog <- 0;
  for i = 0 to Ivec.length rl - 1 do
    let u = Ivec.get rl i in
    Bytes.set t.in_now u '\000';
    if t.enqueued.(u) > 0 then begin
      t.sent_last_round <- t.sent_last_round + t.enqueued.(u);
      (match trc with
      | Some tr ->
        Trace.count_send tr u t.enqueued.(u);
        if t.push_backlog.(u) > t.round_backlog then
          t.round_backlog <- t.push_backlog.(u)
      | None -> ());
      t.enqueued.(u) <- 0;
      Metrics.observe_backlog t.metrics t.push_backlog.(u);
      t.push_backlog.(u) <- 0;
      let av = t.activated.(u) in
      for k = 0 to Ivec.length av - 1 do
        let l = Ivec.get av k in
        Ivec.push t.active.(t.link_chunk.(l)) l
      done;
      Ivec.clear av;
      if Bytes.get t.in_next u = '\000' then begin
        Bytes.set t.in_next u '\001';
        Ivec.push t.run_next u
      end
    end
  done;
  Ivec.clear rl;
  t.in_flight <- t.in_flight + t.sent_last_round;
  (* This round's senders become (part of) next round's run list. *)
  let tmp = t.run_now in
  t.run_now <- t.run_next;
  t.run_next <- tmp;
  let tmpf = t.in_now in
  t.in_now <- t.in_next;
  t.in_next <- tmpf;
  (* Obs end-of-round block: counter bump + two gauge stores, no
     clock reads — the instrumented round stays zero-alloc (pinned by
     the GC-regression test). *)
  (match t.obs with
  | None -> ()
  | Some o ->
    Ds_obs.Obs.incr o.Obs_hooks.rounds ~shard:0;
    Ds_obs.Obs.set o.Obs_hooks.backlog ~shard:0
      (Metrics.max_link_backlog t.metrics);
    Ds_obs.Obs.set o.Obs_hooks.busy ~shard:0 (Pool.chunks_for t.pool ran));
  match trc with
  | None -> ()
  | Some tr ->
    let t2 = Trace.now_ns () in
    Trace.record_round tr
      {
        Trace.round = t.round;
        active_nodes = ran;
        active_links;
        delivered = Metrics.messages t.metrics - pre_msgs;
        words = Metrics.words t.metrics - pre_words;
        in_flight = t.in_flight;
        link_backlog = t.round_backlog;
        delivery_ns = t1 - t0;
        compute_ns = t2 - t1;
        busy_domains = Pool.chunks_for t.pool ran;
      }

let quiescent t = t.in_flight = 0
let all_halted t = Array.for_all t.protocol.halted t.node_states

(* Backbone footprint in machine words: every flat int array, ring
   capacity and membership byte the plane owns. Message ring and slot
   entries count one word each (the payload is an immediate int in
   every protocol here; boxed payloads add their own heap cost on
   top). Protocol state is the protocol's business and not counted. *)
let mem_words t =
  let words = ref 0 in
  let add n = words := !words + n in
  add (Array.length t.offsets);
  add (Array.length t.q_head);
  add (Array.length t.q_len);
  add (Array.length t.link_dst);
  add (Array.length t.link_slot);
  add (Array.length t.link_chunk);
  add (Array.length t.link_pushes);
  Array.iter (fun ring -> add (Array.length ring)) t.q_msg;
  Array.iter (fun rdy -> add (Array.length rdy)) t.q_ready;
  add (Slots.mem_words t.slots);
  Array.iter (fun b -> add (Inbox.mem_words b)) t.inbox;
  Array.iter (fun v -> add (Ivec.capacity v)) t.active;
  Array.iter (fun v -> add (Ivec.capacity v)) t.recv_new;
  Array.iter (fun v -> add (Ivec.capacity v)) t.activated;
  add (Array.length t.enqueued);
  add (Array.length t.push_backlog);
  add (Ivec.capacity t.run_now);
  add (Ivec.capacity t.run_next);
  add (2 * ((Bytes.length t.in_now + 7) / 8));
  !words

let run ?(max_rounds = 10_000_000) t =
  let rec go () =
    if all_halted t && t.in_flight = 0 then All_halted
    else if t.round >= max_rounds then Round_limit
    else begin
      let before_flight = t.in_flight in
      step t;
      if before_flight = 0 && t.in_flight = 0 then begin
        (* Nothing was in flight and the computation round produced no
           new messages: the system is quiescent. The probe round did
           no work, so it is not charged. *)
        Metrics.untick_round t.metrics;
        (match t.tracer with
        | Some tr -> Trace.drop_last tr
        | None -> ());
        (match t.obs with
        | Some o -> Ds_obs.Obs.add o.Obs_hooks.rounds ~shard:0 (-1)
        | None -> ());
        t.round <- t.round - 1;
        if all_halted t then All_halted else Quiescent
      end
      else go ()
    end
  in
  go ()
