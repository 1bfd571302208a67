(* MPC-style sharded superstep backend.

   Nodes are partitioned into [nshards] contiguous shards; shard [s]
   owns nodes [s * shard_div, (s+1) * shard_div). A round is four
   phases with barriers between the parallel ones:

     exchange  (parallel, by source shard): pop this round's head
               message off every active outgoing link ring and append
               it — as [link; width; words...] — to the wire batch
               for the destination's shard;
     deliver   (parallel, by destination shard): decode each incoming
               batch straight into the receivers' delivery slots (see
               [Slots]), schedule receivers;
     compute   (parallel, by shard): gather each active node's slots
               into the shard's reusable inbox and run [on_round];
               sends encode into the shard's scratch and append to the
               sender-owned link rings;
     absorb    (sequential): reduce the per-shard counters into
               {!Metrics} in shard order.

   The per-link FIFO rings enforce the CONGEST wire discipline (one
   message per link per round, FIFO order), and slot order is the
   canonical ascending sender index, so the per-round inbox
   contents — and therefore sketches, metrics, round counts and
   backlog maxima — are byte-identical to {!Engine}'s, for any shard
   count. What changes is the data movement: messages travel in
   [nshards^2] bulk word batches per round instead of per-link ring
   hops, which is the Dinitz–Nazari massively-parallel execution
   model for these protocols. *)

module Graph = Ds_graph.Graph
module Pool = Ds_parallel.Pool
module Ivec = Ds_util.Ivec

type ('state, 'msg) t = {
  graph : Graph.t;
  protocol : ('state, 'msg) Superstep.protocol;
  codec : 'msg Superstep.codec;
  pool : Pool.t;
  nshards : int;
  shard_div : int;
  mutable apis : 'msg Superstep.api array;
  mutable node_states : 'state array;
  offsets : int array; (* length n+1; prefix sums of degrees *)
  link_dst : int array; (* destination node of each directed link *)
  link_slot : int array; (* delivery slot: the reverse link's id *)
  link_dshard : int array; (* destination shard of each link *)
  (* Sender-owned flat word rings, one per directed link. Each entry
     is [width; payload words...]; power-of-two capacity with
     head/words cursors in flat arrays, so a steady-state send writes
     array slots and bumps ints — no allocation. *)
  ring : int array array;
  r_head : int array; (* word read position *)
  r_words : int array; (* live words *)
  r_msgs : int array; (* queued message count (backlog accounting) *)
  out_active : Ivec.t array; (* per source shard: links with queued msgs *)
  enc : Ivec.t array; (* per source shard: encode scratch *)
  (* The wire. [wire.(s * nshards + d)] is the batch moving from
     shard [s] to shard [d] this round; written only by [s] during
     exchange, read and cleared only by [d] during deliver. *)
  wire : Ivec.t array;
  slots : 'msg Slots.t;
  inbox : 'msg Superstep.Inbox.t array; (* per shard, reused per node *)
  recv_new : Ivec.t array; (* per dst shard: this round's receivers *)
  (* Scheduling, per shard: same contract as [Engine] — last round's
     senders plus this round's receivers run, or every node on a
     probe round. Flags are global byte arrays; each shard only ever
     touches its own nodes' bytes. *)
  mutable run_now : Ivec.t array;
  mutable run_next : Ivec.t array;
  mutable in_now : Bytes.t;
  mutable in_next : Bytes.t;
  (* Per-shard counters, reduced sequentially in shard order. *)
  d_delivered : int array;
  d_words : int array;
  d_maxw : int array;
  s_sent : int array;
  s_backlog : int array;
  (* Tracer-only per-node send counts (empty when untraced). *)
  enqueued : int array;
  senders : Ivec.t array; (* per shard: nodes with enqueued > 0 *)
  mutable exchange_body : int -> int -> int -> unit;
  mutable deliver_body : int -> int -> int -> unit;
  mutable compute_body : int -> int -> int -> unit;
  metrics : Metrics.t;
  tracer : Trace.t option;
  obs : Obs_hooks.t option;
  mutable round : int;
  mutable in_flight : int;
  mutable sent_last_round : int;
}

let graph t = t.graph
let metrics t = t.metrics
let states t = t.node_states
let state t u = t.node_states.(u)
let shards t = t.nshards

(* Append [enc]'s words as one framed entry to link [l]'s ring. *)
let push_ring t l buf =
  let blen = Ivec.length buf in
  let need = t.r_words.(l) + 1 + blen in
  let ring = t.ring.(l) in
  let cap = Array.length ring in
  let ring =
    if need > cap then begin
      let ncap = ref (max 8 (2 * cap)) in
      while !ncap < need do
        ncap := 2 * !ncap
      done;
      let nring = Array.make !ncap 0 in
      let head = t.r_head.(l) in
      for i = 0 to t.r_words.(l) - 1 do
        nring.(i) <- ring.((head + i) land (cap - 1))
      done;
      t.ring.(l) <- nring;
      t.r_head.(l) <- 0;
      nring
    end
    else ring
  in
  let mask = Array.length ring - 1 in
  let base = t.r_head.(l) + t.r_words.(l) in
  ring.(base land mask) <- blen;
  for j = 0 to blen - 1 do
    ring.((base + 1 + j) land mask) <- Ivec.get buf j
  done;
  t.r_words.(l) <- need

(* Pop the head entry of every active link owned by shard [s] onto
   the destination shard's wire batch; compact still-backlogged links
   in place (stable, like the engine's bucket scan). Tail recursion
   over plain ints — a [ref] would allocate every round. *)
let rec exchange_scan t s act idx nact kept =
  if idx >= nact then kept
  else begin
    let l = Ivec.get act idx in
    let ring = t.ring.(l) in
    let mask = Array.length ring - 1 in
    let head = t.r_head.(l) in
    let width = ring.(head) in
    let w = t.wire.((s * t.nshards) + t.link_dshard.(l)) in
    Ivec.push w l;
    Ivec.push w width;
    for j = 0 to width - 1 do
      Ivec.push w ring.((head + 1 + j) land mask)
    done;
    t.r_head.(l) <- (head + 1 + width) land mask;
    t.r_words.(l) <- t.r_words.(l) - 1 - width;
    let msgs = t.r_msgs.(l) - 1 in
    t.r_msgs.(l) <- msgs;
    let kept =
      if msgs > 0 then begin
        Ivec.set act kept l;
        kept + 1
      end
      else kept
    in
    exchange_scan t s act (idx + 1) nact kept
  end

let exchange_shard t s =
  let act = t.out_active.(s) in
  let nact = Ivec.length act in
  if nact > 0 then begin
    let kept = exchange_scan t s act 0 nact 0 in
    Ivec.truncate act kept
  end

(* Decode one wire batch into shard [d]'s delivery slots. *)
let rec deliver_wire t d w off len =
  if off < len then begin
    let l = Ivec.get w off in
    let width = Ivec.get w (off + 1) in
    let m = t.codec.decode w (off + 2) in
    let v = t.link_dst.(l) in
    if Slots.put t.slots ~round:(t.round + 1) v t.link_slot.(l) m = 0 then
      Ivec.push t.recv_new.(d) v;
    if Bytes.get t.in_now v = '\000' then begin
      Bytes.set t.in_now v '\001';
      Ivec.push t.run_now.(d) v
    end;
    t.d_delivered.(d) <- t.d_delivered.(d) + 1;
    let mw = t.protocol.msg_words m in
    t.d_words.(d) <- t.d_words.(d) + mw;
    if mw > t.d_maxw.(d) then t.d_maxw.(d) <- mw;
    deliver_wire t d w (off + 2 + width) len
  end

let deliver_shard t d =
  t.d_delivered.(d) <- 0;
  t.d_words.(d) <- 0;
  t.d_maxw.(d) <- 0;
  for s = 0 to t.nshards - 1 do
    let w = t.wire.((s * t.nshards) + d) in
    deliver_wire t d w 0 (Ivec.length w);
    Ivec.clear w
  done

(* The slot array is allocated at the first delivery, from a message
   already on the wire (see [Slots.prime]). Entries are framed as
   [link; width; words...], so a batch's first message starts at 2. *)
let prime_slots t =
  match Array.find_opt (fun w -> Ivec.length w > 0) t.wire with
  | Some w -> Slots.prime t.slots (t.codec.decode w 2)
  | None -> ()

(* Shard [s] runs its nodes in ascending order, for memory locality
   (see [Engine.deliver]). *)
let compute_shard t s =
  let rl = t.run_now.(s) in
  let lo = s * t.shard_div in
  Ivec.sort_flagged rl t.in_now ~lo ~hi:(min (Graph.n t.graph) (lo + t.shard_div));
  let inbox = t.inbox.(s) in
  for idx = 0 to Ivec.length rl - 1 do
    let u = Ivec.get rl idx in
    Slots.gather t.slots inbox ~round:t.round u;
    t.protocol.on_round t.apis.(u) t.node_states.(u) inbox;
    Superstep.Inbox.clear inbox;
    Bytes.set t.in_now u '\000'
  done;
  Ivec.clear rl

(* Dispatch a phase across the shards — inline when the pool (or the
   partition) is trivial, so single-domain runs pay no handshake. *)
let par_phase t body =
  if t.nshards > 1 && Pool.domains t.pool > 1 then
    ignore (Pool.parallel_chunks t.pool ~n:t.nshards body)
  else body 0 0 t.nshards

let rec count_out_active_from t s acc =
  if s >= t.nshards then acc
  else count_out_active_from t (s + 1) (acc + Ivec.length t.out_active.(s))

let count_out_active t = count_out_active_from t 0 0

let rec count_run_now_from t s acc =
  if s >= t.nshards then acc
  else count_run_now_from t (s + 1) (acc + Ivec.length t.run_now.(s))

let count_run_now t = count_run_now_from t 0 0

(* Sequentially fold the round's sends into the metrics and tracer;
   mirrors the engine's absorb loop, at shard granularity. *)
let absorb_sends t =
  t.sent_last_round <- 0;
  let trc = t.tracer in
  for s = 0 to t.nshards - 1 do
    t.sent_last_round <- t.sent_last_round + t.s_sent.(s);
    t.s_sent.(s) <- 0;
    Metrics.observe_backlog t.metrics t.s_backlog.(s);
    t.s_backlog.(s) <- 0;
    match trc with
    | Some tr ->
      let sv = t.senders.(s) in
      for i = 0 to Ivec.length sv - 1 do
        let u = Ivec.get sv i in
        Trace.count_send tr u t.enqueued.(u);
        t.enqueued.(u) <- 0
      done;
      Ivec.clear sv
    | None -> ()
  done;
  t.in_flight <- t.in_flight + t.sent_last_round

let create ?(pool = Pool.sequential) ?shards ?tracer ?obs ~codec g protocol =
  let n = Graph.n g in
  let nshards =
    match shards with
    | None -> Pool.domains pool
    | Some s when s >= 1 -> s
    | Some _ -> invalid_arg "Shard_engine.create: shards must be >= 1"
  in
  let nshards = min nshards n in
  let shard_div = max 1 ((n + nshards - 1) / nshards) in
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + Graph.degree g u
  done;
  let m2 = offsets.(n) in
  let link_dst = Array.make (max 1 m2) 0
  and link_slot = Array.make (max 1 m2) 0
  and link_dshard = Array.make (max 1 m2) 0 in
  for u = 0 to n - 1 do
    for i = 0 to Graph.degree g u - 1 do
      let v = Graph.neighbor_node g u i in
      link_dst.(offsets.(u) + i) <- v;
      link_slot.(offsets.(u) + i) <- offsets.(v) + Graph.neighbor_index g v u;
      link_dshard.(offsets.(u) + i) <- v / shard_div
    done
  done;
  let traced = tracer <> None in
  let t =
    {
      graph = g;
      protocol;
      codec;
      pool;
      nshards;
      shard_div;
      apis = [||];
      node_states = [||];
      offsets;
      link_dst;
      link_slot;
      link_dshard;
      ring = Array.make (max 1 m2) [||];
      r_head = Array.make (max 1 m2) 0;
      r_words = Array.make (max 1 m2) 0;
      r_msgs = Array.make (max 1 m2) 0;
      out_active = Array.init nshards (fun _ -> Ivec.create ());
      enc = Array.init nshards (fun _ -> Ivec.create ~capacity:8 ());
      wire = Array.init (nshards * nshards) (fun _ -> Ivec.create ());
      slots = Slots.create ~offsets;
      inbox = Array.init nshards (fun _ -> Superstep.Inbox.create ());
      recv_new = Array.init nshards (fun _ -> Ivec.create ());
      run_now = Array.init nshards (fun _ -> Ivec.create ());
      run_next = Array.init nshards (fun _ -> Ivec.create ());
      in_now = Bytes.make n '\000';
      in_next = Bytes.make n '\000';
      d_delivered = Array.make nshards 0;
      d_words = Array.make nshards 0;
      d_maxw = Array.make nshards 0;
      s_sent = Array.make nshards 0;
      s_backlog = Array.make nshards 0;
      enqueued = (if traced then Array.make n 0 else [||]);
      senders =
        (if traced then Array.init nshards (fun _ -> Ivec.create ())
         else [||]);
      exchange_body = (fun _ _ _ -> ());
      deliver_body = (fun _ _ _ -> ());
      compute_body = (fun _ _ _ -> ());
      metrics = Metrics.create ();
      tracer;
      obs = Obs_hooks.of_opt obs;
      round = 0;
      in_flight = 0;
      sent_last_round = 0;
    }
  in
  t.exchange_body <-
    (fun _ lo hi ->
      for s = lo to hi - 1 do
        exchange_shard t s
      done);
  t.deliver_body <-
    (fun _ lo hi ->
      for d = lo to hi - 1 do
        deliver_shard t d
      done);
  t.compute_body <-
    (fun _ lo hi ->
      for s = lo to hi - 1 do
        compute_shard t s
      done);
  let make_api u =
    let deg = offsets.(u + 1) - offsets.(u) in
    let s = u / shard_div in
    let send i m =
      if protocol.msg_words m > protocol.max_msg_words then
        invalid_arg
          (Printf.sprintf "Shard_engine(%s): message exceeds %d words"
             protocol.name protocol.max_msg_words);
      let l = t.offsets.(u) + i in
      let buf = t.enc.(s) in
      Ivec.clear buf;
      t.codec.encode buf m;
      push_ring t l buf;
      let msgs = t.r_msgs.(l) + 1 in
      t.r_msgs.(l) <- msgs;
      if msgs = 1 then Ivec.push t.out_active.(s) l;
      t.s_sent.(s) <- t.s_sent.(s) + 1;
      if msgs > t.s_backlog.(s) then t.s_backlog.(s) <- msgs;
      (match t.tracer with
      | Some _ ->
        if t.enqueued.(u) = 0 then Ivec.push t.senders.(s) u;
        t.enqueued.(u) <- t.enqueued.(u) + 1
      | None -> ());
      if Bytes.get t.in_next u = '\000' then begin
        Bytes.set t.in_next u '\001';
        Ivec.push t.run_next.(s) u
      end
    in
    {
      Superstep.id = u;
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
  let states = Array.init n (fun u -> protocol.init t.apis.(u)) in
  t.node_states <- states;
  (* Absorb init-phase sends and promote the senders to round 1's run
     list (they were scheduled into [run_next] by [send]). *)
  absorb_sends t;
  let tmp = t.run_now in
  t.run_now <- t.run_next;
  t.run_next <- tmp;
  let tmpf = t.in_now in
  t.in_now <- t.in_next;
  t.in_next <- tmpf;
  t

let schedule_all t =
  for u = 0 to Graph.n t.graph - 1 do
    if Bytes.get t.in_now u = '\000' then begin
      Bytes.set t.in_now u '\001';
      Ivec.push t.run_now.(u / t.shard_div) u
    end
  done

let step t =
  (* Probe round: with nothing in flight nobody can be woken by a
     message, so run every node once (see Engine.step). *)
  if t.in_flight = 0 then schedule_all t;
  let trc = t.tracer in
  let active_links =
    match trc with Some _ -> count_out_active t | None -> 0
  in
  let pre_msgs =
    match trc with Some _ -> Metrics.messages t.metrics | None -> 0
  in
  let pre_words =
    match trc with Some _ -> Metrics.words t.metrics | None -> 0
  in
  let t0 = match trc with Some _ -> Trace.now_ns () | None -> 0 in
  if t.in_flight > 0 then begin
    par_phase t t.exchange_body;
    if not (Slots.primed t.slots) then prime_slots t;
    par_phase t t.deliver_body;
    for d = 0 to t.nshards - 1 do
      Metrics.count_delivered t.metrics ~messages:t.d_delivered.(d)
        ~words:t.d_words.(d) ~max_msg_words:t.d_maxw.(d);
      (match t.obs with
      | Some o ->
        Ds_obs.Obs.add o.Obs_hooks.deliveries ~shard:d t.d_delivered.(d);
        Ds_obs.Obs.add o.Obs_hooks.words ~shard:d t.d_words.(d)
      | None -> ());
      t.in_flight <- t.in_flight - t.d_delivered.(d);
      (match trc with
      | Some tr ->
        let rn = t.recv_new.(d) in
        for i = 0 to Ivec.length rn - 1 do
          let v = Ivec.get rn i in
          Trace.count_recv tr v (Slots.count t.slots v)
        done
      | None -> ());
      Ivec.clear t.recv_new.(d)
    done
  end;
  let t1 = match trc with Some _ -> Trace.now_ns () | None -> 0 in
  t.round <- t.round + 1;
  Metrics.tick_round t.metrics;
  let ran =
    if trc <> None || t.obs <> None then count_run_now t else 0
  in
  par_phase t t.compute_body;
  let round_backlog =
    match trc with
    | Some _ -> Array.fold_left max 0 t.s_backlog
    | None -> 0
  in
  absorb_sends t;
  let tmp = t.run_now in
  t.run_now <- t.run_next;
  t.run_next <- tmp;
  let tmpf = t.in_now in
  t.in_now <- t.in_next;
  t.in_next <- tmpf;
  (* Obs end-of-round block: mirrors Engine.step — no clock reads,
     no allocation. *)
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
        link_backlog = round_backlog;
        delivery_ns = t1 - t0;
        compute_ns = t2 - t1;
        busy_domains = Pool.chunks_for t.pool ran;
      }

let quiescent t = t.in_flight = 0
let all_halted t = Array.for_all t.protocol.halted t.node_states

let run ?(max_rounds = 10_000_000) t =
  let rec go () =
    if all_halted t && t.in_flight = 0 then Superstep.All_halted
    else if t.round >= max_rounds then Superstep.Round_limit
    else begin
      let before_flight = t.in_flight in
      step t;
      if before_flight = 0 && t.in_flight = 0 then begin
        (* Quiescent probe round: no work was done, so don't charge
           it (same bookkeeping as Engine.run). *)
        Metrics.untick_round t.metrics;
        (match t.tracer with
        | Some tr -> Trace.drop_last tr
        | None -> ());
        (match t.obs with
        | Some o -> Ds_obs.Obs.add o.Obs_hooks.rounds ~shard:0 (-1)
        | None -> ());
        t.round <- t.round - 1;
        if all_halted t then Superstep.All_halted else Superstep.Quiescent
      end
      else go ()
    end
  in
  go ()

(* Backbone footprint in machine words; see Engine.mem_words. *)
let mem_words t =
  let words = ref 0 in
  let add n = words := !words + n in
  add (Array.length t.offsets);
  add (Array.length t.link_dst);
  add (Array.length t.link_slot);
  add (Array.length t.link_dshard);
  add (Array.length t.r_head);
  add (Array.length t.r_words);
  add (Array.length t.r_msgs);
  Array.iter (fun ring -> add (Array.length ring)) t.ring;
  Array.iter (fun v -> add (Ivec.capacity v)) t.out_active;
  Array.iter (fun v -> add (Ivec.capacity v)) t.enc;
  Array.iter (fun v -> add (Ivec.capacity v)) t.wire;
  add (Slots.mem_words t.slots);
  Array.iter (fun b -> add (Superstep.Inbox.mem_words b)) t.inbox;
  Array.iter (fun v -> add (Ivec.capacity v)) t.recv_new;
  Array.iter (fun v -> add (Ivec.capacity v)) t.run_now;
  Array.iter (fun v -> add (Ivec.capacity v)) t.run_next;
  add (Array.length t.d_delivered);
  add (Array.length t.d_words);
  add (Array.length t.d_maxw);
  add (Array.length t.s_sent);
  add (Array.length t.s_backlog);
  add (Array.length t.enqueued);
  Array.iter (fun v -> add (Ivec.capacity v)) t.senders;
  add (2 * ((Bytes.length t.in_now + 7) / 8));
  !words
