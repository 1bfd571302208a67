module Json = Ds_util.Json

type round = {
  round : int;
  active_nodes : int;
  active_links : int;
  delivered : int;
  words : int;
  in_flight : int;
  link_backlog : int;
  delivery_ns : int;
  compute_ns : int;
  busy_domains : int;
}

let zero_round =
  {
    round = 0;
    active_nodes = 0;
    active_links = 0;
    delivered = 0;
    words = 0;
    in_flight = 0;
    link_backlog = 0;
    delivery_ns = 0;
    compute_ns = 0;
    busy_domains = 0;
  }

type t = {
  mutable rows : round array; (* only the first [len] slots are valid *)
  mutable len : int;
  mutable sent : int array; (* per node, cumulative *)
  mutable recv : int array;
  mutable pool : int;
}

let create () = { rows = [||]; len = 0; sent = [||]; recv = [||]; pool = 1 }

let grow a n = Array.init n (fun i -> if i < Array.length a then a.(i) else 0)

let attach t ~n ~domains =
  if Array.length t.sent < n then begin
    t.sent <- grow t.sent n;
    t.recv <- grow t.recv n
  end;
  t.pool <- domains

let count_send t u k = t.sent.(u) <- t.sent.(u) + k
let count_recv t u k = t.recv.(u) <- t.recv.(u) + k

let record_round t r =
  if t.len = Array.length t.rows then begin
    let cap = max 64 (2 * t.len) in
    let rows = Array.make cap zero_round in
    Array.blit t.rows 0 rows 0 t.len;
    t.rows <- rows
  end;
  t.rows.(t.len) <- r;
  t.len <- t.len + 1

let drop_last t = if t.len > 0 then t.len <- t.len - 1

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let rounds_logged t = t.len
let rows t = Array.to_list (Array.sub t.rows 0 t.len)
let sent t u = t.sent.(u)
let received t u = t.recv.(u)

type profile = {
  rounds : int;
  messages : int;
  total_words : int;
  peak_delivered : int;
  peak_delivered_round : int;
  peak_active_links : int;
  peak_active_links_round : int;
  peak_in_flight : int;
  peak_in_flight_round : int;
  max_link_backlog : int;
}

let profile t =
  let p =
    ref
      {
        rounds = t.len;
        messages = 0;
        total_words = 0;
        peak_delivered = 0;
        peak_delivered_round = 0;
        peak_active_links = 0;
        peak_active_links_round = 0;
        peak_in_flight = 0;
        peak_in_flight_round = 0;
        max_link_backlog = 0;
      }
  in
  for i = 0 to t.len - 1 do
    let r = t.rows.(i) and acc = !p in
    let acc =
      { acc with messages = acc.messages + r.delivered;
                 total_words = acc.total_words + r.words }
    in
    let acc =
      if r.delivered > acc.peak_delivered then
        { acc with peak_delivered = r.delivered;
                   peak_delivered_round = i + 1 }
      else acc
    in
    let acc =
      if r.active_links > acc.peak_active_links then
        { acc with peak_active_links = r.active_links;
                   peak_active_links_round = i + 1 }
      else acc
    in
    let acc =
      if r.in_flight > acc.peak_in_flight then
        { acc with peak_in_flight = r.in_flight;
                   peak_in_flight_round = i + 1 }
      else acc
    in
    p := { acc with max_link_backlog = max acc.max_link_backlog r.link_backlog }
  done;
  !p

let hotspots ?(k = 5) t =
  let all = ref [] in
  for u = Array.length t.sent - 1 downto 0 do
    if t.sent.(u) + t.recv.(u) > 0 then
      all := (u, t.sent.(u), t.recv.(u)) :: !all
  done;
  let by_traffic (u, su, ru) (v, sv, rv) =
    match compare (sv + rv) (su + ru) with 0 -> compare u v | c -> c
  in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  take k (List.sort by_traffic !all)

(* ---- JSONL ---- *)

let jsonl ?(timing = true) t =
  let b = Buffer.create (128 * (t.len + 1)) in
  let line v =
    Buffer.add_string b (Json.to_string_compact v);
    Buffer.add_char b '\n'
  in
  line
    (Json.Obj
       ([
          ("schema", Json.String "distsketch.trace.rounds");
          ("version", Json.Int 1);
          ("timing", Json.Bool timing);
        ]
       @ if timing then [ ("pool_domains", Json.Int t.pool) ] else []));
  for i = 0 to t.len - 1 do
    let r = t.rows.(i) in
    line
      (Json.Obj
         ([
            ("round", Json.Int r.round);
            ("active_nodes", Json.Int r.active_nodes);
            ("active_links", Json.Int r.active_links);
            ("delivered", Json.Int r.delivered);
            ("words", Json.Int r.words);
            ("in_flight", Json.Int r.in_flight);
            ("link_backlog", Json.Int r.link_backlog);
          ]
         @
         if timing then
           [
             ("delivery_ns", Json.Int r.delivery_ns);
             ("compute_ns", Json.Int r.compute_ns);
             ("busy_domains", Json.Int r.busy_domains);
           ]
         else []))
  done;
  Buffer.contents b

(* ---- Chrome trace events ---- *)

(* Timestamps are trace-microseconds. Under [`Wall] each round's spans
   sit at the measured cumulative offsets; under [`Rounds] virtual
   time gives every round 1000 us split evenly between delivery and
   compute, which keeps the file deterministic across hosts and pool
   sizes. *)
let chrome ?(clock = `Wall) ?(phases = []) t =
  let wall = match clock with `Wall -> true | `Rounds -> false in
  let us ns = float_of_int ns /. 1000.0 in
  (* starts.(i) = trace time at which row i begins; starts.(len) = end. *)
  let starts = Array.make (t.len + 1) 0.0 in
  let split = Array.make (max 1 t.len) 0.0 in
  for i = 0 to t.len - 1 do
    let r = t.rows.(i) in
    let d, c =
      if wall then (us r.delivery_ns, us r.compute_ns) else (500.0, 500.0)
    in
    split.(i) <- d;
    starts.(i + 1) <- starts.(i) +. d +. c
  done;
  let events = ref [] in
  let emit e = events := e :: !events in
  let meta name pid tid value =
    emit
      (Json.Obj
         [
           ("name", Json.String name);
           ("ph", Json.String "M");
           ("pid", Json.Int pid);
           ("tid", Json.Int tid);
           ("args", Json.Obj [ ("name", Json.String value) ]);
         ])
  in
  let span name tid ts dur args =
    emit
      (Json.Obj
         [
           ("name", Json.String name);
           ("ph", Json.String "X");
           ("pid", Json.Int 1);
           ("tid", Json.Int tid);
           ("ts", Json.Float ts);
           ("dur", Json.Float dur);
           ("args", Json.Obj args);
         ])
  in
  let counter name ts key value =
    emit
      (Json.Obj
         [
           ("name", Json.String name);
           ("ph", Json.String "C");
           ("pid", Json.Int 1);
           ("ts", Json.Float ts);
           ("args", Json.Obj [ (key, Json.Int value) ]);
         ])
  in
  meta "process_name" 1 0 "distsketch CONGEST engine";
  meta "thread_name" 1 1 "rounds (delivery / compute)";
  if phases <> [] then meta "thread_name" 1 2 "protocol phases";
  for i = 0 to t.len - 1 do
    let r = t.rows.(i) in
    let t0 = starts.(i) in
    span "delivery" 1 t0 split.(i)
      [
        ("round", Json.Int r.round);
        ("delivered", Json.Int r.delivered);
        ("words", Json.Int r.words);
        ("active_links", Json.Int r.active_links);
        ("link_backlog", Json.Int r.link_backlog);
      ];
    span "compute" 1 (t0 +. split.(i))
      (starts.(i + 1) -. t0 -. split.(i))
      (("round", Json.Int r.round)
      :: ("active_nodes", Json.Int r.active_nodes)
      ::
      (if wall then [ ("busy_domains", Json.Int r.busy_domains) ] else []));
    counter "in-flight" t0 "messages" r.in_flight;
    counter "active links" t0 "links" r.active_links;
    counter "delivered" t0 "messages" r.delivered
  done;
  (* Phase spans, aligned by cumulative round counts; a phase list
     from a matching run sums exactly to the logged rows, but clamp
     anyway so a foreign list cannot index out of range. *)
  let r0 = ref 0 in
  List.iter
    (fun (p : Metrics.phase) ->
      let lo = min !r0 t.len in
      let hi = min (!r0 + p.Metrics.rounds) t.len in
      if hi > lo then
        span p.Metrics.name 2 starts.(lo)
          (starts.(hi) -. starts.(lo))
          [
            ("rounds", Json.Int p.Metrics.rounds);
            ("messages", Json.Int p.Metrics.messages);
            ("words", Json.Int p.Metrics.words);
          ];
      r0 := !r0 + p.Metrics.rounds)
    phases;
  Json.to_string_compact
    (Json.Obj
       [
         ("traceEvents", Json.List (List.rev !events));
         ("displayTimeUnit", Json.String "ms");
       ])

(* ---- Summary ---- *)

let summary ?(top_k = 5) ?(timing = true) t =
  let p = profile t in
  let total f = Array.fold_left (fun a r -> a + f r) 0 (Array.sub t.rows 0 t.len) in
  Json.Obj
    ([
       ("schema", Json.String "distsketch.trace.summary");
       ("version", Json.Int 1);
       ("rounds", Json.Int p.rounds);
       ("messages", Json.Int p.messages);
       ("words", Json.Int p.total_words);
       ( "peaks",
         Json.Obj
           [
             ("delivered", Json.Int p.peak_delivered);
             ("delivered_round", Json.Int p.peak_delivered_round);
             ("active_links", Json.Int p.peak_active_links);
             ("active_links_round", Json.Int p.peak_active_links_round);
             ("in_flight", Json.Int p.peak_in_flight);
             ("in_flight_round", Json.Int p.peak_in_flight_round);
             ("max_link_backlog", Json.Int p.max_link_backlog);
           ] );
       ( "hotspots",
         Json.List
           (List.map
              (fun (u, s, r) ->
                Json.Obj
                  [
                    ("node", Json.Int u);
                    ("sent", Json.Int s);
                    ("received", Json.Int r);
                  ])
              (hotspots ~k:top_k t)) );
     ]
    @
    if timing then
      [
        ( "timing",
          Json.Obj
            [
              ("delivery_ns", Json.Int (total (fun r -> r.delivery_ns)));
              ("compute_ns", Json.Int (total (fun r -> r.compute_ns)));
              ("pool_domains", Json.Int t.pool);
            ] );
      ]
    else [])
