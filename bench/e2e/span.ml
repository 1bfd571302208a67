(* Bench-side spans and the layer ledger.

   Spans are recorded by the benchmark around its own calls into each
   layer (see sut.ml), never inside the library. A span has a name, the
   layer it is charged to, start and end times and the span that was
   open when it started. A layer's self time is the time its spans
   cover minus the time their child spans cover, so the layer rows plus
   the root's own uncovered time (the [residual] row) add up to the
   root span's wall time exactly.

   With recording off, [with_] is one branch around the call, so the
   untraced pipeline and the traced one run the same code. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** -1 for the root *)
  t0 : int;
  mutable t1 : int;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable open_ : int list;  (** ids of the open spans, innermost first *)
  mutable next : int;
}

let create ~enabled = { enabled; spans = []; open_ = []; next = 0 }
let count t = t.next

let with_ t ~layer ~name f =
  if not t.enabled then f ()
  else begin
    let s =
      {
        id = t.next;
        name;
        layer;
        parent = (match t.open_ with p :: _ -> p | [] -> -1);
        t0 = now_ns ();
        t1 = 0;
      }
    in
    t.next <- t.next + 1;
    t.spans <- s :: t.spans;
    t.open_ <- s.id :: t.open_;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now_ns ();
        t.open_ <- List.tl t.open_)
      f
  end

let spans t = List.rev t.spans

(* Per-layer self seconds in first-seen order, then [residual] (the
   root's self time) and the root's wall time. *)
type ledger = { rows : (string * float) list; residual_s : float; wall_s : float }

let ledger t =
  let all = spans t in
  let dur s = s.t1 - s.t0 in
  let covered = Hashtbl.create 64 in
  let covered_ns id = Option.value (Hashtbl.find_opt covered id) ~default:0 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent (covered_ns s.parent + dur s))
    all;
  let self s = float_of_int (dur s - covered_ns s.id) /. 1e9 in
  let rows = ref [] and residual = ref 0. and wall = ref 0. in
  List.iter
    (fun s ->
      if s.parent < 0 then begin
        residual := !residual +. self s;
        wall := !wall +. (float_of_int (dur s) /. 1e9)
      end
      else
        match List.assoc_opt s.layer !rows with
        | Some r -> r := !r +. self s
        | None -> rows := (s.layer, ref (self s)) :: !rows)
    all;
  {
    rows = List.rev_map (fun (l, r) -> (l, !r)) !rows;
    residual_s = !residual;
    wall_s = !wall;
  }

(* Cost of recording one span, measured on a scratch recorder. *)
let cost_per_span_s () =
  let t = create ~enabled:true in
  let reps = 20_000 in
  let t0 = now_ns () in
  with_ t ~layer:"x" ~name:"root" (fun () ->
      for _ = 1 to reps do
        with_ t ~layer:"x" ~name:"x" ignore
      done);
  seconds_since t0 /. float_of_int (reps + 1)

module Json = Sut.Json

let ledger_json ~workload l =
  Json.Obj
    [
      ("workload", Json.String workload);
      ("wall_s", Json.Float l.wall_s);
      ( "rows",
        Json.List
          (List.map
             (fun (layer, s) ->
               Json.Obj [ ("layer", Json.String layer); ("self_s", Json.Float s) ])
             (l.rows @ [ ("residual", l.residual_s) ])) );
    ]

(* Chrome trace-event format: one complete ("X") event per span, on one
   track, parent id in the args. Loads in Perfetto / about:tracing. *)
let chrome t =
  let all = spans t in
  let base = match all with s :: _ -> s.t0 | [] -> 0 in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("cat", Json.String s.layer);
                   ("ph", Json.String "X");
                   ("ts", us (s.t0 - base));
                   ("dur", us (s.t1 - s.t0));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ] );
                 ])
             all) );
    ]
