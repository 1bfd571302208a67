(* e2e.exe --compare A B: the regression gate.

   A and B are files of result lines as the all-workloads mode prints
   them (one JSON object per workload and run, with "workload"). Per
   workload and metric it prints each side's median and quartiles, the
   change, and a verdict against the metric's bound in BENCHMARK.json:

   - ok         within the bound;
   - regressed  the median worsened by more than the bound;
   - unresolved the run-to-run spread (quartile distance over median)
                of either side is wider than the bound, and B does not
                beat A on every run.

   Per-layer metrics have no bound and are printed for reading. *)

module Json = Sut.Json

(* Python's statistics.quantiles(xs, n=4), default (exclusive) method,
   the definition BENCHMARK.json's bounds were measured with. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let len = Array.length a in
  if len < 2 then (a.(0), a.(0))
  else
    let q i =
      let m = len + 1 in
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

type spec = { better_lower : bool; bound : float option }

let read path = In_channel.with_open_bin path In_channel.input_all

let parse_json what s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let member k j =
  match Json.member k j with Some v -> v | None -> failwith ("missing key " ^ k)

let to_float = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> failwith "not a number"

let to_string = function Json.String s -> s | _ -> failwith "not a string"
let to_list = function Json.List l -> l | _ -> failwith "not a list"

(* BENCHMARK.json: (name, bound) for the end-to-end metrics, then the
   per-layer ones. *)
let metric_specs path =
  let j = parse_json path (read path) in
  let spec ~gated m =
    ( to_string (member "name" m),
      {
        better_lower = to_string (member "better" m) = "lower";
        bound = (if gated then Some (to_float (member "bound" m)) else None);
      } )
  in
  ( List.map (spec ~gated:true) (to_list (member "end_to_end" j)),
    List.map (spec ~gated:false) (to_list (member "per_layer" j)) )

(* The workloads in file order, and each one's result lines. *)
let load path =
  let runs = Hashtbl.create 8 and order = ref [] in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        let j = parse_json (Printf.sprintf "%s:%d" path (i + 1)) line in
        match Json.member "workload" j with
        | None -> ()
        | Some w ->
          let w = to_string w in
          if not (Hashtbl.mem runs w) then order := w :: !order;
          let prev = Option.value (Hashtbl.find_opt runs w) ~default:[] in
          Hashtbl.replace runs w (j :: prev)
      end)
    (String.split_on_char '\n' (read path));
  (List.rev !order, runs)

let values runs name =
  List.filter_map
    (fun j ->
      match Json.member "metrics" j with
      | Some ms ->
        Option.map (fun m -> to_float (member "value" m)) (Json.member name ms)
      | None -> None)
    runs

let verdict spec a b =
  let med_a = Pipeline.median a and med_b = Pipeline.median b in
  let worse = (if spec.better_lower then med_b -. med_a else med_a -. med_b) /. med_a in
  let spread xs =
    let q1, q3 = quartiles xs in
    (q3 -. q1) /. Pipeline.median xs
  in
  match spec.bound with
  | None -> "-"
  | Some bound ->
    let beats x y = if spec.better_lower then x < y else x > y in
    let b_beats_all = List.for_all (fun y -> List.for_all (beats y) a) b in
    if Float.max (spread a) (spread b) > bound then
      if b_beats_all then "ok" else "unresolved"
    else if worse > bound then "regressed"
    else "ok"

let run ~benchmark a_path b_path =
  let e2e, layers = metric_specs benchmark in
  let order, a_runs = load a_path in
  let _, b_runs = load b_path in
  let bad = ref 0 in
  Printf.printf "%-22s %-30s %-40s %-40s %9s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "delta" "verdict";
  List.iter
    (fun w ->
      match Hashtbl.find_opt b_runs w with
      | None -> Printf.printf "%-22s missing from %s\n" w b_path
      | Some b ->
        let a = Hashtbl.find a_runs w in
        List.iter
          (fun (side, runs) ->
            let ok j = member "correct" j = Json.Bool true in
            if not (List.for_all ok runs) then begin
              incr bad;
              Printf.printf "%-22s %s has incorrect runs\n" w side
            end)
          [ ("A", a); ("B", b) ];
        List.iter
          (fun (name, spec) ->
            match (values a name, values b name) with
            | [], _ | _, [] -> ()
            | va, vb ->
              let show xs =
                let q1, q3 = quartiles xs in
                Printf.sprintf "%.6g [%.6g, %.6g]" (Pipeline.median xs) q1 q3
              in
              let ma = Pipeline.median va in
              let v = verdict spec va vb in
              if v = "regressed" then incr bad;
              Printf.printf "%-22s %-30s %-40s %-40s %+8.2f%%  %s\n" w name (show va)
                (show vb)
                (100. *. (Pipeline.median vb -. ma) /. ma)
                v)
          (e2e @ layers))
    order;
  if !bad > 0 then begin
    Printf.printf "%d regression(s) or incorrect workload(s)\n" !bad;
    1
  end
  else 0
