module Rng = Ds_util.Rng

type kind = Uniform | Zipf of { alpha : float }

let name = function
  | Uniform -> "uniform"
  | Zipf { alpha } -> Printf.sprintf "zipf(%.2f)" alpha

let kind_of_string s =
  match String.lowercase_ascii s with
  | "uniform" -> Ok Uniform
  | "zipf" -> Ok (Zipf { alpha = 1.2 })
  | s when String.length s > 5 && String.sub s 0 5 = "zipf:" -> (
    match float_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some alpha when alpha > 0.0 -> Ok (Zipf { alpha })
    | _ -> Error (Printf.sprintf "bad zipf alpha in %S" s))
  | other -> Error (Printf.sprintf "unknown workload %S (uniform, zipf[:a])" other)

(* Inverse-CDF sampler over ranks 0..n-1 with weight (r+1)^-alpha, the
   ranks mapped through a seed-dependent permutation so the hot set is
   not always the low node ids. *)
let zipf_sampler ~rng ~n ~alpha =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (float_of_int (r + 1) ** -.alpha);
    cum.(r) <- !acc
  done;
  let total = !acc in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  fun rng ->
    let x = Rng.float rng total in
    (* First rank whose cumulative weight exceeds x. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) > x then hi := mid else lo := mid + 1
    done;
    perm.(!lo)

let draw_of ~rng kind ~n =
  match kind with
  | Uniform -> fun rng -> Rng.int rng n
  | Zipf { alpha } -> zipf_sampler ~rng ~n ~alpha

(* Pair [i] is [(flat.(2i), flat.(2i+1))]: no tuple boxing on the
   serving path. *)
let pairs_flat ~rng kind ~n ~count =
  if n < 2 then invalid_arg "Workload.pairs_flat: need n >= 2";
  if count < 0 then invalid_arg "Workload.pairs_flat: negative count";
  let draw = draw_of ~rng kind ~n in
  let flat = Array.make (max 1 (2 * count)) 0 in
  for i = 0 to count - 1 do
    let u = draw rng in
    let v0 = draw rng in
    (* Skewed draws collide often; resolve collisions with a uniform
       shift instead of a rejection loop, so one pair costs exactly
       two or three draws. *)
    let v = if v0 = u then (u + 1 + Rng.int rng (n - 1)) mod n else v0 in
    flat.(2 * i) <- u;
    flat.((2 * i) + 1) <- v
  done;
  if count = 0 then [||] else flat

(* Explicit pair files: one "u v" line per query, '#' comments and
   blank lines skipped. The escape hatch that lets head-to-head
   stretch comparisons (and CLI reruns) replay the exact same pair
   set instead of trusting seed discipline across processes. *)

let save_pairs path flat =
  if Array.length flat land 1 <> 0 then
    invalid_arg "Workload.save_pairs: odd-length flat array";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to (Array.length flat / 2) - 1 do
        Printf.fprintf oc "%d %d\n" flat.(2 * i) flat.((2 * i) + 1)
      done)

let load_pairs ~n path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let acc = ref [] in
      let count = ref 0 in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let line = String.trim line in
           if line <> "" && line.[0] <> '#' then begin
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | [ us; vs ] -> (
               match (int_of_string_opt us, int_of_string_opt vs) with
               | Some u, Some v when u >= 0 && u < n && v >= 0 && v < n ->
                 acc := v :: u :: !acc;
                 incr count
               | _ ->
                 failwith
                   (Printf.sprintf
                      "%s:%d: bad pair %S (endpoints must be in [0, %d))" path
                      !lineno line n))
             | _ ->
               failwith
                 (Printf.sprintf "%s:%d: expected \"u v\", got %S" path !lineno
                    line)
           end
         done
       with End_of_file -> ());
      let flat = Array.make (max 1 (2 * !count)) 0 in
      List.iteri
        (fun i x -> flat.((2 * !count) - 1 - i) <- x)
        !acc;
      if !count = 0 then [||] else flat)
