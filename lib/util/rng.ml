type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let mix x = Int64.to_int (mix64 (Int64.of_int x)) land max_int

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }


let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Reject to avoid modulo bias. *)
  let mask = Int64.of_int max_int in
  let rec go () =
    let r = Int64.to_int (Int64.logand (bits64 t) mask) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then go () else v
  in
  go ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t m n =
  if m > n then invalid_arg "Rng.sample_without_replacement: m > n";
  (* Floyd's algorithm. *)
  let chosen = Hashtbl.create (2 * m) in
  for j = n - m to n - 1 do
    let r = int t (j + 1) in
    if Hashtbl.mem chosen r then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen r ()
  done;
  let out = Array.make m 0 in
  let i = ref 0 in
  Hashtbl.iter (fun v () -> out.(!i) <- v; incr i) chosen;
  Array.sort compare out;
  out
