type split = { src_bits : int; dist_bits : int }

let split ?(tag_bits = 0) n =
  let rec bits b = if 1 lsl b >= n then b else bits (b + 1) in
  let src_bits = bits 0 in
  (* 62 value bits sit above the sign bit of a non-negative int. *)
  let dist_bits = 62 - tag_bits - src_bits in
  if tag_bits < 0 || dist_bits < 1 then invalid_arg "Wire.split: no bits left";
  { src_bits; dist_bits }

(* For [dist_bits = 62], [1 lsl 62] is [min_int], so this is [max_int]. *)
let max_dist s = (1 lsl s.dist_bits) - 1

(* One test covers both fields, since a negative value has high bits set. *)
let pack s ~src ~dist =
  if (dist lsr s.dist_bits) lor (src lsr s.src_bits) <> 0 then
    invalid_arg "Wire.pack: source or distance out of range";
  (dist lsl s.src_bits) lor src

let src s w = w land ((1 lsl s.src_bits) - 1)
let dist s w = w lsr s.src_bits
