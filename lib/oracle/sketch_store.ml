module Family = Ds_sketch.Family
module Sketch = Ds_sketch.Sketch

type meta = {
  n : int;
  k : int;
  seed : int;
  graph_family : string;
  sketch_family : Family.t;
}

type mode = Heap | Mmap

type t = { meta : meta; sketch : Sketch.t; load_mode : mode }

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let magic = "DSKETCH1"
let version = 3

let mode_name = function Heap -> "heap" | Mmap -> "mmap"

let v ?(seed = 0) ?(graph_family = "") sketch =
  {
    meta =
      {
        n = Sketch.n sketch;
        k = Sketch.k sketch;
        seed;
        graph_family;
        sketch_family = Sketch.family sketch;
      };
    sketch;
    load_mode = Heap;
  }

let mapped_bytes t = Sketch.mapped_bytes t.sketch

(* FNV-1a, 64-bit. *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let pad8 len = (8 - (len land 7)) land 7

let add_padded_string b s =
  Buffer.add_string b s;
  Buffer.add_string b (String.make (pad8 (String.length s)) '\000')

(* Header through the two padded family strings, the pivot-words
   and total fields, then a checksum over the header alone, so the
   mmap loader can validate everything it parses eagerly in O(1)
   without touching the payload pages. After it come the sections in
   canonical order: offsets, interleaved (dist, node) pivot pairs,
   interleaved (node, dist) entry pairs. Backing-independent —
   serialising a mapped store streams the very words it was mapped
   from. *)
let to_bytes t =
  let { n; k; seed; graph_family; sketch_family } = t.meta in
  let b = Buffer.create 4096 in
  let word i = Buffer.add_int64_le b (Int64.of_int i) in
  Buffer.add_string b magic;
  word version;
  word n;
  word k;
  word seed;
  let sf = Family.name sketch_family in
  word (String.length sf);
  add_padded_string b sf;
  word (String.length graph_family);
  add_padded_string b graph_family;
  word (2 * Sketch.pivot_pairs t.sketch);
  word (Sketch.total_entries t.sketch);
  Buffer.add_int64_le b (fnv1a64 (Buffer.contents b));
  Sketch.iter_section_words t.sketch word;
  let payload = Buffer.contents b in
  Buffer.add_int64_le b (fnv1a64 payload);
  Buffer.contents b

(* The heap reader's section pass: the offset table, pivot section
   and entry section that follow the header, starting at byte [body].
   [pivot_words] and [declared_total] are what the header declared;
   the total is cross-checked against the offsets. *)
let read_sections s ~len ~body ~n ~k ~pivot_words ~declared_total
    ~sketch_family =
  let word off = Int64.to_int (String.get_int64_le s off) in
  if len < body + (8 * (n + 1)) then
    error "truncated snapshot: offset table cut short (%d bytes)" len;
  let off = Array.init (n + 1) (fun i -> word (body + (8 * i))) in
  if off.(0) <> 0 then error "corrupt bunch offsets: first is %d" off.(0);
  for i = 0 to n - 1 do
    if off.(i + 1) < off.(i) then
      error "corrupt bunch offsets: not monotone at node %d" i
  done;
  let total = off.(n) in
  if declared_total <> total then
    error "corrupt snapshot: header entry total %d disagrees with offsets %d"
      declared_total total;
  let pivots_at = body + (8 * (n + 1)) in
  let ents_at = pivots_at + (8 * pivot_words) in
  let expected = ents_at + (8 * 2 * total) + 8 in
  if len <> expected then
    error "truncated or oversized snapshot: expected %d bytes, got %d" expected
      len;
  let stored = String.get_int64_le s (len - 8) in
  let computed = fnv1a64 (String.sub s 0 (len - 8)) in
  if stored <> computed then
    error "checksum mismatch: stored %Lx, computed %Lx — corrupt snapshot"
      stored computed;
  let half = pivot_words / 2 in
  let pivot_dist = Array.make half 0 and pivot_node = Array.make half 0 in
  for i = 0 to half - 1 do
    pivot_dist.(i) <- word (pivots_at + (8 * 2 * i));
    pivot_node.(i) <- word (pivots_at + (8 * ((2 * i) + 1)))
  done;
  let ent_node = Array.make total 0 and ent_dist = Array.make total 0 in
  for u = 0 to n - 1 do
    let prev = ref (-1) in
    for j = off.(u) to off.(u + 1) - 1 do
      let at = ents_at + (8 * 2 * j) in
      let w = word at and d = word (at + 8) in
      if w < 0 || w >= n then
        error "corrupt bunch section: node %d out of range at entry %d" w j;
      if w <= !prev then
        error "corrupt bunch section: entries of node %d not sorted" u;
      prev := w;
      ent_node.(j) <- w;
      ent_dist.(j) <- d
    done
  done;
  match
    Sketch.of_arrays ~family:sketch_family ~k ~pivot_dist ~pivot_node ~off
      ~ent_node ~ent_dist
  with
  | sketch -> sketch
  | exception Invalid_argument m -> error "corrupt snapshot: %s" m

(* Header parse over a prefix string [s] of the file ([avail] bytes
   of it). Returns the parsed meta, the declared pivot and entry
   totals and the byte offset where the sections begin, after
   checking the header checksum — everything the mmap loader trusts
   eagerly. *)
type header = {
  h_meta : meta;
  h_pivot_words : int;
  h_total : int;
  h_body : int;
}

let parse_header s ~avail =
  if avail < 16 then error "truncated snapshot: %d bytes, no header" avail;
  if String.sub s 0 8 <> magic then
    error "bad magic %S: not a distsketch snapshot" (String.sub s 0 8);
  let word off = Int64.to_int (String.get_int64_le s off) in
  let ver = word 8 in
  if ver <> version then
    error "unsupported snapshot version %d (this reader reads only %d)" ver
      version;
  if avail < 48 then error "truncated snapshot header: %d bytes" avail;
  let n = word 16 and k = word 24 and seed = word 32 in
  if n < 1 || k < 1 then error "bad snapshot header: n=%d k=%d" n k;
  let read_string at =
    let slen = word at in
    if slen < 0 || slen > avail - at - 8 then
      error "bad snapshot header: family length %d" slen;
    (String.sub s (at + 8) slen, at + 8 + slen + pad8 slen)
  in
  let sf_name, after_sf = read_string 40 in
  let sketch_family =
    match Family.of_string sf_name with
    | Ok f -> f
    | Error _ -> error "unknown sketch family %S in snapshot header" sf_name
  in
  let graph_family, after_gf = read_string after_sf in
  if avail < after_gf + 24 then
    error "truncated snapshot header: %d bytes" avail;
  let pivot_words = word after_gf in
  let want_pivots = if sketch_family = Family.Tz then 2 * n * k else 0 in
  if pivot_words <> want_pivots then
    error "bad snapshot header: pivot section %d words, family %s wants %d"
      pivot_words sf_name want_pivots;
  let total = word (after_gf + 8) in
  if total < 0 then error "bad snapshot header: entry total %d" total;
  let stored = String.get_int64_le s (after_gf + 16) in
  let computed = fnv1a64 (String.sub s 0 (after_gf + 16)) in
  if stored <> computed then
    error
      "header checksum mismatch: stored %Lx, computed %Lx — corrupt snapshot \
       header"
      stored computed;
  {
    h_meta = { n; k; seed; graph_family; sketch_family };
    h_pivot_words = pivot_words;
    h_total = total;
    h_body = after_gf + 24;
  }

let of_bytes s =
  let len = String.length s in
  let h = parse_header s ~avail:len in
  let sketch =
    read_sections s ~len ~body:h.h_body ~n:h.h_meta.n ~k:h.h_meta.k
      ~pivot_words:h.h_pivot_words ~declared_total:h.h_total
      ~sketch_family:h.h_meta.sketch_family
  in
  { meta = h.h_meta; sketch; load_mode = Heap }

(* Write a sibling temp file, flush it to disk, then rename it over
   [path]. The rename swaps the directory entry only: a process that
   has the old file mapped keeps the old inode, untouched, and a
   reader never sees a half-written snapshot. *)
let save path t =
  let bytes = to_bytes t in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o666
  in
  match
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.write_substring fd bytes 0 (String.length bytes));
        Unix.fsync fd);
    Unix.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* Header prefix large enough for any header this writer produces
   (the two family strings are the only variable-length fields). *)
let max_header_bytes = 65536

let load_mmap path =
  let size, prefix =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let size = in_channel_length ic in
        (size, really_input_string ic (min size max_header_bytes)))
  in
  let h = parse_header prefix ~avail:(String.length prefix) in
  if size land 7 <> 0 then
    error "misaligned snapshot: %d bytes is not a multiple of 8 — cannot map"
      size;
  let { n; k; _ } = h.h_meta in
  let expected =
    h.h_body + (8 * (n + 1)) + (8 * h.h_pivot_words) + (8 * 2 * h.h_total) + 8
  in
  if size <> expected then
    error "truncated or oversized snapshot: expected %d bytes, got %d" expected
      size;
  let buf =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match
          Unix.map_file fd Bigarray.int Bigarray.c_layout false [| size / 8 |]
        with
        | ga -> Bigarray.array1_of_genarray ga
        | exception (Unix.Unix_error _ | Sys_error _) ->
          error "cannot map snapshot %s" path)
  in
  let sketch =
    match
      Sketch.of_mapped ~family:h.h_meta.sketch_family ~k ~n ~total:h.h_total
        ~buf ~off_at:(h.h_body / 8)
    with
    | sketch -> sketch
    | exception Invalid_argument m -> error "corrupt snapshot: %s" m
  in
  { meta = h.h_meta; sketch; load_mode = Mmap }

let load ?(mode = Heap) path =
  match mode with
  | Mmap -> load_mmap path
  | Heap ->
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_bytes s
