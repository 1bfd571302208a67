module Dist = Ds_graph.Dist
module Label = Ds_core.Label
module A1 = Bigarray.Array1

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

(* Heap backing: the five flat arrays, exactly the pre-v3 layout. *)
type heap = {
  h_pivot_dist : int array;  (* n·k node-major for Tz, empty otherwise *)
  h_pivot_node : int array;  (* aligned with h_pivot_dist *)
  h_off : int array;  (* n+1 cumulative entry counts *)
  h_ent_node : int array;
  h_ent_dist : int array;
}

(* Mapped backing: one word window over the snapshot file, plus the
   word index of each section. Sections use the on-disk v3 order and
   interleaving: off words at [m_off_at], (dist, node) pivot pairs at
   [m_piv_at], (node, dist) entry pairs at [m_ent_at]. *)
type mapped = { m_buf : buf; m_off_at : int; m_piv_at : int; m_ent_at : int }

type backing = Heap of heap | Mapped of mapped

type t = {
  family : Family.t;
  n : int;
  k : int;
  total : int;  (* off.(n), cached so bounds never re-read the table *)
  backing : backing;
}

let family t = t.family
let n t = t.n
let k t = t.k
let total_entries t = t.total
let pivot_pairs t = if t.family = Family.Tz then t.n * t.k else 0

let mapped_bytes t =
  match t.backing with Heap _ -> 0 | Mapped m -> 8 * A1.dim m.m_buf

let size_words t = (2 * pivot_pairs t) + (2 * t.total)

(* ------------------------------------------------------------------ *)
(* Cold accessors: one backing dispatch per access. Fine for
   serialisation, tests and the probe-counting paths; the estimators
   below never touch these. *)

let off_at t u =
  match t.backing with
  | Heap h -> h.h_off.(u)
  | Mapped m -> A1.get m.m_buf (m.m_off_at + u)

let ent_node_at t j =
  match t.backing with
  | Heap h -> h.h_ent_node.(j)
  | Mapped m -> A1.get m.m_buf (m.m_ent_at + (2 * j))

let ent_dist_at t j =
  match t.backing with
  | Heap h -> h.h_ent_dist.(j)
  | Mapped m -> A1.get m.m_buf (m.m_ent_at + (2 * j) + 1)

let pivot_dist_at t j =
  match t.backing with
  | Heap h -> h.h_pivot_dist.(j)
  | Mapped m -> A1.get m.m_buf (m.m_piv_at + (2 * j))

let pivot_node_at t j =
  match t.backing with
  | Heap h -> h.h_pivot_node.(j)
  | Mapped m -> A1.get m.m_buf (m.m_piv_at + (2 * j) + 1)

let node_size_words t u =
  (2 * (if t.family = Family.Tz then t.k else 0))
  + (2 * (off_at t (u + 1) - off_at t u))

let iter_section_words t f =
  for u = 0 to t.n do
    f (off_at t u)
  done;
  for j = 0 to pivot_pairs t - 1 do
    f (pivot_dist_at t j);
    f (pivot_node_at t j)
  done;
  for j = 0 to t.total - 1 do
    f (ent_node_at t j);
    f (ent_dist_at t j)
  done

(* ------------------------------------------------------------------ *)
(* Construction *)

let check_entry_order ~who ~n ~off ~ent_node ~ent_dist =
  let total = off.(Array.length off - 1) in
  if Array.length ent_node <> total || Array.length ent_dist <> total then
    invalid_arg (Printf.sprintf "%s: entry arrays disagree with offsets" who);
  for u = 0 to Array.length off - 2 do
    if off.(u) > off.(u + 1) then
      invalid_arg (Printf.sprintf "%s: decreasing offsets" who);
    for j = off.(u) to off.(u + 1) - 1 do
      let w = ent_node.(j) in
      if w < 0 || w >= n then
        invalid_arg (Printf.sprintf "%s: entry node %d out of range" who w);
      if j > off.(u) && ent_node.(j - 1) >= w then
        invalid_arg (Printf.sprintf "%s: entries not strictly increasing" who);
      if ent_dist.(j) < 0 then
        invalid_arg (Printf.sprintf "%s: negative entry distance" who)
    done
  done

(* Every finite pivot's node must be a valid index: the query kernels
   binary-search for it with unchecked accesses, and [of_mapped]
   relies on this pass so no mapped query can escape the window. A
   negative distance would be served as a negative estimate. *)
let validate_pivots ~who ~family ~n ~k ~pdist ~pnode =
  if family = Family.Tz then
    for j = 0 to (n * k) - 1 do
      let d = pdist j in
      if d < 0 then
        invalid_arg (Printf.sprintf "%s: negative pivot distance %d" who d);
      if Dist.is_finite d then begin
        let p = pnode j in
        if p < 0 || p >= n then
          invalid_arg (Printf.sprintf "%s: pivot node %d out of range" who p)
      end
    done

let of_heap ~who ~family ~k ~pivot_dist ~pivot_node ~off ~ent_node ~ent_dist =
  let n = Array.length off - 1 in
  validate_pivots ~who ~family ~n ~k
    ~pdist:(Array.get pivot_dist)
    ~pnode:(Array.get pivot_node);
  {
    family;
    n;
    k;
    total = off.(n);
    backing =
      Heap
        {
          h_pivot_dist = pivot_dist;
          h_pivot_node = pivot_node;
          h_off = off;
          h_ent_node = ent_node;
          h_ent_dist = ent_dist;
        };
  }

let of_tz_labels labels =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Sketch.of_tz_labels: empty label set";
  let k = labels.(0).Label.k in
  Array.iteri
    (fun i l ->
      if l.Label.owner <> i then
        invalid_arg
          (Printf.sprintf "Sketch.of_tz_labels: labels.(%d) has owner %d" i
             l.Label.owner);
      if l.Label.k <> k then
        invalid_arg
          (Printf.sprintf
             "Sketch.of_tz_labels: labels.(%d) has k=%d, expected %d" i
             l.Label.k k))
    labels;
  let pivot_dist = Array.make (n * k) Dist.infinity in
  let pivot_node = Array.make (n * k) max_int in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Label.bunch_size labels.(u)
  done;
  let total = off.(n) in
  let ent_node = Array.make total 0 in
  let ent_dist = Array.make total 0 in
  Array.iteri
    (fun u l ->
      Array.iteri
        (fun i (d, p) ->
          pivot_dist.((u * k) + i) <- d;
          pivot_node.((u * k) + i) <- p)
        l.Label.pivots;
      (* bunch_nodes is sorted by node id — the slice stays strictly
         increasing, which is what the merges need. *)
      List.iteri
        (fun j (w, d, _) ->
          ent_node.(off.(u) + j) <- w;
          ent_dist.(off.(u) + j) <- d)
        (Label.bunch_nodes l))
    labels;
  of_heap ~who:"Sketch.of_tz_labels" ~family:Family.Tz ~k ~pivot_dist
    ~pivot_node ~off ~ent_node ~ent_dist

let v ~family ~k entries =
  if family = Family.Tz then
    invalid_arg "Sketch.v: family tz needs pivots, use of_tz_labels";
  let n = Array.length entries in
  if n = 0 then invalid_arg "Sketch.v: empty node set";
  if k < 1 then invalid_arg "Sketch.v: k < 1";
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Array.length entries.(u)
  done;
  let total = off.(n) in
  let ent_node = Array.make total 0 in
  let ent_dist = Array.make total 0 in
  Array.iteri
    (fun u es ->
      Array.iteri
        (fun j (w, d) ->
          ent_node.(off.(u) + j) <- w;
          ent_dist.(off.(u) + j) <- d)
        es)
    entries;
  check_entry_order ~who:"Sketch.v" ~n ~off ~ent_node ~ent_dist;
  of_heap ~who:"Sketch.v" ~family ~k ~pivot_dist:[||] ~pivot_node:[||] ~off
    ~ent_node ~ent_dist

let of_arrays ~family ~k ~pivot_dist ~pivot_node ~off ~ent_node ~ent_dist =
  let who = "Sketch.of_arrays" in
  let n = Array.length off - 1 in
  if n < 1 then invalid_arg (who ^ ": empty offset table");
  if k < 1 then invalid_arg (who ^ ": k < 1");
  if off.(0) <> 0 then invalid_arg (who ^ ": offsets do not start at 0");
  let want_pivots = if family = Family.Tz then n * k else 0 in
  if
    Array.length pivot_dist <> want_pivots
    || Array.length pivot_node <> want_pivots
  then invalid_arg (who ^ ": pivot table has the wrong size for the family");
  check_entry_order ~who ~n ~off ~ent_node ~ent_dist;
  of_heap ~who ~family ~k ~pivot_dist ~pivot_node ~off ~ent_node ~ent_dist

let of_mapped ~family ~k ~n ~total ~buf ~off_at =
  let who = "Sketch.of_mapped" in
  if n < 1 then invalid_arg (who ^ ": empty node set");
  if k < 1 then invalid_arg (who ^ ": k < 1");
  if total < 0 then invalid_arg (who ^ ": negative entry total");
  if off_at < 0 then invalid_arg (who ^ ": negative section offset");
  let pairs = if family = Family.Tz then n * k else 0 in
  let piv_at = off_at + n + 1 in
  let ent_at = piv_at + (2 * pairs) in
  let dim = A1.dim buf in
  if ent_at + (2 * total) > dim then
    invalid_arg (who ^ ": sections overrun the mapped window");
  (* Structural validation of the metadata every query indexes
     through: a hostile offset table is the only way a mapped query
     could escape the window, so it is checked in full. The entry
     payload is served as-is — payload integrity is the heap loader's
     full-file checksum, not the mmap fast path's. *)
  if A1.get buf off_at <> 0 then
    invalid_arg (who ^ ": offsets do not start at 0");
  for u = 0 to n - 1 do
    if A1.get buf (off_at + u) > A1.get buf (off_at + u + 1) then
      invalid_arg (who ^ ": decreasing offsets")
  done;
  if A1.get buf (off_at + n) <> total then
    invalid_arg (who ^ ": offset table disagrees with entry total");
  validate_pivots ~who ~family ~n ~k
    ~pdist:(fun j -> A1.get buf (piv_at + (2 * j)))
    ~pnode:(fun j -> A1.get buf (piv_at + (2 * j) + 1));
  {
    family;
    n;
    k;
    total;
    backing =
      Mapped
        { m_buf = buf; m_off_at = off_at; m_piv_at = piv_at; m_ent_at = ent_at };
  }

(* ------------------------------------------------------------------ *)
(* Cold query paths (generic over the backing). *)

(* Binary search for [w] in the node-[u] slice; [Dist.infinity] when
   absent. Tail recursion over plain ints, not [ref] cursors: a query
   must not touch the minor heap, because every minor collection stops
   all domains and a batch fanned over the pool would serialise on GC
   instead of scaling. *)
let rec find_in t w lo hi =
  if lo >= hi then Dist.infinity
  else begin
    let mid = (lo + hi) / 2 in
    let x = ent_node_at t mid in
    if x = w then ent_dist_at t mid
    else if x < w then find_in t w (mid + 1) hi
    else find_in t w lo mid
  end

let find t u w = find_in t w (off_at t u) (off_at t (u + 1))

let node_entries t u =
  let lo = off_at t u in
  Array.init (off_at t (u + 1) - lo) (fun j ->
      (ent_node_at t (lo + j), ent_dist_at t (lo + j)))

let check_pair t u v name =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg
      (Printf.sprintf "Sketch.%s: pair (%d, %d) out of range [0, %d)" name u v
         t.n)

(* Bidirectional scan visits every level anyway, so the binary-search
   form costs the same asymptotics as a merge and stays one copy for
   both backings. Not a serving path. *)
let rec tz_bidi_from t u v k i best =
  if i >= k then best
  else begin
    let du = pivot_dist_at t ((u * k) + i)
    and pu = pivot_node_at t ((u * k) + i)
    and dv = pivot_dist_at t ((v * k) + i)
    and pv = pivot_node_at t ((v * k) + i) in
    let best =
      if Dist.is_finite du then min best (Dist.add du (find t v pu)) else best
    in
    let best =
      if Dist.is_finite dv then min best (Dist.add dv (find t u pv)) else best
    in
    tz_bidi_from t u v k (i + 1) best
  end

(* Cold merge intersection over the generic accessors — the
   bidirectional (non-serving) entry point for the merge families. *)
let rec common_from_cold t iu hu iv hv best =
  if iu >= hu || iv >= hv then best
  else begin
    let wu = ent_node_at t iu and wv = ent_node_at t iv in
    if wu = wv then
      common_from_cold t (iu + 1) hu (iv + 1) hv
        (min best (Dist.add (ent_dist_at t iu) (ent_dist_at t iv)))
    else if wu < wv then common_from_cold t (iu + 1) hu iv hv best
    else common_from_cold t iu hu (iv + 1) hv best
  end

(* ------------------------------------------------------------------ *)
(* Hot estimators.

   Two textually mirrored copies of each loop, one per backing
   ([*_h] over heap arrays, [*_m] over the mapped word window): a
   functorised or closure-based accessor would compile to an indirect
   call per element load, which is the cost this layout exists to
   avoid. The dispatch happens once per query, in [estimate].

   TZ keeps the level scan with its first-hit exit and gets tuned
   membership probes (unchecked loads, shift midpoints, hoisted
   arrays). A full merge of each node's sorted pivots against the
   other's entry slice was tried and measured ~30% slower end to end:
   it touches all k pivots in both directions on every query, while
   the scan stops at the first populated level — usually after two
   probes at the k this sketch runs at. The common-entry families
   have no early exit to lose, so their estimator IS the merge:
   linear for balanced slices, galloping through the long side when
   the slices are skewed. All loops carry state in the argument
   list — no tuple return, no ref cell, zero minor words per
   query. *)

(* Every helper pins its array parameters to [int array] (and the
   mapped mirrors to [buf]): without the annotation the element type
   generalizes to ['a], and each [=]/[<] in the loop compiles to a
   [caml_compare] C call plus a float-array tag check per element —
   a ~2x slowdown measured end to end. The record-field accesses the
   old kernels used got [int] for free; parameter passing does not. *)

(* First index in [lo, hi) with [en.(i) >= w]; [hi] if none. *)
let rec lower_h (en : int array) (w : int) lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get en mid < w then lower_h en w (mid + 1) hi
    else lower_h en w lo mid
  end

(* Galloping variant; precondition [en.(lo) < w]. Exponential probe,
   then binary inside the bracketed run — O(log gap) per advance. *)
let rec gallop_h (en : int array) (w : int) lo hi step =
  let p = lo + step in
  if p < hi && Array.unsafe_get en p < w then gallop_h en w p hi (step lsl 1)
  else lower_h en w (lo + 1) (min p hi)

(* Exact-membership probe: distance of [w] in the sorted slice
   [lo, hi), [Dist.infinity] when absent. *)
let rec probe_h (en : int array) (ed : int array) (w : int) lo hi =
  if lo >= hi then Dist.infinity
  else begin
    let mid = (lo + hi) lsr 1 in
    let x = Array.unsafe_get en mid in
    if x = w then Array.unsafe_get ed mid
    else if x < w then probe_h en ed w (mid + 1) hi
    else probe_h en ed w lo mid
  end

(* Level scan: at each level take the best of the two directions
   (u's pivot against B(v), v's against B(u)) and stop at the first
   level where either is finite — the classic TZ walk. *)
let rec tz_scan_h (pd : int array) (pn : int array) (off : int array)
    (en : int array) (ed : int array) k u v i =
  if i >= k then Dist.infinity
  else begin
    let du = Array.unsafe_get pd ((u * k) + i)
    and pu = Array.unsafe_get pn ((u * k) + i)
    and dv = Array.unsafe_get pd ((v * k) + i)
    and pv = Array.unsafe_get pn ((v * k) + i) in
    let via_pu =
      if du < Dist.infinity then
        Dist.add du
          (probe_h en ed pu
             (Array.unsafe_get off v)
             (Array.unsafe_get off (v + 1)))
      else Dist.infinity
    in
    let via_pv =
      if dv < Dist.infinity then
        Dist.add dv
          (probe_h en ed pv
             (Array.unsafe_get off u)
             (Array.unsafe_get off (u + 1)))
      else Dist.infinity
    in
    let est = if via_pu < via_pv then via_pu else via_pv in
    if est < Dist.infinity then est else tz_scan_h pd pn off en ed k u v (i + 1)
  end

(* Balanced slices: plain linear merge, branch-predictable advances,
   conditional-move min on a match. *)
let rec common_lin_h (en : int array) (ed : int array) iu hu iv hv best =
  if iu >= hu || iv >= hv then best
  else begin
    let wu = Array.unsafe_get en iu and wv = Array.unsafe_get en iv in
    if wu = wv then begin
      let s = Dist.add (Array.unsafe_get ed iu) (Array.unsafe_get ed iv) in
      common_lin_h en ed (iu + 1) hu (iv + 1) hv (if s < best then s else best)
    end
    else if wu < wv then common_lin_h en ed (iu + 1) hu iv hv best
    else common_lin_h en ed iu hu (iv + 1) hv best
  end

(* Skewed slices: iterate the short side, gallop through the long
   one — O(short · log(long/short)) instead of O(long). *)
let rec common_gal_h (en : int array) (ed : int array) is hs il hl best =
  if is >= hs || il >= hl then best
  else begin
    let ws = Array.unsafe_get en is in
    let e = Array.unsafe_get en il in
    if e < ws then common_gal_h en ed is hs (gallop_h en ws il hl 1) hl best
    else if e > ws then common_gal_h en ed (is + 1) hs il hl best
    else begin
      let s = Dist.add (Array.unsafe_get ed is) (Array.unsafe_get ed il) in
      common_gal_h en ed (is + 1) hs (il + 1) hl (if s < best then s else best)
    end
  end

let common_h (en : int array) (ed : int array) iu hu iv hv =
  let lu = hu - iu and lv = hv - iv in
  if lu > lv lsl 3 then common_gal_h en ed iv hv iu hu Dist.infinity
  else if lv > lu lsl 3 then common_gal_h en ed iu hu iv hv Dist.infinity
  else common_lin_h en ed iu hu iv hv Dist.infinity

(* --- Mapped mirrors: entry cursor stays in pair-index space, each
   load resolves to [base + 2·i (+ 1)] inside the window; bounds were
   proven once at [of_mapped]. --- *)

let rec lower_m (bf : buf) eat (w : int) lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) lsr 1 in
    if A1.unsafe_get bf (eat + (mid lsl 1)) < w then lower_m bf eat w (mid + 1) hi
    else lower_m bf eat w lo mid
  end

let rec gallop_m (bf : buf) eat (w : int) lo hi step =
  let p = lo + step in
  if p < hi && A1.unsafe_get bf (eat + (p lsl 1)) < w then
    gallop_m bf eat w p hi (step lsl 1)
  else lower_m bf eat w (lo + 1) (min p hi)

let rec probe_m (bf : buf) eat (w : int) lo hi =
  if lo >= hi then Dist.infinity
  else begin
    let mid = (lo + hi) lsr 1 in
    let x = A1.unsafe_get bf (eat + (mid lsl 1)) in
    if x = w then A1.unsafe_get bf (eat + (mid lsl 1) + 1)
    else if x < w then probe_m bf eat w (mid + 1) hi
    else probe_m bf eat w lo mid
  end

let rec tz_scan_m (bf : buf) oat pat eat k u v i =
  if i >= k then Dist.infinity
  else begin
    let bu = pat + (((u * k) + i) lsl 1)
    and bv = pat + (((v * k) + i) lsl 1) in
    let du = A1.unsafe_get bf bu
    and pu = A1.unsafe_get bf (bu + 1)
    and dv = A1.unsafe_get bf bv
    and pv = A1.unsafe_get bf (bv + 1) in
    let via_pu =
      if du < Dist.infinity then
        Dist.add du
          (probe_m bf eat pu
             (A1.unsafe_get bf (oat + v))
             (A1.unsafe_get bf (oat + v + 1)))
      else Dist.infinity
    in
    let via_pv =
      if dv < Dist.infinity then
        Dist.add dv
          (probe_m bf eat pv
             (A1.unsafe_get bf (oat + u))
             (A1.unsafe_get bf (oat + u + 1)))
      else Dist.infinity
    in
    let est = if via_pu < via_pv then via_pu else via_pv in
    if est < Dist.infinity then est else tz_scan_m bf oat pat eat k u v (i + 1)
  end

let rec common_lin_m (bf : buf) eat iu hu iv hv best =
  if iu >= hu || iv >= hv then best
  else begin
    let wu = A1.unsafe_get bf (eat + (iu lsl 1))
    and wv = A1.unsafe_get bf (eat + (iv lsl 1)) in
    if wu = wv then begin
      let s =
        Dist.add
          (A1.unsafe_get bf (eat + (iu lsl 1) + 1))
          (A1.unsafe_get bf (eat + (iv lsl 1) + 1))
      in
      common_lin_m bf eat (iu + 1) hu (iv + 1) hv (if s < best then s else best)
    end
    else if wu < wv then common_lin_m bf eat (iu + 1) hu iv hv best
    else common_lin_m bf eat iu hu (iv + 1) hv best
  end

let rec common_gal_m (bf : buf) eat is hs il hl best =
  if is >= hs || il >= hl then best
  else begin
    let ws = A1.unsafe_get bf (eat + (is lsl 1)) in
    let e = A1.unsafe_get bf (eat + (il lsl 1)) in
    if e < ws then common_gal_m bf eat is hs (gallop_m bf eat ws il hl 1) hl best
    else if e > ws then common_gal_m bf eat (is + 1) hs il hl best
    else begin
      let s =
        Dist.add
          (A1.unsafe_get bf (eat + (is lsl 1) + 1))
          (A1.unsafe_get bf (eat + (il lsl 1) + 1))
      in
      common_gal_m bf eat (is + 1) hs (il + 1) hl (if s < best then s else best)
    end
  end

let common_m (bf : buf) eat iu hu iv hv =
  let lu = hu - iu and lv = hv - iv in
  if lu > lv lsl 3 then common_gal_m bf eat iv hv iu hu Dist.infinity
  else if lv > lu lsl 3 then common_gal_m bf eat iu hu iv hv Dist.infinity
  else common_lin_m bf eat iu hu iv hv Dist.infinity

let estimate t u v =
  check_pair t u v "estimate";
  match (t.family, t.backing) with
  | Family.Tz, Heap h ->
    tz_scan_h h.h_pivot_dist h.h_pivot_node h.h_off h.h_ent_node h.h_ent_dist
      t.k u v 0
  | Family.Tz, Mapped m ->
    tz_scan_m m.m_buf m.m_off_at m.m_piv_at m.m_ent_at t.k u v 0
  | (Family.Landmark | Family.Bottomk), Heap h ->
    (* [u = v] short-circuits to 0: a landmark sketch holds landmark
       distances only, so the merge would report [2·d(u, nearest
       landmark)] for a node asked about itself. *)
    if u = v then 0
    else
      common_h h.h_ent_node h.h_ent_dist
        (Array.unsafe_get h.h_off u)
        (Array.unsafe_get h.h_off (u + 1))
        (Array.unsafe_get h.h_off v)
        (Array.unsafe_get h.h_off (v + 1))
  | (Family.Landmark | Family.Bottomk), Mapped m ->
    if u = v then 0
    else
      common_m m.m_buf m.m_ent_at
        (A1.unsafe_get m.m_buf (m.m_off_at + u))
        (A1.unsafe_get m.m_buf (m.m_off_at + u + 1))
        (A1.unsafe_get m.m_buf (m.m_off_at + v))
        (A1.unsafe_get m.m_buf (m.m_off_at + v + 1))

let estimate_bidirectional t u v =
  check_pair t u v "estimate_bidirectional";
  match t.family with
  | Family.Tz -> tz_bidi_from t u v t.k 0 Dist.infinity
  | Family.Landmark | Family.Bottomk ->
    if u = v then 0
    else
      common_from_cold t (off_at t u)
        (off_at t (u + 1))
        (off_at t v)
        (off_at t (v + 1))
        Dist.infinity

(* ------------------------------------------------------------------ *)
(* Probe-counting twins: kept on the original binary-search /
   linear-merge scans so E8's deterministic work measure is
   byte-stable across the kernel overhaul. The estimates agree with
   [estimate] (the merge kernels are answer-identical by
   construction; the randomized suites pin it). Cold path — generic
   accessors and refs are fine here. *)

let find_probed t u w probes =
  let lo = ref (off_at t u) and hi = ref (off_at t (u + 1)) in
  let res = ref Dist.infinity in
  while !lo < !hi do
    incr probes;
    let mid = (!lo + !hi) / 2 in
    let x = ent_node_at t mid in
    if x = w then begin
      res := ent_dist_at t mid;
      lo := !hi
    end
    else if x < w then lo := mid + 1
    else hi := mid
  done;
  !res

let tz_probes t u v =
  let k = t.k in
  let probes = ref 0 in
  let rec go i =
    if i >= k then Dist.infinity
    else begin
      (* Two pivot-pair loads per level. *)
      probes := !probes + 2;
      let du = pivot_dist_at t ((u * k) + i)
      and pu = pivot_node_at t ((u * k) + i)
      and dv = pivot_dist_at t ((v * k) + i)
      and pv = pivot_node_at t ((v * k) + i) in
      let via_pu =
        if Dist.is_finite du then Dist.add du (find_probed t v pu probes)
        else Dist.infinity
      in
      let via_pv =
        if Dist.is_finite dv then Dist.add dv (find_probed t u pv probes)
        else Dist.infinity
      in
      let est = min via_pu via_pv in
      if Dist.is_finite est then est else go (i + 1)
    end
  in
  let est = go 0 in
  (est, !probes)

let common_probes t u v =
  if u = v then (0, 0)
  else begin
    let iu = ref (off_at t u) and iv = ref (off_at t v) in
    let hu = off_at t (u + 1) and hv = off_at t (v + 1) in
    let best = ref Dist.infinity and probes = ref 0 in
    while !iu < hu && !iv < hv do
      incr probes;
      let wu = ent_node_at t !iu and wv = ent_node_at t !iv in
      if wu = wv then begin
        best := min !best (Dist.add (ent_dist_at t !iu) (ent_dist_at t !iv));
        incr iu;
        incr iv
      end
      else if wu < wv then incr iu
      else incr iv
    done;
    (!best, !probes)
  end

let estimate_probes t u v =
  check_pair t u v "estimate_probes";
  match t.family with
  | Family.Tz -> tz_probes t u v
  | Family.Landmark | Family.Bottomk -> common_probes t u v

let equal a b =
  a.family = b.family && a.n = b.n && a.k = b.k && a.total = b.total
  &&
  let ok = ref true in
  for j = 0 to pivot_pairs a - 1 do
    if pivot_dist_at a j <> pivot_dist_at b j then ok := false;
    if pivot_node_at a j <> pivot_node_at b j then ok := false
  done;
  for u = 0 to a.n do
    if off_at a u <> off_at b u then ok := false
  done;
  for j = 0 to a.total - 1 do
    if ent_node_at a j <> ent_node_at b j then ok := false;
    if ent_dist_at a j <> ent_dist_at b j then ok := false
  done;
  !ok
