module Ivec = Ds_util.Ivec

type t = {
  n : int;
  m : int;
  idx : int array; (* length n+1; adjacency of u is [idx.(u), idx.(u+1)) *)
  adj : int array; (* neighbor ids, sorted per node *)
  wgt : int array; (* parallel to adj *)
}

let of_edges ~n edge_list =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let seen = Hashtbl.create (2 * List.length edge_list) in
  let check (u, v, w) =
    if u = v then invalid_arg "Graph.of_edges: self-loop";
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if w <= 0 then invalid_arg "Graph.of_edges: weight must be positive";
    let key = (min u v, max u v) in
    if Hashtbl.mem seen key then invalid_arg "Graph.of_edges: duplicate edge";
    Hashtbl.replace seen key ()
  in
  List.iter check edge_list;
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v, _) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edge_list;
  let idx = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    idx.(u + 1) <- idx.(u) + deg.(u)
  done;
  let total = idx.(n) in
  let adj = Array.make total 0 and wgt = Array.make total 0 in
  let cursor = Array.copy idx in
  let place u v w =
    adj.(cursor.(u)) <- v;
    wgt.(cursor.(u)) <- w;
    cursor.(u) <- cursor.(u) + 1
  in
  List.iter
    (fun (u, v, w) ->
      place u v w;
      place v u w)
    edge_list;
  (* Sort each adjacency list by neighbor id for binary search. *)
  for u = 0 to n - 1 do
    let lo = idx.(u) and hi = idx.(u + 1) in
    let pairs = Array.init (hi - lo) (fun i -> (adj.(lo + i), wgt.(lo + i))) in
    Array.sort compare pairs;
    Array.iteri
      (fun i (v, w) ->
        adj.(lo + i) <- v;
        wgt.(lo + i) <- w)
      pairs
  done;
  { n; m = List.length edge_list; idx; adj; wgt }

let n t = t.n
let m t = t.m
let degree t u = t.idx.(u + 1) - t.idx.(u)

let iter_neighbors t u f =
  for i = t.idx.(u) to t.idx.(u + 1) - 1 do
    f t.adj.(i) t.wgt.(i)
  done

let neighbor_at t u i = (t.adj.(t.idx.(u) + i), t.wgt.(t.idx.(u) + i))
let neighbor_node t u i = t.adj.(t.idx.(u) + i)
let neighbor_weight_at t u i = t.wgt.(t.idx.(u) + i)

let neighbor_index t u v =
  (* Binary search in the sorted adjacency slice. *)
  let lo = ref t.idx.(u) and hi = ref (t.idx.(u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.adj.(mid) = v then found := mid
    else if t.adj.(mid) < v then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then raise Not_found else !found - t.idx.(u)

let weight t u v =
  let i = neighbor_index t u v in
  t.wgt.(t.idx.(u) + i)

let has_edge t u v =
  match neighbor_index t u v with _ -> true | exception Not_found -> false

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    iter_neighbors t u (fun v w -> if u < v then acc := (u, v, w) :: !acc)
  done;
  !acc

(* Streaming construction for million-node graphs. [of_edges] goes
   through an edge list and a dedup hashtable — boxed triples, list
   cells and hash cells per edge add up to hundreds of bytes per edge
   at n = 10^6. The builder appends endpoints into three flat int
   vectors and compiles them into CSR in one counting pass; peak
   transient memory is ~5 ints per directed link, and nothing is ever
   O(n^2). Duplicate detection happens for free during the per-node
   adjacency sort (duplicates are adjacent in the sorted slice), so
   no hash set is needed. *)
module Builder = struct
  type t = {
    n : int;
    eu : Ivec.t;
    ev : Ivec.t;
    ew : Ivec.t;
  }

  let create ?(expect_edges = 16) ~n () =
    if n <= 0 then invalid_arg "Graph.Builder.create: n must be positive";
    let capacity = max 16 expect_edges in
    {
      n;
      eu = Ivec.create ~capacity ();
      ev = Ivec.create ~capacity ();
      ew = Ivec.create ~capacity ();
    }

  let edge_count b = Ivec.length b.eu

  let add_edge b u v w =
    if u = v then invalid_arg "Graph.Builder.add_edge: self-loop";
    if u < 0 || u >= b.n || v < 0 || v >= b.n then
      invalid_arg "Graph.Builder.add_edge: endpoint out of range";
    if w <= 0 then invalid_arg "Graph.Builder.add_edge: weight must be positive";
    Ivec.push b.eu u;
    Ivec.push b.ev v;
    Ivec.push b.ew w

  let build ?(on_duplicate = `Reject) b =
    let n = b.n in
    let ne = Ivec.length b.eu in
    let deg = Array.make n 0 in
    for e = 0 to ne - 1 do
      let u = Ivec.get b.eu e and v = Ivec.get b.ev e in
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1
    done;
    let idx = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      idx.(u + 1) <- idx.(u) + deg.(u)
    done;
    let total = idx.(n) in
    let adj = Array.make (max 1 total) 0 and wgt = Array.make (max 1 total) 0 in
    let cursor = Array.copy idx in
    for e = 0 to ne - 1 do
      let u = Ivec.get b.eu e
      and v = Ivec.get b.ev e
      and w = Ivec.get b.ew e in
      adj.(cursor.(u)) <- v;
      wgt.(cursor.(u)) <- w;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      wgt.(cursor.(v)) <- w;
      cursor.(v) <- cursor.(v) + 1
    done;
    (* Sort each adjacency slice by (neighbor, placement order): the
       position in the low bits keeps the sort stable, so of two
       duplicate copies the earlier-added one sorts first — on both
       endpoints' slices, which is what lets [`Keep_first] drop the
       same copy on both sides even when the weights differ. *)
    let maxd = Array.fold_left max 0 deg in
    let keys = Array.make (max 1 maxd) 0 in
    let tmpw = Array.make (max 1 maxd) 0 in
    for u = 0 to n - 1 do
      let lo = idx.(u) in
      let len = idx.(u + 1) - lo in
      if len > 1 then begin
        for i = 0 to len - 1 do
          keys.(i) <- (adj.(lo + i) * len) + i;
          tmpw.(i) <- wgt.(lo + i)
        done;
        let sorted = Array.sub keys 0 len in
        Array.sort compare sorted;
        for j = 0 to len - 1 do
          let k = sorted.(j) in
          adj.(lo + j) <- k / len;
          wgt.(lo + j) <- tmpw.(k mod len)
        done
      end
    done;
    (* Duplicates are now adjacent within each slice. *)
    let has_dup = ref false in
    for u = 0 to n - 1 do
      for i = idx.(u) + 1 to idx.(u + 1) - 1 do
        if adj.(i) = adj.(i - 1) then begin
          if on_duplicate = `Reject then
            invalid_arg
              (Printf.sprintf "Graph.Builder.build: duplicate edge (%d, %d)" u
                 adj.(i));
          has_dup := true
        end
      done
    done;
    if not !has_dup then { n; m = ne; idx; adj; wgt }
    else begin
      (* Compact the kept entries and rebuild the index. *)
      let nidx = Array.make (n + 1) 0 in
      let wp = ref 0 in
      for u = 0 to n - 1 do
        nidx.(u) <- !wp;
        for i = idx.(u) to idx.(u + 1) - 1 do
          if i = idx.(u) || adj.(i) <> adj.(i - 1) then begin
            adj.(!wp) <- adj.(i);
            wgt.(!wp) <- wgt.(i);
            incr wp
          end
        done
      done;
      nidx.(n) <- !wp;
      let total = !wp in
      {
        n;
        m = total / 2;
        idx = nidx;
        adj = Array.sub adj 0 (max 1 total);
        wgt = Array.sub wgt 0 (max 1 total);
      }
    end
end
