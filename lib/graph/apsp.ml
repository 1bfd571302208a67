module Pool = Ds_parallel.Pool

type t = { n : int; rows : int array array }

let compute ?(pool = Pool.sequential) g =
  let n = Graph.n g in
  if n = 0 then { n; rows = [||] }
  else begin
    (* One Dijkstra row per index: each task writes only its own slot,
       and [Dijkstra.sssp g ~src] depends on nothing but [src], so the
       rows are identical under any pool (pinned by a test). *)
    let rows = Array.make n [||] in
    Pool.parallel_for pool ~lo:0 ~hi:n (fun src ->
        rows.(src) <- Dijkstra.sssp g ~src);
    { n; rows }
  end

let dist t u v = t.rows.(u).(v)

let n t = t.n

let iter_pairs t f =
  for u = 0 to t.n - 1 do
    for v = u + 1 to t.n - 1 do
      f u v t.rows.(u).(v)
    done
  done
