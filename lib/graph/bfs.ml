let hops g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_neighbors g u (fun v _ ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
  done;
  dist

let eccentricity g ~src =
  let dist = hops g ~src in
  Array.fold_left
    (fun acc d -> if d < max_int && d > acc then d else acc)
    0 dist
