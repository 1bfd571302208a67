module Apsp = Ds_graph.Apsp
module Dist = Ds_graph.Dist
module Stats = Ds_util.Stats

type report = {
  pairs : int;
  violations : int;
  unreachable : int;
  max_stretch : float;
  avg_stretch : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let on_pairs ~query pairs =
  let stretches = ref [] in
  let violations = ref 0 and unreachable = ref 0 and counted = ref 0 in
  Array.iter
    (fun (u, v, d) ->
      if d > 0 && Dist.is_finite d then begin
        incr counted;
        let est = query u v in
        if not (Dist.is_finite est) then incr unreachable
        else begin
          if est < d then incr violations;
          stretches := (float_of_int est /. float_of_int d) :: !stretches
        end
      end)
    pairs;
  match !stretches with
  | [] ->
    {
      pairs = !counted;
      violations = !violations;
      unreachable = !unreachable;
      max_stretch = nan;
      avg_stretch = nan;
      p50 = nan;
      p90 = nan;
      p99 = nan;
    }
  | l ->
    let a = Array.of_list l in
    {
      pairs = !counted;
      violations = !violations;
      unreachable = !unreachable;
      max_stretch = Stats.max_of a;
      avg_stretch = Stats.mean a;
      p50 = Stats.percentile a 50.0;
      p90 = Stats.percentile a 90.0;
      p99 = Stats.percentile a 99.0;
    }

let all_pairs_array apsp =
  let n = Apsp.n apsp in
  let acc = ref [] in
  Apsp.iter_pairs apsp (fun u v d -> acc := (u, v, d) :: !acc);
  ignore n;
  Array.of_list !acc

let all_pairs ~query apsp = on_pairs ~query (all_pairs_array apsp)

(* rank.(u).(v) = number of nodes strictly closer to u than v is. *)
let ranks apsp u =
  let n = Apsp.n apsp in
  let row = Array.init n (fun v -> Apsp.dist apsp u v) in
  let sorted = Array.copy row in
  Array.sort compare sorted;
  (* count of w with d(u,w) < d: binary search for the first index with
     value >= d. *)
  let count_below d =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) < d then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  fun v -> count_below row.(v)

let is_far apsp ~eps u v =
  let rank = ranks apsp u in
  float_of_int (rank v) >= eps *. float_of_int (Apsp.n apsp)

let far_pairs apsp ~eps =
  let n = Apsp.n apsp in
  let threshold = eps *. float_of_int n in
  let acc = ref [] in
  for u = 0 to n - 1 do
    let rank = ranks apsp u in
    for v = 0 to n - 1 do
      if v <> u && float_of_int (rank v) >= threshold then
        acc := (u, v, Apsp.dist apsp u v) :: !acc
    done
  done;
  Array.of_list !acc

let size_summary f sketches =
  Stats.summarize (Array.map (fun s -> float_of_int (f s)) sketches)
