module Inbox = Superstep.Inbox

type 'msg t = {
  offsets : int array;
  mutable msg : 'msg array; (* [||] until [prime] *)
  stamp : int array; (* delivery round per slot; rounds start at 1 *)
  count : int array; (* per node: slots stamped since its last gather *)
}

let create ~offsets =
  let n = Array.length offsets - 1 in
  {
    offsets;
    msg = [||];
    stamp = Array.make (max 1 offsets.(n)) 0;
    count = Array.make n 0;
  }

let primed t = Array.length t.msg > 0

let prime t m =
  if not (primed t) then t.msg <- Array.make (Array.length t.stamp) m

let put t ~round v s m =
  t.msg.(s) <- m;
  t.stamp.(s) <- round;
  let k = t.count.(v) in
  t.count.(v) <- k + 1;
  k

let count t v = t.count.(v)

(* Tail recursion over plain ints: a [ref] would allocate per call. *)
let rec collect t inbox base s round left =
  if left > 0 then
    if t.stamp.(s) = round then begin
      Inbox.push inbox (s - base) t.msg.(s);
      collect t inbox base (s + 1) round (left - 1)
    end
    else collect t inbox base (s + 1) round left

let gather t inbox ~round v =
  let k = t.count.(v) in
  if k > 0 then begin
    t.count.(v) <- 0;
    let base = t.offsets.(v) in
    collect t inbox base base round k
  end

let mem_words t =
  Array.length t.msg + Array.length t.stamp + Array.length t.count
