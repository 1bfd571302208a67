(* The node-facing superstep types: the [api] a node sees, the
   per-round [Inbox] and the [protocol] record. [Engine] executes
   them; [Slots] fills inboxes without depending on the engine. *)

type 'msg api = {
  id : int;
  degree : int;
  neighbor_id : int -> int;
  neighbor_weight : int -> int;
  send : int -> 'msg -> unit;
  broadcast : 'msg -> unit;
  round : unit -> int;
}

(* Reusable inbox: two parallel growable arrays, filled for one node's
   [on_round] and cleared (not reallocated) after it, so steady-state
   delivery allocates nothing for the backbone. Cleared slots keep
   their last message until overwritten; messages are small words in
   every protocol here, so the retention is harmless. *)
module Inbox = struct
  type 'msg t = {
    mutable froms : int array;
    mutable msgs : 'msg array; (* only the first [len] slots are valid *)
    mutable len : int;
  }

  let create () = { froms = [||]; msgs = [||]; len = 0 }
  let length b = b.len
  let is_empty b = b.len = 0

  let from b i =
    if i < 0 || i >= b.len then invalid_arg "Inbox.from";
    b.froms.(i)

  let msg b i =
    if i < 0 || i >= b.len then invalid_arg "Inbox.msg";
    b.msgs.(i)

  let push b j m =
    if b.len = Array.length b.msgs then begin
      let cap = max 4 (2 * b.len) in
      let froms = Array.make cap 0 and msgs = Array.make cap m in
      Array.blit b.froms 0 froms 0 b.len;
      Array.blit b.msgs 0 msgs 0 b.len;
      b.froms <- froms;
      b.msgs <- msgs
    end;
    b.froms.(b.len) <- j;
    b.msgs.(b.len) <- m;
    b.len <- b.len + 1

  let clear b = b.len <- 0

  let iter f b =
    for i = 0 to b.len - 1 do
      f b.froms.(i) b.msgs.(i)
    done

  let fold f acc b =
    let acc = ref acc in
    for i = 0 to b.len - 1 do
      acc := f !acc b.froms.(i) b.msgs.(i)
    done;
    !acc

  let to_list b = List.init b.len (fun i -> (b.froms.(i), b.msgs.(i)))

  (* Capacity in slots; [msgs] slots count one word each (a pointer or
     an immediate — boxed payloads add their own heap cost on top). *)
  let mem_words b = Array.length b.froms + Array.length b.msgs
end

type ('state, 'msg) protocol = {
  name : string;
  init : 'msg api -> 'state;
  on_round : 'msg api -> 'state -> 'msg Inbox.t -> unit;
  halted : 'state -> bool;
  msg_words : 'msg -> int;
  max_msg_words : int;
}

type stop_reason = Quiescent | All_halted | Round_limit
