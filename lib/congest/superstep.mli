(** The node-facing superstep types.

    {!Engine} executes a protocol in synchronous supersteps: in each
    round every node may {i send} one message per incident link, the
    engine {i delivers} last round's messages to their receivers, and
    the {i active set} — last round's senders, this round's receivers,
    or everyone on a probe round — runs [on_round].

    This module owns the types protocols and {!Slots} share, so slot
    delivery does not depend on the engine. Every inbox arrives in the
    canonical order below, which is what pins sketches, metrics and
    round counts byte-identical across pool sizes. *)

type 'msg api = {
  id : int;  (** this node's ID *)
  degree : int;
  neighbor_id : int -> int;  (** neighbor index -> node ID *)
  neighbor_weight : int -> int;  (** neighbor index -> edge weight *)
  send : int -> 'msg -> unit;  (** enqueue a message to a neighbor index *)
  broadcast : 'msg -> unit;  (** enqueue to every neighbor *)
  round : unit -> int;  (** current round number *)
}

(** A node's inbox for one round, as [(neighbor index, message)]
    pairs. Delivery order is canonical: ascending sender neighbor
    index (unique per round, since the wire discipline admits at most
    one message per link per round). The engine delivers each message
    into a slot indexed by its link ({!Slots}) and reads a node's
    slots in slot order, which is this order, so nothing sorts. The
    buffer is shared: one per pool chunk, refilled for each node just
    before its [on_round] and cleared right after. It is therefore
    only valid during the [on_round] call it was passed to; copy out
    anything kept. *)
module Inbox : sig
  type 'msg t

  val create : unit -> 'msg t
  (** An empty inbox; the engine makes one per pool chunk and reuses it. *)

  val length : 'msg t -> int
  (** Deliveries in this round's inbox. *)

  val is_empty : 'msg t -> bool

  val from : 'msg t -> int -> int
  (** Sender's neighbor index of the [i]th delivery. *)

  val msg : 'msg t -> int -> 'msg
  (** Payload of the [i]th delivery. *)

  val iter : (int -> 'msg -> unit) -> 'msg t -> unit
  (** [iter f t] calls [f from msg] per delivery, in canonical order.
      Hot protocol loops prefer indexed {!from}/{!msg} access — the
      callback closure is an allocation per round. *)

  val fold : ('a -> int -> 'msg -> 'a) -> 'a -> 'msg t -> 'a
  val to_list : 'msg t -> (int * 'msg) list

  (** The remaining operations are for the engine, not protocols. *)

  val push : 'msg t -> int -> 'msg -> unit
  (** Append one delivery (engine-side; grows the buffer as needed). *)

  val clear : 'msg t -> unit
  (** Forget the deliveries, keep the capacity. *)

  val mem_words : 'msg t -> int
  (** Backing capacity in words ([msgs] slots count one word each). *)
end

type ('state, 'msg) protocol = {
  name : string;
  init : 'msg api -> 'state;
      (** Round-0 computation; may send. Called once per node. *)
  on_round : 'msg api -> 'state -> 'msg Inbox.t -> unit;
      (** Per-round computation; see the scheduling contract above. *)
  halted : 'state -> bool;
      (** True once the node has locally terminated. *)
  msg_words : 'msg -> int;  (** size accounting, in words *)
  max_msg_words : int;
      (** CONGEST bandwidth cap; sends above it raise. *)
}

type stop_reason = Quiescent | All_halted | Round_limit
(** Why a run ended: no message in flight and none sent ([Quiescent]),
    every node's [halted] predicate true ([All_halted]), or the
    caller's [max_rounds] cap reached ([Round_limit]). *)
