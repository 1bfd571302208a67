(** Slot-indexed delivery, shared by both backends.

    Node [v]'s incoming links own the slot range
    [\[offsets.(v), offsets.(v+1))]: slot [offsets.(v) + i] holds the
    message from [v]'s [i]-th neighbor, stamped with the round it was
    delivered in. A link delivers at most once per round, so a slot is
    written at most once per round and is never cleared: an old stamp
    means empty. Reading a node's stamped slots in slot order gives
    the canonical inbox order (ascending sender neighbor index)
    without a sort. *)

type 'msg t

val create : offsets:int array -> 'msg t
(** [offsets] has length [n + 1] and holds the prefix sums of the
    degrees. The slots share it; they do not copy it. *)

val primed : 'msg t -> bool

val prime : 'msg t -> 'msg -> unit
(** Allocate the payload array, filled with the given message. It is
    allocated late because no value of type ['msg] exists before the
    first message. Call this before the first {!put}, at a point where
    no other domain touches the slots. A no-op once primed. *)

val put : 'msg t -> round:int -> int -> int -> 'msg -> int
(** [put t ~round v s m] stores [m] in slot [s] of node [v], stamped
    [round], and returns how many slots of [v] were stamped before it
    this round (so [0] marks [v]'s first delivery). *)

val count : 'msg t -> int -> int
(** Slots of node [v] stamped since its last {!gather}. *)

val gather : 'msg t -> 'msg Superstep.Inbox.t -> round:int -> int -> unit
(** [gather t inbox ~round v] appends [v]'s slots stamped [round] to
    [inbox] in slot order, and resets [v]'s count. *)

val mem_words : 'msg t -> int
(** Payload, stamp and per-node count words. *)
