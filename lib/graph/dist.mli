(** Integer network distances with a saturating infinity.

    Edge weights are positive integers polynomial in [n] (the paper's
    model), so every finite distance fits comfortably in an [int]. All
    "closest node" comparisons in the library break distance ties by
    node ID, which realises the paper's "assume all distances are
    distinct" convention. *)

val infinity : int
(** Sentinel strictly larger than any real distance. *)

val is_finite : int -> bool

val add : int -> int -> int
(** Saturating addition: [add infinity x = infinity]. *)

val lex_lt : int * int -> int * int -> bool
(** [lex_lt (d1, id1) (d2, id2)] is the strict lexicographic order on
    (distance, node-ID) pairs used for all tie-broken comparisons. *)

val none : int * int
(** [(infinity, max_int)]: greater under {!lex_lt} than any
    (distance, node-ID) pair with a finite distance — "no candidate
    yet". *)
