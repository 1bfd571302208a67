(** Synthetic query-pair streams for driving the oracle.

    Deterministic in the {!Ds_util.Rng} they are given, so a batch
    benchmark or a CI smoke run can be replayed exactly from a seed.
    Two shapes:

    - {b uniform}: both endpoints uniform over the node set — the
      worst case for caching, every bunch equally hot;
    - {b zipf}: endpoints drawn from a Zipf(α) popularity law over a
      seed-shuffled node permutation — the skewed "hotspot" traffic a
      deployed oracle actually sees, where a few popular nodes
      dominate the stream. The permutation keeps the hot set
      seed-dependent instead of always being the low node ids. *)

type kind =
  | Uniform
  | Zipf of { alpha : float }
      (** [alpha > 0]; 1.0–1.5 is the classic web-traffic range. *)

val kind_of_string : string -> (kind, string) result
(** ["uniform"] / ["zipf"] / ["zipf:<alpha>"]. *)

val name : kind -> string
(** Display name, e.g. ["uniform"] / ["zipf(1.20)"] — what artifacts
    record in their [workload] field. *)

val pairs_flat : rng:Ds_util.Rng.t -> kind -> n:int -> count:int -> int array
(** [pairs_flat ~rng kind ~n ~count] draws [count] query pairs
    [(u, v)] with [0 <= u, v < n] and [u <> v], laid out flat: pair
    [i] is [(flat.(2i), flat.(2i+1))] — the layout
    {!Oracle.query_batch_flat} consumes without boxing. Requires
    [n >= 2] and [count >= 0]. *)

val save_pairs : string -> int array -> unit
(** [save_pairs path flat] writes a flat pair array as one ["u v"]
    line per query — the explicit-workload interchange format behind
    the CLI's [--dump-pairs]. Raises [Invalid_argument] on an
    odd-length array. *)

val load_pairs : n:int -> string -> int array
(** [load_pairs ~n path] reads a pair file back into the flat layout.
    Blank lines and [#] comments are skipped; any other line must be
    two ints in [\[0, n)]. Raises [Failure] with file/line context on
    malformed input, [Sys_error] if unreadable. The escape hatch
    ([--pairs-file]) that replays an identical pair set across
    families and CLI runs. *)
