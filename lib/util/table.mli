(** Column-aligned ASCII tables for the experiment harness. *)

type t

val create : title:string -> headers:string list -> t
val add_row : t -> string list -> unit
val render : t -> string
val print : t -> unit

val title : t -> string

val headers : t -> string list
(** Column headers, in display order. *)

val rows : t -> string list list
(** Data rows in insertion order (headers excluded). *)

val to_markdown : t -> string
(** GitHub-flavoured pipe table (header, separator, data rows); the
    title is {e not} included — callers place it as a heading. *)

val to_csv : t -> string
(** RFC-4180-ish CSV: header row then data rows; cells containing
    commas or quotes are quoted. *)

val save_csv : t -> dir:string -> string
(** Write the CSV under [dir] (created if missing) using a slug of the
    title as filename; returns the path. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_ratio : float -> string
