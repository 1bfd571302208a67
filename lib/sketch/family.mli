(** The sketch families the platform can build and serve.

    Every family shares one contract: a distributed build via
    {!Ds_congest.Engine.execute}, the flat-word label
    layout of {!Sketch.t}, a point-to-point estimator, and
    [size_words] in the paper's units. The family tag travels in the
    snapshot header (format v2) and dispatches the estimator at query
    time. *)

type t =
  | Tz  (** Thorup–Zwick pivot/bunch labels — the source paper. *)
  | Landmark
      (** Das Sarma et al. 2010 random landmarks: [r = ⌊log2 n⌋]
          exponentially-sized sets per iteration, [k] iterations. *)
  | Bottomk
      (** Cohen-style rank-ordered bottom-k all-distance sketches. *)

val name : t -> string
(** ["tz"] / ["landmark"] / ["bottomk"] — the CLI's [--sketch] values
    and the snapshot header tag. *)

val of_string : string -> (t, string) result
(** Inverse of {!name} (case-insensitive; accepts alias
    ["bottom-k"]). *)

val all : t list
(** Every family, in sweep order. *)
