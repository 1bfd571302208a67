(** Persistent snapshots of a built sketch set, any family.

    The build/serve split: construction (the CONGEST protocols) runs
    once and saves its sketches here; every later serving process
    loads the snapshot and skips reconstruction entirely. The format
    is

    - {b versioned}: an 8-byte magic plus a version word, so a stale
      reader fails loudly instead of misparsing. This build reads and
      writes version 3 only; any other version word raises {!Error};
    - {b checksummed}: the last 8 bytes are an FNV-1a64 digest of
      everything before them, so truncation and bit rot are detected
      on (heap) load; the header carries its own digest so the mmap
      fast path can validate everything it parses eagerly without
      touching the payload pages;
    - {b byte-deterministic}: equal stores serialize to equal bytes —
      entries are written in the {!Ds_sketch.Sketch} canonical order
      (sorted by node id within each owner) and every integer is a
      fixed-width little-endian 64-bit word, so [save] ∘ [load] ∘
      [save] is the identity on bytes (in either load mode) and
      snapshots diff cleanly in CI;
    - {b mappable}: every section starts on an 8-byte boundary
      and the header declares the section extents up front, so
      {!load}[ ~mode:Mmap] serves queries straight out of a
      [Unix.map_file] word window — no copy, O(header + n) start-up,
      the page cache is the working set and is shared across
      processes serving the same snapshot.

    Byte layout (all integers u64 LE):
    {v
    0      magic "DSKETCH1"                  (8 bytes)
    8      version                           (currently 3)
    16     n  — number of nodes
    24     k  — depth / bottom-k parameter / iterations
    32     seed — generation seed (0 if unknown)
    40     sketch_family_len, then that many bytes ("tz",
           "landmark", "bottomk"), zero-padded to an 8-byte boundary
    .      graph_family_len, then that many topology-name bytes,
           zero-padded to an 8-byte boundary
    .      pivot_words — 2·n·k for family tz, 0 otherwise
    .      total — number of (node, dist) entry pairs (= off.(n))
    .      header_fnv — FNV-1a64 of every preceding byte
    .      off: n+1 cumulative entry counts
    .      pivots: per node, k (dist, node) pairs  (pivot_words words)
    .      entries: per node, (node, dist) pairs sorted
           by node id within each owner            (2·total words)
    end-8  FNV-1a64 checksum of all preceding bytes
    v}

    TZ bunch levels are analysis metadata and are not persisted.

    Trust model per mode: [Heap] reads the whole file, verifies the
    trailing checksum and every structural invariant, and copies into
    fresh arrays — bit rot anywhere is detected. [Mmap]
    verifies the header digest, the declared extents against the file
    size (including 8-byte alignment) and the full offset table — so
    a malformed file raises {!Error} and no query can index outside
    the mapping — but serves the pivot/entry payload words as-is
    without checksumming them. *)

type meta = {
  n : int;  (** number of nodes *)
  k : int;  (** depth / bottom-k parameter shared by every sketch *)
  seed : int;  (** generation seed, [0] when unknown *)
  graph_family : string;  (** topology family name, [""] when unknown *)
  sketch_family : Ds_sketch.Family.t;
}

type mode = Heap | Mmap  (** how {!load} materialises the payload *)

type t = private {
  meta : meta;
  sketch : Ds_sketch.Sketch.t;
  load_mode : mode;  (** [Heap] for built/deserialised stores *)
}

exception Error of string
(** Raised by {!of_bytes} / {!load} on malformed input, with a message
    naming what is wrong (bad magic, unsupported version, truncation,
    misalignment, checksum mismatch, corrupt section). Never raised by
    well-formed snapshots produced by {!to_bytes} / {!save}. *)

val v : ?seed:int -> ?graph_family:string -> Ds_sketch.Sketch.t -> t
(** Wrap a built sketch set of any family; [meta] is derived from the
    sketch plus the provenance arguments. *)

val magic : string
(** The 8-byte file magic (["DSKETCH1"]). *)

val version : int
(** The only format version this build reads and writes (3). *)

val mode_name : mode -> string
(** ["heap"] / ["mmap"] — for artifact metadata. *)

val mapped_bytes : t -> int
(** Bytes of snapshot mapped into this process for [t]'s sketch; 0
    for a heap-backed store. *)

val to_bytes : t -> string
(** Serialize to the version-3 layout above. Deterministic: stores
    with {!Ds_sketch.Sketch.equal} sketches and equal meta produce
    identical bytes, whichever backing the sketch has. *)

val of_bytes : string -> t
(** Inverse of {!to_bytes}. Raises {!Error} on malformed input,
    including any version word other than {!version}. Always
    heap-backed. *)

val save : string -> t -> unit
(** [save path t] writes [to_bytes t] to [PATH.tmp.<pid>] in the same
    directory, fsyncs it and renames it over [path]. A reader sees the
    old file or the new one, never a partial write, and a file already
    mapped by {!load}[ ~mode:Mmap] is never modified in place: the
    mapping keeps serving the old snapshot. The temp file is removed
    on failure. Raises [Unix.Unix_error] if the file cannot be
    written. *)

val load : ?mode:mode -> string -> t
(** [load path] reads a snapshot. [~mode:Heap] (default) reads and
    {!of_bytes}. [~mode:Mmap] maps the file and serves the payload
    zero-copy. Raises {!Error} on malformed contents and [Sys_error]
    if the file cannot be read. *)

val fnv1a64 : string -> int64
(** The checksum function (FNV-1a, 64-bit), exposed so tests can pin
    the trailer and CI scripts can fingerprint payloads. *)
