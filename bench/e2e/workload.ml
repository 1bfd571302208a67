(* The four workloads. Each one stresses a different layer and, for
   each layer, another workload bypasses it, so a change to that layer
   has a predicted "no change" somewhere (see README.md). *)

type t = {
  name : string;
  family : Sut.family;
  n : int;
  builds : int;  (** build repetitions; build_s is their median *)
  mode : Sut.mode;  (** how the serving process loads the snapshot *)
  pairs : Sut.pair_kind;
  cache_bits : int;  (** 0 = cache off *)
}

let all =
  [
    (* The builds are about 60 % of the wall time, and the 40 MB heap
       load makes setup_s a test of the checksum-and-copy path. *)
    {
      name = "tz-build-40k";
      family = Sut.Tz;
      n = 40_000;
      builds = 3;
      mode = Sut.Heap;
      pairs = Sut.Uniform;
      cache_bits = 0;
    };
    (* The hot-pair cache answers about a third of the requests and the
       loop's own cost is a large share of each answer; mmap makes
       setup_s near free. *)
    {
      name = "tz-zipf-mmap";
      family = Sut.Tz;
      n = 10_000;
      builds = 5;
      mode = Sut.Mmap;
      pairs = Sut.Zipf 1.2;
      cache_bits = 12;
    };
    (* The slowest kernel receives every request: heap-kernel changes
       show here, cache changes are predicted not to. *)
    {
      name = "landmark-uniform-heap";
      family = Sut.Landmark;
      n = 10_000;
      builds = 5;
      mode = Sut.Heap;
      pairs = Sut.Uniform;
      cache_bits = 0;
    };
    (* The pure mmap-kernel path on the smallest sketch; with the
       landmark workload it catches a heap/mmap change that speeds one
       load mode at the other's cost. *)
    {
      name = "bottomk-uniform-mmap";
      family = Sut.Bottomk;
      n = 10_000;
      builds = 5;
      mode = Sut.Mmap;
      pairs = Sut.Uniform;
      cache_bits = 0;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Shared parameters. The protocol's own coin flips use a fixed seed,
   so --seed varies the input (graph, query stream, check nodes) and
   not the algorithm's luck: with the TZ hierarchy drawn from --seed,
   the top level's size alone moves messages by 13 % between seeds. *)
let avg_degree = 6.0
let k = 4
let protocol_seed = 1
let stream_pairs = 1 lsl 19
let open_rate = 1e6
let check_nodes = 32
let setup_tries = 9

(* A serve round is [closed_per_round] closed-loop runs, one batch-kernel
   pass in each load mode and one open-loop run; rounds repeat until
   --seconds have passed, at least [min_serve_rounds] times. Each run is
   short (0.1-0.5 s), so the medians ride out the slowdowns of a few
   seconds that a shared host shows. *)
let closed_per_round = 2
let min_serve_rounds = 5

(* Alternating (reference, variant) serve pairs behind the traced run's
   pool and obs ratios. *)
let probe_pairs = 5

(* The dune smoke test: every workload at toy size. *)
let smoke_n = 512
let smoke_pairs = 20_000
