(* The serving subsystem: snapshot store byte-stability and error
   handling, compact-oracle query equivalence against the hashtable
   labels, batch determinism under every pool size, and the synthetic
   workload generators. *)

module Rng = Ds_util.Rng
module Graph = Ds_graph.Graph
module Levels = Ds_core.Levels
module Label = Ds_core.Label
module Tz_centralized = Ds_core.Tz_centralized
module Store = Ds_oracle.Sketch_store
module Oracle = Ds_oracle.Oracle
module Workload = Ds_oracle.Workload
module Pool = Ds_parallel.Pool
module Sketch = Ds_sketch.Sketch
module Family = Ds_sketch.Family
module Sketch_build = Ds_sketch.Build

let labels_for ?(seed = 7) g k =
  let n = Graph.n g in
  let levels = Levels.sample ~rng:(Rng.create seed) ~n ~k in
  Tz_centralized.build g ~levels

let oracle_of labels = Oracle.of_sketch (Sketch.of_tz_labels labels)

let suite_stores () =
  List.map
    (fun (name, g) ->
      ( name,
        g,
        Store.v ~seed:91 ~graph_family:name
          (Sketch.of_tz_labels (labels_for g 3)) ))
    (Helpers.graph_suite 91)

(* ---- snapshot store ---- *)

let test_store_roundtrip_bytes () =
  List.iter
    (fun (name, _, store) ->
      let b1 = Store.to_bytes store in
      let reloaded = Store.of_bytes b1 in
      let b2 = Store.to_bytes reloaded in
      Alcotest.(check bool)
        (Printf.sprintf "%s: save -> load -> save is byte-identical" name)
        true (String.equal b1 b2);
      Alcotest.(check int)
        (Printf.sprintf "%s: meta n" name)
        store.Store.meta.Store.n reloaded.Store.meta.Store.n;
      Alcotest.(check int)
        (Printf.sprintf "%s: meta k" name)
        store.Store.meta.Store.k reloaded.Store.meta.Store.k;
      Alcotest.(check int)
        (Printf.sprintf "%s: meta seed" name)
        store.Store.meta.Store.seed reloaded.Store.meta.Store.seed;
      Alcotest.(check string)
        (Printf.sprintf "%s: meta graph family" name)
        store.Store.meta.Store.graph_family
        reloaded.Store.meta.Store.graph_family;
      Alcotest.(check string)
        (Printf.sprintf "%s: meta sketch family" name)
        (Family.name store.Store.meta.Store.sketch_family)
        (Family.name reloaded.Store.meta.Store.sketch_family);
      Alcotest.(check bool)
        (Printf.sprintf "%s: sketch survives round-trip" name)
        true
        (Sketch.equal store.Store.sketch reloaded.Store.sketch))
    (suite_stores ())

let test_store_file_roundtrip () =
  let _, _, store = List.hd (suite_stores ()) in
  let path = Filename.temp_file "distsketch" ".dsk" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.save path store;
      let reloaded = Store.load path in
      Alcotest.(check bool)
        "file round-trip is byte-identical" true
        (String.equal (Store.to_bytes store) (Store.to_bytes reloaded)))

let mentions msg substring =
  let sl = String.length substring and ml = String.length msg in
  let rec scan i =
    i + sl <= ml && (String.sub msg i sl = substring || scan (i + 1))
  in
  scan 0

let check_store_error ~name ~substring bytes =
  match Store.of_bytes bytes with
  | _ -> Alcotest.failf "%s: expected Sketch_store.Error" name
  | exception Store.Error msg ->
    if not (mentions msg substring) then
      Alcotest.failf "%s: error %S does not mention %S" name msg substring

let test_store_malformed () =
  let _, _, store = List.hd (suite_stores ()) in
  let good = Store.to_bytes store in
  check_store_error ~name:"empty" ~substring:"truncated" "";
  check_store_error ~name:"bad magic" ~substring:"magic"
    ("NOTADSKS" ^ String.sub good 8 (String.length good - 8));
  (let b = Bytes.of_string good in
   Bytes.set_int64_le b 8 99L;
   check_store_error ~name:"wrong version" ~substring:"version"
     (Bytes.to_string b));
  check_store_error ~name:"truncated body" ~substring:"truncated"
    (String.sub good 0 (String.length good - 10));
  check_store_error ~name:"truncated header" ~substring:"truncated"
    (String.sub good 0 20);
  (let b = Bytes.of_string good in
   (* Flip one payload byte in the pivot section: the checksum must
      catch it. *)
   let at = String.length good / 2 in
   Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xff));
   check_store_error ~name:"flipped byte" ~substring:"checksum"
     (Bytes.to_string b));
  (let b = Bytes.of_string good in
   (* Garbage appended: the declared sizes no longer match. *)
   check_store_error ~name:"oversized" ~substring:"oversized"
     (Bytes.to_string b ^ "trailing-garbage"))

let test_store_validation () =
  let g = Helpers.random_graph ~seed:5 20 in
  let labels = labels_for g 2 in
  Alcotest.check_raises "empty label set"
    (Invalid_argument "Sketch.of_tz_labels: empty label set") (fun () ->
      ignore (Sketch.of_tz_labels [||]));
  let swapped = Array.copy labels in
  swapped.(0) <- labels.(1);
  (match Sketch.of_tz_labels swapped with
  | _ -> Alcotest.fail "owner mismatch accepted"
  | exception Invalid_argument _ -> ())

(* Snapshots carry any sketch family: round-trip landmark and bottom-k
   stores the same way the tz suite above does, checking the family
   tag and the sketch payload both survive. *)
let test_store_all_families () =
  let g = Helpers.random_graph ~seed:23 40 in
  List.iter
    (fun family ->
      let built = Sketch_build.run ~family g ~k:3 ~seed:23 in
      let store =
        Store.v ~seed:23 ~graph_family:"random" built.Sketch_build.sketch
      in
      let name = Family.name family in
      let reloaded = Store.of_bytes (Store.to_bytes store) in
      Alcotest.(check string)
        (Printf.sprintf "%s: sketch family survives" name)
        name
        (Family.name reloaded.Store.meta.Store.sketch_family);
      Alcotest.(check string)
        (Printf.sprintf "%s: graph family survives" name)
        "random" reloaded.Store.meta.Store.graph_family;
      Alcotest.(check bool)
        (Printf.sprintf "%s: sketch survives" name)
        true
        (Sketch.equal store.Store.sketch reloaded.Store.sketch);
      Alcotest.(check bool)
        (Printf.sprintf "%s: re-serialization byte-identical" name)
        true
        (String.equal (Store.to_bytes store) (Store.to_bytes reloaded)))
    Family.all

(* ---- mapped snapshots ---- *)

let with_temp_snapshot bytes f =
  let path = Filename.temp_file "distsketch" ".dsk" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      f path)

let check_load_error ~mode ~name ~substring bytes =
  with_temp_snapshot bytes (fun path ->
      match Store.load ~mode path with
      | _ ->
        Alcotest.failf "%s (%s): expected Sketch_store.Error" name
          (Store.mode_name mode)
      | exception Store.Error msg ->
        if not (mentions msg substring) then
          Alcotest.failf "%s (%s): error %S does not mention %S" name
            (Store.mode_name mode) msg substring)

let check_mmap_error = check_load_error ~mode:Store.Mmap

let check_both_loaders ~name ~substring bytes =
  List.iter
    (fun mode -> check_load_error ~mode ~name ~substring bytes)
    [ Store.Heap; Store.Mmap ]

(* Byte offset where [store]'s sections begin: everything between the
   header and the sections is fixed-width, so the header length falls
   out of the file size. *)
let body_offset store =
  let sk = store.Store.sketch in
  let words =
    Sketch.n sk + 1 + (2 * Sketch.pivot_pairs sk)
    + (2 * Sketch.total_entries sk)
  in
  String.length (Store.to_bytes store) - (8 * words) - 8

(* Recompute the header digest (the last header word) and the file
   trailer after patching [b], so the patched file is checksum-valid
   and only the structural checks can reject it. *)
let reseal ~body b =
  let len = Bytes.length b in
  Bytes.set_int64_le b (body - 8)
    (Store.fnv1a64 (Bytes.sub_string b 0 (body - 8)));
  Bytes.set_int64_le b (len - 8)
    (Store.fnv1a64 (Bytes.sub_string b 0 (len - 8)));
  Bytes.to_string b

(* This build reads version 3 only. Older layouts (1, 2) and future
   ones (4) must fail with a structured error from both loaders, even
   when every checksum is valid — never be parsed as v3 or served. *)
let test_store_versions () =
  let _, _, store = List.hd (suite_stores ()) in
  let good = Store.to_bytes store in
  let body = body_offset store in
  List.iter
    (fun ver ->
      let b = Bytes.of_string good in
      Bytes.set_int64_le b 8 (Int64.of_int ver);
      check_both_loaders
        ~name:(Printf.sprintf "version %d" ver)
        ~substring:"unsupported snapshot version" (reseal ~body b))
    [ 1; 2; 4 ]

(* Pivots are what a tz query indexes through and adds up: a finite
   pivot naming node [n] would index outside the sketch, and a
   negative pivot distance would be served as a negative estimate.
   Checksum-valid files with either defect must fail to load in both
   modes. *)
let test_store_bad_pivots () =
  let _, _, store = List.hd (suite_stores ()) in
  let good = Store.to_bytes store in
  let body = body_offset store in
  let n = Sketch.n store.Store.sketch in
  (* Pivot pair 0 is node 0's level-0 pivot: itself, at distance 0. *)
  let pivot0 = body + (8 * (n + 1)) in
  let patch at v =
    let b = Bytes.of_string good in
    Bytes.set_int64_le b at (Int64.of_int v);
    reseal ~body b
  in
  check_both_loaders ~name:"pivot node n" ~substring:"pivot node"
    (patch (pivot0 + 8) n);
  check_both_loaders ~name:"negative pivot distance"
    ~substring:"negative pivot distance" (patch pivot0 (-1000))

(* [save] replaces the file by rename, so a process that has the old
   snapshot mapped keeps serving it unchanged, a fresh load sees the
   new one, and no temp file is left behind — also when the rename
   fails. *)
let test_store_save_over_mapped () =
  let g = Helpers.random_graph ~seed:37 40 in
  let store_a = Store.v (Sketch.of_tz_labels (labels_for ~seed:38 g 3)) in
  let store_b = Store.v (Sketch.of_tz_labels (labels_for ~seed:39 g 2)) in
  let dir = Filename.temp_dir "distsketch" "" in
  let path = Filename.concat dir "snap.dsk" in
  let leftovers () =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> f <> "snap.dsk" && f <> "sub.dsk")
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then Sys.rmdir p else Sys.remove p)
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Store.save path store_a;
      let mapped = Store.load ~mode:Store.Mmap path in
      let before =
        Array.init 40 (fun u ->
            Array.init 40 (fun v -> Oracle.query (Oracle.of_store mapped) u v))
      in
      Store.save path store_b;
      Alcotest.(check bool)
        "mapped snapshot unchanged by save" true
        (Sketch.equal store_a.Store.sketch mapped.Store.sketch);
      for u = 0 to 39 do
        for v = 0 to 39 do
          Alcotest.(check int)
            (Printf.sprintf "mapped query(%d,%d) unchanged" u v)
            before.(u).(v)
            (Oracle.query (Oracle.of_store mapped) u v)
        done
      done;
      List.iter
        (fun mode ->
          let fresh = Store.load ~mode path in
          Alcotest.(check bool)
            (Store.mode_name mode ^ " load sees the new snapshot")
            true
            (Sketch.equal store_b.Store.sketch fresh.Store.sketch))
        [ Store.Heap; Store.Mmap ];
      Alcotest.(check (list string)) "no temp file left" [] (leftovers ());
      (* Renaming a file over a directory fails: the error surfaces
         and the temp file is removed. *)
      let sub = Filename.concat dir "sub.dsk" in
      Sys.mkdir sub 0o755;
      (match Store.save sub store_b with
      | () -> Alcotest.fail "save over a directory succeeded"
      | exception Unix.Unix_error _ -> ());
      Alcotest.(check (list string))
        "no temp file left after a failed save" [] (leftovers ()))

(* The mapped loader must reject every malformed input the heap loader
   rejects — with a structured [Error], never a crash or silent
   garbage — plus the mmap-only failure modes: a file whose length is
   not a word multiple, and pre-v3 layouts that cannot be mapped. *)
let test_store_mmap_malformed () =
  let _, _, store = List.hd (suite_stores ()) in
  let good = Store.to_bytes store in
  let len = String.length good in
  check_mmap_error ~name:"empty" ~substring:"truncated" "";
  check_mmap_error ~name:"tiny" ~substring:"truncated" "DSSKETCH";
  check_mmap_error ~name:"bad magic" ~substring:"magic"
    ("NOTADSKS" ^ String.sub good 8 (len - 8));
  (* Chopping 4 bytes breaks 8-byte alignment before anything else. *)
  check_mmap_error ~name:"misaligned" ~substring:"multiple of 8"
    (String.sub good 0 (len - 4));
  (* Chopping a whole word keeps alignment but breaks the size
     arithmetic. *)
  check_mmap_error ~name:"short one word" ~substring:"truncated"
    (String.sub good 0 (len - 8));
  check_mmap_error ~name:"oversized" ~substring:"oversized"
    (good ^ String.make 8 'x');
  (* A flipped header byte fails the O(1) header checksum. *)
  (let b = Bytes.of_string good in
   Bytes.set_int64_le b 32 0x4242424242424242L;
   check_mmap_error ~name:"header flip" ~substring:"header checksum"
     (Bytes.to_string b));
  (* A corrupted offset table is the one section a mapped query
     indexes through, so [of_mapped] validates it in full. *)
  (let sk = store.Store.sketch in
   let b = Bytes.of_string good in
   Bytes.set_int64_le b (body_offset store + 8)
     (Int64.of_int (Sketch.total_entries sk + 1000));
   check_mmap_error ~name:"corrupt off table" ~substring:"corrupt snapshot"
     (Bytes.to_string b))

(* Property: for every family x graph, the mapped oracle is
   indistinguishable from the heap one — same sketch, byte-identical
   answers on every query path, byte-stable re-serialization — and
   the mapping is visible only through [load_mode]/[mapped_bytes]. *)
let test_store_mmap_matches_heap () =
  let stores =
    List.map (fun (name, g, s) -> ("tz/" ^ name, g, s)) (suite_stores ())
    @ List.concat_map
        (fun (name, g) ->
          List.map
            (fun family ->
              let built = Sketch_build.run ~family g ~k:3 ~seed:53 in
              ( Family.name family ^ "/" ^ name,
                g,
                Store.v ~seed:53 ~graph_family:name built.Sketch_build.sketch
              ))
            Family.all)
        [ ("random", Helpers.random_graph ~seed:53 48) ]
  in
  List.iter
    (fun (name, g, store) ->
      let n = Graph.n g in
      with_temp_snapshot (Store.to_bytes store) (fun path ->
          let heap = Store.load ~mode:Store.Heap path in
          let mapped = Store.load ~mode:Store.Mmap path in
          Alcotest.(check string)
            (name ^ ": load_mode") "mmap"
            (Store.mode_name mapped.Store.load_mode);
          Alcotest.(check string)
            (name ^ ": heap load_mode") "heap"
            (Store.mode_name heap.Store.load_mode);
          Alcotest.(check int)
            (name ^ ": mapped_bytes = file size")
            (String.length (Store.to_bytes store))
            (Store.mapped_bytes mapped);
          Alcotest.(check int)
            (name ^ ": heap maps nothing") 0 (Store.mapped_bytes heap);
          Alcotest.(check bool)
            (name ^ ": sketches equal") true
            (Sketch.equal heap.Store.sketch mapped.Store.sketch);
          Alcotest.(check bool)
            (name ^ ": mmap -> save is byte-stable") true
            (String.equal (Store.to_bytes store) (Store.to_bytes mapped));
          let oh = Oracle.of_store heap and om = Oracle.of_store mapped in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              Alcotest.(check int)
                (Printf.sprintf "%s: query(%d,%d)" name u v)
                (Oracle.query oh u v) (Oracle.query om u v);
              Alcotest.(check int)
                (Printf.sprintf "%s: bidir(%d,%d)" name u v)
                (Oracle.query_bidirectional oh u v)
                (Oracle.query_bidirectional om u v)
            done
          done;
          let flat =
            Workload.pairs_flat ~rng:(Rng.create 54) Workload.Uniform ~n
              ~count:2000
          in
          Pool.with_pool ~domains:2 (fun pool ->
              Alcotest.(check (array int))
                (name ^ ": batch answers identical")
                (Oracle.query_batch_flat ~pool oh flat)
                (Oracle.query_batch_flat ~pool om flat));
          (* Serve fingerprint: the whole serving loop (queues, cache,
             workers) sees no difference either. *)
          let config =
            { Ds_oracle.Serve.default_config with cache_bits = 8 }
          in
          let ah, _ = Ds_oracle.Serve.run ~config oh flat in
          let am, _ = Ds_oracle.Serve.run ~config om flat in
          Alcotest.(check (array int))
            (name ^ ": serve answers identical") ah am))
    stores

(* ---- compact oracle ---- *)

let test_oracle_matches_label_query () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let labels = labels_for ~seed:(100 + k) g k in
          let o = oracle_of labels in
          let n = Graph.n g in
          for u = 0 to n - 1 do
            for v = u to n - 1 do
              Alcotest.(check int)
                (Printf.sprintf "%s k=%d query(%d,%d)" name k u v)
                (Label.query labels.(u) labels.(v))
                (Oracle.query o u v);
              Alcotest.(check int)
                (Printf.sprintf "%s k=%d bidir(%d,%d)" name k u v)
                (Label.query_bidirectional labels.(u) labels.(v))
                (Oracle.query_bidirectional o u v)
            done
          done)
        [ 1; 2; 3 ])
    (Helpers.graph_suite 97)

let test_oracle_from_store_matches () =
  let g = Helpers.random_graph ~seed:31 50 in
  let labels = labels_for ~seed:32 g 3 in
  let o1 = oracle_of labels in
  let o2 =
    Oracle.of_store
      (Store.of_bytes (Store.to_bytes (Store.v (Sketch.of_tz_labels labels))))
  in
  for u = 0 to 49 do
    for v = 0 to 49 do
      Alcotest.(check int)
        (Printf.sprintf "store-loaded oracle query(%d,%d)" u v)
        (Oracle.query o1 u v) (Oracle.query o2 u v)
    done
  done

let test_oracle_bunch_dist () =
  let g = Helpers.random_graph ~seed:41 40 in
  let labels = labels_for ~seed:42 g 3 in
  let o = oracle_of labels in
  for u = 0 to 39 do
    for w = 0 to 39 do
      Alcotest.(check (option int))
        (Printf.sprintf "bunch_dist(%d,%d)" u w)
        (Label.bunch_dist labels.(u) w)
        (Oracle.bunch_dist o u w)
    done
  done

let test_oracle_size_words () =
  let g = Helpers.random_graph ~seed:43 40 in
  let labels = labels_for ~seed:44 g 3 in
  let o = oracle_of labels in
  let total = Array.fold_left (fun a l -> a + Label.size_words l) 0 labels in
  Alcotest.(check int) "oracle size = sum of label sizes" total
    (Oracle.size_words o)

let test_oracle_probes () =
  let g = Helpers.random_graph ~seed:47 40 in
  let labels = labels_for ~seed:48 g 3 in
  let o = oracle_of labels in
  for u = 0 to 39 do
    for v = 0 to 39 do
      let est, probes = Oracle.query_probes o u v in
      Alcotest.(check int)
        (Printf.sprintf "probed estimate (%d,%d)" u v)
        (Oracle.query o u v) est;
      Alcotest.(check bool) "positive probe count" true (probes > 0)
    done
  done

let test_oracle_validation () =
  let g = Helpers.random_graph ~seed:51 20 in
  let labels = labels_for g 2 in
  let o = oracle_of labels in
  (match Oracle.query o 0 20 with
  | _ -> Alcotest.fail "out-of-range query accepted"
  | exception Invalid_argument _ -> ());
  let mixed = Array.copy labels in
  mixed.(3) <- Label.create ~owner:3 ~k:5;
  match oracle_of mixed with
  | _ -> Alcotest.fail "mixed k accepted"
  | exception Invalid_argument _ -> ()

(* ---- batched queries ---- *)

let test_batch_pool_size_independent () =
  let g = Helpers.random_graph ~seed:61 80 in
  let labels = labels_for ~seed:62 g 3 in
  let o = oracle_of labels in
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 63) Workload.Uniform ~n:80 ~count:5000
  in
  let baseline =
    Array.init 5000 (fun i -> Oracle.query o flat.(2 * i) flat.((2 * i) + 1))
  in
  Alcotest.(check (array int))
    "sequential batch = one-by-one" baseline
    (Oracle.query_batch_flat o flat);
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "batch identical on %d domains" domains)
            baseline
            (Oracle.query_batch_flat ~pool o flat)))
    [ 1; 2; 3; 4 ]

let test_run_batch_stats () =
  let g = Helpers.random_graph ~seed:71 60 in
  let labels = labels_for ~seed:72 g 3 in
  let o = oracle_of labels in
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 73)
      (Workload.Zipf { alpha = 1.2 })
      ~n:60 ~count:2000
  in
  let results, stats = Oracle.run_batch_flat o flat in
  Alcotest.(check (array int))
    "run_batch_flat answers = query_batch_flat"
    (Oracle.query_batch_flat o flat)
    results;
  Alcotest.(check int) "stats pairs" 2000 stats.Oracle.pairs;
  Alcotest.(check bool) "positive qps" true (stats.Oracle.qps > 0.0);
  Alcotest.(check bool) "positive latency" true
    (stats.Oracle.latency_ns.Ds_util.Stats.mean > 0.0)

(* ---- workloads ---- *)

let check_pairs ~n flat =
  for i = 0 to (Array.length flat / 2) - 1 do
    let u = flat.(2 * i) and v = flat.((2 * i) + 1) in
    Alcotest.(check bool) "in range, distinct endpoints" true
      (u >= 0 && u < n && v >= 0 && v < n && u <> v)
  done

let endpoint_counts n flat =
  let c = Array.make n 0 in
  Array.iter (fun x -> c.(x) <- c.(x) + 1) flat;
  c

let test_workload_uniform () =
  let n = 50 and count = 4000 in
  let p1 = Workload.pairs_flat ~rng:(Rng.create 81) Workload.Uniform ~n ~count in
  let p2 = Workload.pairs_flat ~rng:(Rng.create 81) Workload.Uniform ~n ~count in
  Alcotest.(check bool) "deterministic in the seed" true (p1 = p2);
  Alcotest.(check int) "count" (2 * count) (Array.length p1);
  check_pairs ~n p1;
  (* Uniform: no endpoint should dominate. Expected 160 per node. *)
  let c = endpoint_counts n p1 in
  Alcotest.(check bool) "no hotspot" true
    (Array.for_all (fun x -> x < 2 * 2 * count / n) c)

let test_workload_zipf () =
  let n = 50 and count = 4000 in
  let kind = Workload.Zipf { alpha = 1.4 } in
  let p1 = Workload.pairs_flat ~rng:(Rng.create 83) kind ~n ~count in
  let p2 = Workload.pairs_flat ~rng:(Rng.create 83) kind ~n ~count in
  Alcotest.(check bool) "deterministic in the seed" true (p1 = p2);
  check_pairs ~n p1;
  let c = endpoint_counts n p1 in
  let hottest = Array.fold_left max 0 c in
  let mean = 2 * count / n in
  Alcotest.(check bool)
    (Printf.sprintf "skewed: hottest %d >= 4x mean %d" hottest mean)
    true
    (hottest >= 4 * mean);
  (* Different seeds shuffle the hot set. *)
  let p3 = Workload.pairs_flat ~rng:(Rng.create 84) kind ~n ~count in
  Alcotest.(check bool) "seed moves the hot set" true (p1 <> p3)

let test_workload_pairs_file () =
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 87) Workload.Uniform ~n:30 ~count:200
  in
  let path = Filename.temp_file "distsketch" ".pairs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.save_pairs path flat;
      Alcotest.(check (array int))
        "save -> load round-trips the flat layout" flat
        (Workload.load_pairs ~n:30 path);
      (* Comments and blank lines are part of the format. *)
      let oc = open_out path in
      output_string oc "# replayed pair set\n\n3 4\n  7   9 \n";
      close_out oc;
      Alcotest.(check (array int))
        "comments, blanks and stray spaces are tolerated" [| 3; 4; 7; 9 |]
        (Workload.load_pairs ~n:30 path);
      (* Out-of-range endpoints and malformed lines fail with context. *)
      let oc = open_out path in
      output_string oc "3 99\n";
      close_out oc;
      (match Workload.load_pairs ~n:30 path with
      | _ -> Alcotest.fail "out-of-range endpoint accepted"
      | exception Failure msg ->
        Alcotest.(check bool) "error names the file" true
          (String.length msg > 0 && String.sub msg 0 (String.length path) = path));
      let oc = open_out path in
      output_string oc "3 4 5\n";
      close_out oc;
      match Workload.load_pairs ~n:30 path with
      | _ -> Alcotest.fail "three-field line accepted"
      | exception Failure _ -> ());
  Alcotest.check_raises "odd-length array rejected"
    (Invalid_argument "Workload.save_pairs: odd-length flat array") (fun () ->
      Workload.save_pairs "/dev/null" [| 1 |])

let test_workload_kind_of_string () =
  Alcotest.(check bool) "uniform parses" true
    (Workload.kind_of_string "uniform" = Ok Workload.Uniform);
  (match Workload.kind_of_string "zipf" with
  | Ok (Workload.Zipf _) -> ()
  | _ -> Alcotest.fail "zipf should parse");
  (match Workload.kind_of_string "zipf:1.5" with
  | Ok (Workload.Zipf { alpha }) ->
    Alcotest.(check (float 1e-9)) "alpha" 1.5 alpha
  | _ -> Alcotest.fail "zipf:1.5 should parse");
  (match Workload.kind_of_string "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad workload should not parse");
  match Workload.kind_of_string "zipf:x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad alpha should not parse"

let suite =
  [
    Alcotest.test_case "store: save->load->save byte-identical" `Quick
      test_store_roundtrip_bytes;
    Alcotest.test_case "store: file round-trip" `Quick
      test_store_file_roundtrip;
    Alcotest.test_case "store: malformed inputs fail loudly" `Quick
      test_store_malformed;
    Alcotest.test_case "store: label-set validation" `Quick
      test_store_validation;
    Alcotest.test_case "store: round-trip, every sketch family" `Quick
      test_store_all_families;
    Alcotest.test_case "store: other versions rejected by both loaders"
      `Quick test_store_versions;
    Alcotest.test_case "store: bad pivots rejected by both loaders" `Quick
      test_store_bad_pivots;
    Alcotest.test_case "store: save never touches a mapped snapshot" `Quick
      test_store_save_over_mapped;
    Alcotest.test_case "store: mapped loader rejects malformed input" `Quick
      test_store_mmap_malformed;
    Alcotest.test_case "store: mmap oracle = heap oracle, all families" `Slow
      test_store_mmap_matches_heap;
    Alcotest.test_case "oracle = Label.query, all families x k" `Slow
      test_oracle_matches_label_query;
    Alcotest.test_case "oracle from snapshot = oracle from labels" `Quick
      test_oracle_from_store_matches;
    Alcotest.test_case "oracle bunch_dist = label bunch_dist" `Quick
      test_oracle_bunch_dist;
    Alcotest.test_case "oracle size accounting" `Quick test_oracle_size_words;
    Alcotest.test_case "probed query agrees, counts work" `Quick
      test_oracle_probes;
    Alcotest.test_case "oracle input validation" `Quick test_oracle_validation;
    Alcotest.test_case "batch answers independent of pool size" `Quick
      test_batch_pool_size_independent;
    Alcotest.test_case "run_batch_flat stats sane" `Quick
      test_run_batch_stats;
    Alcotest.test_case "workload: uniform" `Quick test_workload_uniform;
    Alcotest.test_case "workload: zipf hotspots" `Quick test_workload_zipf;
    Alcotest.test_case "workload: pairs-file round-trip" `Quick
      test_workload_pairs_file;
    Alcotest.test_case "workload: kind parsing" `Quick
      test_workload_kind_of_string;
  ]
