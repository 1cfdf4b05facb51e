(* Tests for the certification service layer (lib/service): graph I/O
   round-trips and strict error reporting, manifest parsing, the FNV-1a
   hash, certificate bundles, the content-addressed LRU store (memory
   and disk tiers), and the cold/warm behavior of the batch engine.

   Runs as its own executable so `dune build @service` exercises just
   this suite; it is also part of the default runtest alias. *)

module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module Bitenc = Lcp_util.Bitenc
module Hash64 = Lcp_util.Hash64
module Io = Lcp_service.Graph_io
module Manifest = Lcp_service.Manifest
module Bundle = Lcp_service.Bundle
module Store = Lcp_service.Cert_store
module Engine = Lcp_service.Engine
module Stats = Lcp_service.Stats
module EM = Lcp_pls.Scheme.Edge_map

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
  go 0

(* A random simple graph that, unlike the bounded-pathwidth generator,
   routinely has isolated vertices and may be the empty graph: the
   round-trip properties must hold for those too. *)
let arb_any_graph =
  let open QCheck in
  let gen st =
    let n = Random.State.int st 26 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.int st 100 < 15 then edges := (u, v) :: !edges
      done
    done;
    G.of_edges ~n !edges
  in
  make ~print:G.to_string gen

let roundtrips fmt g =
  match Io.parse fmt (Io.print fmt g) with
  | Ok h -> G.equal g h
  | Error _ -> false

(* ---------------------------------------------------------------- *)
(* graph I/O                                                         *)

let prop_roundtrip fmt =
  qcheck ~count:200
    (Printf.sprintf "%s: parse (print g) = g" (Io.format_name fmt))
    arb_any_graph (roundtrips fmt)

let io_edge_cases () =
  List.iter
    (fun fmt ->
      let name g = Printf.sprintf "%s/%s" (Io.format_name fmt) g in
      check (name "empty graph") true (roundtrips fmt (G.empty ~n:0));
      check (name "single vertex") true (roundtrips fmt (G.empty ~n:1));
      check (name "isolated vertices") true (roundtrips fmt (G.empty ~n:7));
      check (name "edge + isolated") true
        (roundtrips fmt (G.of_edges ~n:4 [ (1, 3) ]));
      check (name "K4") true (roundtrips fmt (Gen.complete 4)))
    [ Io.Dimacs; Io.Graph6; Io.Adjacency ]

let graph6_specifics () =
  (* the 4-byte size form kicks in above n = 62 *)
  check "graph6/n=100 long size form" true (roundtrips Io.Graph6 (Gen.path 100));
  (match Io.parse Io.Graph6 (">>graph6<<" ^ Io.print Io.Graph6 (Gen.cycle 5)) with
  | Ok h -> check "graph6/optional header" true (G.equal h (Gen.cycle 5))
  | Error e -> Alcotest.failf "header rejected: %s" e);
  check "graph6/trailing newline" true
    (match Io.parse Io.Graph6 (Io.print Io.Graph6 (Gen.path 3) ^ "\n") with
    | Ok h -> G.equal h (Gen.path 3)
    | Error _ -> false)

let expect_error fmt input msg =
  match Io.parse fmt input with
  | Ok g ->
      Alcotest.failf "%s: expected %S, parsed %s" (Io.format_name fmt) msg
        (G.to_string g)
  | Error e -> check_str (Io.format_name fmt) msg e

let dimacs_errors () =
  expect_error Io.Dimacs "c nothing else\n"
    "dimacs: missing 'p edge <n> <m>' header line";
  expect_error Io.Dimacs "e 1 2\np edge 2 1\n"
    "dimacs, line 1: 'e' line before the 'p edge <n> <m>' header";
  expect_error Io.Dimacs "p edge 3 2\ne 1 2\n"
    "dimacs: header declares 2 edges but the file lists 1";
  expect_error Io.Dimacs "p edge 3 1\ne 2 2\n"
    "dimacs, line 2: self-loop 'e 2 2'";
  expect_error Io.Dimacs "p edge 3 2\ne 1 2\ne 2 1\n"
    "dimacs, line 3: duplicate edge 'e 2 1'";
  expect_error Io.Dimacs "p edge 3 1\ne 1 4\n"
    "dimacs, line 2: endpoint out of range [1,3] in 'e 1 4'";
  expect_error Io.Dimacs "p edge 2 1\np edge 2 1\ne 1 2\n"
    "dimacs, line 2: duplicate 'p' header";
  expect_error Io.Dimacs "p edge two 1\n"
    "dimacs, line 1: expected an integer, got \"two\"";
  expect_error Io.Dimacs "q edge 2 1\n"
    "dimacs, line 1: unknown line type \"q\" (expected c, p or e)"

let graph6_errors () =
  expect_error Io.Graph6 "" "graph6: empty input";
  expect_error Io.Graph6 "*" "graph6, byte 1: invalid character '*' (code 42)";
  (* P5 encodes as 'D' + 2 payload bytes; chop one off *)
  let p5 = String.trim (Io.print Io.Graph6 (Gen.path 5)) in
  expect_error Io.Graph6
    (String.sub p5 0 (String.length p5 - 1))
    "graph6: n = 5 needs 2 encoding bytes after the size field, got 1";
  (* n = 2 uses 1 payload bit; '@' = 000001 sets a padding bit *)
  expect_error Io.Graph6 "A@" "graph6, byte 2: nonzero padding bit";
  expect_error Io.Graph6 "~~~~~"
    "graph6: n > 258047 (the 8-byte size form) is unsupported"

let adjacency_errors () =
  expect_error Io.Adjacency "0: 1\n"
    "adjacency, line 1: expected the header 'lcpadj <n>'";
  expect_error Io.Adjacency "lcpadj 3\n1: 0\n"
    "adjacency, line 2: neighbor 0 of 1 is not a forward neighbor (need v > u)";
  expect_error Io.Adjacency "lcpadj 3\n0: 1\n0: 2\n"
    "adjacency, line 3: duplicate adjacency row for 0";
  expect_error Io.Adjacency "lcpadj 4\n0: 2 1\n"
    "adjacency, line 2: neighbors of 0 must be strictly increasing (1 after 2)";
  expect_error Io.Adjacency "lcpadj 3\n0: 5\n"
    "adjacency, line 2: vertex 5 out of [0,3)";
  expect_error Io.Adjacency "lcpadj 3\n0 1\n"
    "adjacency, line 2: expected 'u: v1 v2 ...' (missing ':')"

let format_inference () =
  (match Io.format_of_filename "nets/big.G6" with
  | Ok f -> check_str "case-insensitive .g6" "graph6" (Io.format_name f)
  | Error e -> Alcotest.fail e);
  match Io.format_of_filename "graph.xyz" with
  | Ok _ -> Alcotest.fail "unknown extension must not resolve"
  | Error e ->
      check "mentions inference failure" true
        (String.length e > 0
        && contains e "cannot infer graph format"
        && contains e "supported:")

(* ---------------------------------------------------------------- *)
(* manifests                                                         *)

let manifest_roundtrip () =
  let jobs =
    [
      {
        Manifest.job_id = "j0";
        source = Manifest.File "nets/ring.g6";
        property = "connected";
        k = 2;
        seed = 7;
      };
      {
        Manifest.job_id = "j1";
        source = Manifest.Generated { family = "tree"; n = 18; gen_seed = 3 };
        property = "acyclic";
        k = 3;
        seed = 1;
      };
    ]
  in
  match Manifest.parse (Manifest.print jobs) with
  | Ok jobs' -> check "manifest roundtrip" true (jobs = jobs')
  | Error e -> Alcotest.fail e

let expect_manifest_error input msg =
  match Manifest.parse input with
  | Ok _ -> Alcotest.failf "manifest: expected error %S" msg
  | Error e -> check_str "manifest error" msg e

let manifest_errors () =
  expect_manifest_error "gen=path n=5 property=connected\n"
    "manifest, line 1: missing k= (the promised pathwidth bound)";
  expect_manifest_error "# c\n\nfile=a.g6 gen=path n=4 property=connected k=1\n"
    "manifest, line 3: both file= and gen= given; pick one";
  expect_manifest_error "gen=path n=4 property=connected k=0\n"
    "manifest, line 1: k= must be >= 1";
  expect_manifest_error "gen=path n=4 k=1\n"
    "manifest, line 1: missing property= (see Registry.names ())";
  expect_manifest_error "gen=path n=4 property=connected k=1 k=2\n"
    "manifest, line 1: duplicate key \"k\"";
  expect_manifest_error "gen=path n=4 property=connected k=1 bogus\n"
    "manifest, line 1: token \"bogus\" is not of the form key=value";
  expect_manifest_error "gen=path n=four property=connected k=1\n"
    "manifest, line 1: n=\"four\" is not an integer"

(* ---------------------------------------------------------------- *)
(* FNV-1a                                                            *)

let hash64_vectors () =
  (* published 64-bit FNV-1a test vectors *)
  List.iter
    (fun (s, hex) -> check_str s hex (Hash64.to_hex (Hash64.of_string s)))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ];
  check "order sensitivity" true
    (not (Hash64.equal (Hash64.of_string "ab") (Hash64.of_string "ba")))

(* ---------------------------------------------------------------- *)
(* bundles                                                           *)

let encode_label w l = Bitenc.varint w l
let decode_label r = Bitenc.read_varint r

let int_labels g f =
  G.fold_edges (fun e acc -> EM.add acc e (f e)) g EM.empty

let bundle_roundtrip () =
  let g = Gen.caterpillar ~spine:4 ~legs:2 in
  let labels = int_labels g (fun (u, v) -> (17 * u) + v) in
  match Bundle.encode ~encode_label g labels with
  | Error e -> Alcotest.fail e
  | Ok b -> (
      match Bundle.decode ~decode_label g b with
      | Error e -> Alcotest.fail e
      | Ok labels' ->
          G.iter_edges
            (fun e ->
              check_int "label survives" (Option.get (EM.find labels e))
                (Option.get (EM.find labels' e)))
            g;
          check "bundle equal to itself" true (Bundle.equal b b))

let bundle_rejects () =
  let g = Gen.path 5 in
  let labels = int_labels g (fun (u, _) -> u) in
  let b =
    match Bundle.encode ~encode_label g labels with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  (* decoding against a different graph must fail on the header *)
  (match Bundle.decode ~decode_label (Gen.path 6) b with
  | Ok _ -> Alcotest.fail "wrong graph accepted"
  | Error e ->
      check "header mismatch reported" true
        (contains e "header says"));
  (* a missing edge label is an Error, not an exception *)
  match Bundle.encode ~encode_label g (EM.remove labels (0, 1)) with
  | Ok _ -> Alcotest.fail "missing label accepted"
  | Error e -> check_str "missing edge" "bundle: labeling is missing edge 0-1" e

(* ---------------------------------------------------------------- *)
(* certificate store                                                 *)

let dummy_entry key seed =
  let w = Bitenc.writer () in
  Bitenc.varint w seed;
  {
    Store.e_key = key;
    e_bundle = { Bundle.bytes = Bitenc.to_bytes w; bits = Bitenc.length_bits w };
    e_label_bits = seed;
  }

let store_keys () =
  let g = Gen.cycle 6 in
  let key = Store.key ~property:"connected" ~k:2 g in
  (* the key is a pure function of (graph, property, k) ... *)
  check "key deterministic" true
    (Hash64.equal key.Store.hash
       (Store.key ~property:"connected" ~k:2 (Gen.cycle 6)).Store.hash);
  (* ... and sensitive to each component *)
  List.iter
    (fun other ->
      check "key separates instances" false
        (Hash64.equal key.Store.hash other.Store.hash))
    [
      Store.key ~property:"connected" ~k:3 g;
      Store.key ~property:"acyclic" ~k:2 g;
      Store.key ~property:"connected" ~k:2 (Gen.cycle 7);
      Store.key ~property:"connected" ~k:2 (Gen.path 6);
    ]

let store_lru () =
  let t = Store.create ~cap:2 () in
  let key i = Store.key ~property:"connected" ~k:1 (Gen.path (4 + i)) in
  Store.add t (dummy_entry (key 0) 0);
  Store.add t (dummy_entry (key 1) 1);
  check "hit k0" true (Store.find t (key 0) <> None);
  (* k0 is now most recent, so inserting k2 evicts k1 *)
  Store.add t (dummy_entry (key 2) 2);
  check_int "size capped" 2 (Store.size t);
  check "k1 evicted" true (Store.find t (key 1) = None);
  check "k0 kept" true (Store.find t (key 0) <> None);
  check "k2 kept" true (Store.find t (key 2) <> None);
  let s = Store.stats t in
  check_int "insertions" 3 s.Store.insertions;
  check_int "evictions" 1 s.Store.evictions;
  check_int "hits" 3 s.Store.hits;
  check_int "misses" 1 s.Store.misses;
  Store.remove t (key 0);
  check_int "drop counted" 1 (Store.stats t).Store.drops;
  check "removed is a miss" true (Store.find t (key 0) = None)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp_test_store_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  (* recursive: the store quarantines corrupt records into a
     quarantine/ subdirectory *)
  let rec rm_rf p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Two pool workers opening stores on one new cache directory race
   between the existence check and the mkdir. The loser's mkdir fails
   with EEXIST; that must not fail the store (it used to kill the worker
   silently: `pool stream = batch at N in {1,2}` flaked under load). *)
let store_mkdir_race () =
  with_temp_dir (fun dir ->
      let d = Filename.concat dir "cache" in
      let lied = ref false in
      let io =
        {
          Lcp_service.Blob_io.real with
          file_exists =
            (fun p ->
              if p = d && not !lied then begin
                (* a sibling creates it right after this check *)
                lied := true;
                Sys.mkdir dir 0o700;
                Sys.mkdir d 0o755;
                false
              end
              else Lcp_service.Blob_io.real.file_exists p);
        }
      in
      let t = Store.create ~cap:4 ~dir:d ~io () in
      check "the race was staged" true !lied;
      let key = Store.key ~property:"bipartite" ~k:2 (Gen.ladder 4) in
      Store.add t (dummy_entry key 7);
      check "the store works" true (Store.find t key <> None))

let store_disk () =
  with_temp_dir (fun dir ->
      let key = Store.key ~property:"bipartite" ~k:2 (Gen.ladder 4) in
      let entry = dummy_entry key 99 in
      let t1 = Store.create ~cap:4 ~dir () in
      Store.add t1 entry;
      (* a fresh store over the same directory must recover the bundle *)
      let t2 = Store.create ~cap:4 ~dir () in
      (match Store.find t2 key with
      | None -> Alcotest.fail "disk entry not recovered"
      | Some e ->
          check "bundle survives persistence" true
            (Bundle.equal e.Store.e_bundle entry.Store.e_bundle);
          check_int "label bits survive" 99 e.Store.e_label_bits);
      check_int "disk load counted" 1 (Store.stats t2).Store.disk_loads;
      (* corrupt file: flip the magic; the store must treat it as a miss *)
      let t3 = Store.create ~cap:4 ~dir () in
      let path =
        Filename.concat dir (Hash64.to_hex key.Store.hash ^ ".cert")
      in
      let oc = open_out path in
      output_string oc "NOTACERT";
      close_out oc;
      check "corrupt file is a miss" true (Store.find t3 key = None))

(* ---------------------------------------------------------------- *)
(* engine: cold pass proves, warm pass serves from cache             *)

let engine_cold_warm () =
  let jobs =
    List.init 3 (fun i ->
        {
          Manifest.job_id = Printf.sprintf "t%d" i;
          source =
            Manifest.Generated { family = "tree"; n = 10 + i; gen_seed = i };
          property = "acyclic";
          k = 3;
          seed = 5;
        })
  in
  let engine = Engine.create ~cache_cap:16 () in
  let _, cold = Engine.run_jobs engine jobs in
  check_int "cold: all served" 3 cold.Stats.s_served;
  check_int "cold: all fresh" 3 cold.Stats.s_fresh;
  check_int "cold: no unsound" 0 cold.Stats.s_unsound;
  let reports, warm = Engine.run_jobs engine jobs in
  check_int "warm: all cached" 3 warm.Stats.s_cached;
  check_int "warm: no re-verification rejects" 0 warm.Stats.s_cache_rejects;
  check "warm: 100% hit rate" true (warm.Stats.s_hit_rate = 1.0);
  List.iter
    (fun r ->
      check "warm report is a cache hit" true r.Stats.r_cache_hit;
      check "warm report served" true (r.Stats.r_status = Stats.Served_cached))
    reports

(* the certd footer surfaces memo hit/miss and allocation counters next
   to the timing histogram: run real jobs through a timed engine and
   assert the counters are snapshotted, merged, and rendered *)
let engine_counters () =
  let jobs =
    List.init 2 (fun i ->
        {
          Manifest.job_id = Printf.sprintf "c%d" i;
          source =
            Manifest.Generated { family = "path"; n = 12 + i; gen_seed = i };
          property = "connected";
          k = 2;
          seed = 5;
        })
  in
  let timing = Lcp_service.Timing.create () in
  let engine = Engine.create ~cache_cap:16 ~timing () in
  let _, summary = Engine.run_jobs engine jobs in
  check_int "all served" 2 summary.Stats.s_served;
  let ctrs = Lcp_service.Timing.counters timing in
  List.iter
    (fun name ->
      check (name ^ " counter present") true (List.mem_assoc name ctrs))
    [ "group_hit"; "group_miss"; "view_hit"; "view_miss"; "minor_words" ];
  check "some memo traffic" true (List.assoc "view_miss" ctrs > 0);
  check "allocation counter positive" true (List.assoc "minor_words" ctrs > 0);
  let footer = Format.asprintf "%a" Lcp_service.Timing.pp timing in
  check "footer has a counters line" true
    (let re = "counters:" in
     let rec find i =
       i + String.length re <= String.length footer
       && (String.sub footer i (String.length re) = re || find (i + 1))
     in
     find 0);
  (* absorb must sum counters across workers, not overwrite *)
  let t2 = Lcp_service.Timing.create () in
  Lcp_service.Timing.absorb t2 (Lcp_service.Timing.samples timing);
  Lcp_service.Timing.absorb t2 (Lcp_service.Timing.samples timing);
  check_int "absorb sums"
    (2 * List.assoc "view_miss" ctrs)
    (List.assoc "view_miss" (Lcp_service.Timing.counters t2))

let engine_rejects_unknowns () =
  let job source property =
    { Manifest.job_id = "x"; source; property; k = 2; seed = 1 }
  in
  let engine = Engine.create () in
  let is_input_error j msg_frag =
    match (Engine.run_job engine j).Stats.r_status with
    | Stats.Input_error e -> contains e msg_frag
    | _ -> false
  in
  check "unknown property" true
    (is_input_error
       (job (Manifest.Generated { family = "path"; n = 6; gen_seed = 0 }) "frob")
       "unknown property");
  check "unknown family" true
    (is_input_error
       (job (Manifest.Generated { family = "moebius"; n = 6; gen_seed = 0 })
          "connected")
       "moebius");
  check "missing file" true
    (is_input_error
       (job (Manifest.File "does-not-exist.g6") "connected")
       "does-not-exist.g6")

(* A 64-rung ladder (pathwidth 2) with its vertices shuffled by [seed].
   The greedy layout of [Engine.default_rep] depends on vertex order:
   on these three it returns widths 16, 15 and 12, whose lane
   partitions exceed the f(3) = 18 lanes a k=2 verifier accepts. Proving
   perfect_matching on them once ran past 1.5 GB; the prover must
   decline before building certificates, in well under a second. *)
let shuffled_ladder seed =
  let g = Gen.ladder 64 in
  let n = G.n g in
  let rng = Random.State.make [| seed |] in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- x
  done;
  G.of_edges ~n (List.map (fun (u, v) -> (p.(u), p.(v))) (G.edges g))

let wide_representation_declines () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o700;
      List.iter
        (fun seed ->
          let g = shuffled_ladder seed in
          let width =
            match Engine.default_rep (Lcp_pls.Config.make g) with
            | Some r -> Lcp_interval.Representation.width r
            | None -> 0
          in
          check (Printf.sprintf "seed %d: width %d > k+1" seed width) true
            (width > 3);
          let file = Filename.concat dir (Printf.sprintf "ladder%d.g6" seed) in
          (match Io.save_file file g with
          | Ok () -> ()
          | Error e -> Alcotest.failf "cannot write %s: %s" file e);
          let job =
            {
              Manifest.job_id = Printf.sprintf "ladder%d" seed;
              source = Manifest.File file;
              property = "perfect_matching";
              k = 2;
              seed;
            }
          in
          let t0 = Unix.gettimeofday () in
          check
            (Printf.sprintf "seed %d: engine declines" seed)
            true
            ((Engine.run_job (Engine.create ()) job).Stats.r_status
            = Stats.Declined);
          (match Lcp_service.Delta.create (Engine.create ()) job with
          | Ok (_, r, _) ->
              check
                (Printf.sprintf "seed %d: delta session declines" seed)
                true
                (r.Stats.r_status = Stats.Declined)
          | Error _ -> Alcotest.failf "seed %d: session did not open" seed);
          check
            (Printf.sprintf "seed %d: declined within 5 s" seed)
            true
            (Unix.gettimeofday () -. t0 < 5.0))
        [ 1; 2; 3 ])

let suite =
  ( "service",
    [
      prop_roundtrip Io.Dimacs;
      prop_roundtrip Io.Graph6;
      prop_roundtrip Io.Adjacency;
      test "io edge cases" io_edge_cases;
      test "graph6 specifics" graph6_specifics;
      test "dimacs errors" dimacs_errors;
      test "graph6 errors" graph6_errors;
      test "adjacency errors" adjacency_errors;
      test "format inference" format_inference;
      test "manifest roundtrip" manifest_roundtrip;
      test "manifest errors" manifest_errors;
      test "hash64 vectors" hash64_vectors;
      test "bundle roundtrip" bundle_roundtrip;
      test "bundle rejects" bundle_rejects;
      test "store keys" store_keys;
      test "store lru" store_lru;
      test "store disk tier" store_disk;
      test "store survives a sibling creating its directory" store_mkdir_race;
      test "engine cold/warm" engine_cold_warm;
      test "engine surfaces memo/alloc counters" engine_counters;
      test "engine rejects unknowns" engine_rejects_unknowns;
      test "prover declines lane partitions wider than k allows"
        wide_representation_declines;
    ] )

let () = Alcotest.run "lcp-service" [ suite ]
