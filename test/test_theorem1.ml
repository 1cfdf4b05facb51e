(* End-to-end tests of the Theorem 1 proof labeling scheme: completeness
   across properties and graph families, bounded lane counts and
   congestion, O(log n)-shaped label sizes, the greedy-partition ablation,
   and the Prop 2.1 vertex variant. *)

open Test_util
module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module T = Lcp_graph.Traversal
module Rep = Lcp_interval.Representation
module PW = Lcp_interval.Pathwidth
module B = Lcp_lanes.Bounds
module PLS = Lcp_pls
module S = PLS.Scheme
module A = Lcp_algebra
module H = Lcp_lanewidth.Hierarchy

module T1conn = Lcp_cert.Theorem1.Make (A.Connectivity)
module T1acy = Lcp_cert.Theorem1.Make (A.Acyclicity)
module T1bip = Lcp_cert.Theorem1.Make (A.Bipartite)
module T1path = Lcp_cert.Theorem1.Make (A.Combinators.Is_path_graph)
module T1cyc = Lcp_cert.Theorem1.Make (A.Combinators.Is_cycle_graph)
module T1tri = Lcp_cert.Theorem1.Make (A.Triangle_free)
module T1ham = Lcp_cert.Theorem1.Make (A.Hamiltonian.Path_alg)
module T1pm = Lcp_cert.Theorem1.Make (A.Matching)

let rng = rng_of_seed 20260705

let run_scheme scheme g =
  let cfg = PLS.Config.random_ids rng g in
  match scheme.S.es_prove cfg with
  | None -> `Declined
  | Some labels -> (
      match S.run_edge cfg scheme labels with
      | S.Accepted -> `Accepted
      | S.Rejected rs -> `Rejected (snd (List.hd rs)))

(* completeness per property on families where the property holds *)
let completeness_cases =
  [
    ("connected on P9", (fun () -> run_scheme (T1conn.edge_scheme ~k:1 ()) (Gen.path 9)));
    ("connected on C8", (fun () -> run_scheme (T1conn.edge_scheme ~k:2 ()) (Gen.cycle 8)));
    ( "connected on caterpillar",
      fun () ->
        run_scheme (T1conn.edge_scheme ~k:1 ()) (Gen.caterpillar ~spine:4 ~legs:2) );
    ("connected on ladder", (fun () -> run_scheme (T1conn.edge_scheme ~k:2 ()) (Gen.ladder 5)));
    ("connected on K4", (fun () -> run_scheme (T1conn.edge_scheme ~k:3 ()) (Gen.complete 4)));
    ("acyclic on star", (fun () -> run_scheme (T1acy.edge_scheme ~k:1 ()) (Gen.star 6)));
    ( "acyclic on binary tree",
      fun () -> run_scheme (T1acy.edge_scheme ~k:2 ()) (Gen.binary_tree ~depth:3) );
    ("bipartite on C6", (fun () -> run_scheme (T1bip.edge_scheme ~k:2 ()) (Gen.cycle 6)));
    ("bipartite on grid", (fun () -> run_scheme (T1bip.edge_scheme ~k:2 ()) (Gen.grid 4 2)));
    ("is_path on P8", (fun () -> run_scheme (T1path.edge_scheme ~k:1 ()) (Gen.path 8)));
    ("is_cycle on C9", (fun () -> run_scheme (T1cyc.edge_scheme ~k:2 ()) (Gen.cycle 9)));
    ("triangle-free on C7", (fun () -> run_scheme (T1tri.edge_scheme ~k:2 ()) (Gen.cycle 7)));
    ("ham-path on P6", (fun () -> run_scheme (T1ham.edge_scheme ~k:1 ()) (Gen.path 6)));
    ("ham-path on C6", (fun () -> run_scheme (T1ham.edge_scheme ~k:2 ()) (Gen.cycle 6)));
    ("matching on P6", (fun () -> run_scheme (T1pm.edge_scheme ~k:1 ()) (Gen.path 6)));
    ("matching on C8", (fun () -> run_scheme (T1pm.edge_scheme ~k:2 ()) (Gen.cycle 8)));
  ]

let prover_declines_cases =
  [
    ("is_path declines C7", (fun () -> run_scheme (T1path.edge_scheme ~k:2 ()) (Gen.cycle 7)));
    ("is_cycle declines P7", (fun () -> run_scheme (T1cyc.edge_scheme ~k:1 ()) (Gen.path 7)));
    ("acyclic declines C5", (fun () -> run_scheme (T1acy.edge_scheme ~k:2 ()) (Gen.cycle 5)));
    ("bipartite declines C5", (fun () -> run_scheme (T1bip.edge_scheme ~k:2 ()) (Gen.cycle 5)));
    ("matching declines P5", (fun () -> run_scheme (T1pm.edge_scheme ~k:1 ()) (Gen.path 5)));
    ( "triangle-free declines K4",
      fun () -> run_scheme (T1tri.edge_scheme ~k:3 ()) (Gen.complete 4) );
  ]

let completeness () =
  List.iter
    (fun (name, run) ->
      match run () with
      | `Accepted -> ()
      | `Declined -> Alcotest.fail (name ^ ": prover declined")
      | `Rejected r -> Alcotest.fail (name ^ ": rejected: " ^ r))
    completeness_cases

let prover_declines () =
  List.iter
    (fun (name, run) ->
      match run () with
      | `Declined -> ()
      | `Accepted -> Alcotest.fail (name ^ ": accepted a false instance")
      | `Rejected _ -> Alcotest.fail (name ^ ": prover should decline"))
    prover_declines_cases

let prop_completeness_random =
  qcheck ~count:40 "completeness on random pw graphs (connectivity)"
    (arb_pw_graph ~max_k:2 ~max_n:40)
    (fun (k, g, ivs) ->
      let rep = rep_of (g, ivs) in
      let cfg = PLS.Config.random_ids rng g in
      let scheme = T1conn.edge_scheme ~rep:(fun _ -> Some rep) ~k () in
      match scheme.S.es_prove cfg with
      | None -> false
      | Some labels -> S.accepted (S.run_edge cfg scheme labels))

let prop_completeness_bipartite =
  qcheck ~count:25 "completeness on random pw graphs (bipartite/decline)"
    (arb_pw_graph ~max_k:2 ~max_n:25)
    (fun (k, g, ivs) ->
      let rep = rep_of (g, ivs) in
      let cfg = PLS.Config.random_ids rng g in
      let scheme = T1bip.edge_scheme ~rep:(fun _ -> Some rep) ~k () in
      match scheme.S.es_prove cfg with
      | None -> not (A.Bipartite.oracle g)
      | Some labels ->
          A.Bipartite.oracle g && S.accepted (S.run_edge cfg scheme labels))

let artifacts_invariants =
  qcheck ~count:30 "prover artifacts respect the paper's bounds"
    (arb_pw_graph ~max_k:2 ~max_n:40)
    (fun (_, g, ivs) ->
      let rep = rep_of (g, ivs) in
      let w = Rep.width rep in
      let cfg = PLS.Config.random_ids rng g in
      match T1conn.P.prepare ~rep cfg with
      | Error _ -> false
      | Ok art ->
          art.T1conn.P.lane_count <= B.f w
          && art.T1conn.P.congestion <= B.h w
          && H.depth art.T1conn.P.hierarchy <= 2 * art.T1conn.P.lane_count
          && H.validate art.T1conn.P.hierarchy = Ok ()
          && art.T1conn.P.holds)

let label_growth_logarithmic () =
  (* labels on paths: measure max bits at n and 2n; the growth must be far
     below linear (paths would give Θ(n) for an encoding-everything scheme) *)
  let bits n =
    let g = Gen.path n in
    let cfg = PLS.Config.make g in
    let scheme =
      T1conn.edge_scheme
        ~rep:(fun c ->
          Some
            (PW.heuristic_interval_representation (PLS.Config.graph c)))
        ~k:1 ()
    in
    let labels = Option.get (scheme.S.es_prove cfg) in
    S.max_edge_label_bits scheme labels
  in
  let b64 = bits 64 and b128 = bits 128 and b256 = bits 256 in
  check "grows" true (b64 <= b128 && b128 <= b256);
  (* doubling n should add a bounded number of bits, not multiply them *)
  check "log-shaped growth" true
    (float_of_int b256 /. float_of_int b64 < 1.8)

let greedy_strategy () =
  List.iter
    (fun (name, g) ->
      if T.is_connected g && G.n g <= 12 then begin
        let cfg = PLS.Config.random_ids rng g in
        let k = PW.exact g in
        let k = max k 1 in
        let scheme = T1conn.edge_scheme ~strategy:`Greedy ~k () in
        match scheme.S.es_prove cfg with
        | None -> Alcotest.fail (name ^ ": greedy prover declined")
        | Some labels ->
            check (name ^ " greedy accepts") true
              (S.accepted (S.run_edge cfg scheme labels))
      end)
    named_families

(* A path folded in two: p_0..p_l and q_0..q_l joined by the edge
   p_0-q_0, with p_i at [2i, 2i+2] and q_i at [2i+1, 2i+3], a width-3
   representation. Greedy lanes alternate between the halves, so nearly
   every lane edge is routed through the fold and the greedy congestion
   grows with l, past h(3) = 49 at l = 40. *)
let folded_path l =
  let p i = i and q i = l + 1 + i in
  let g =
    G.of_edges ~n:(2 * (l + 1))
      ((p 0, q 0)
      :: List.concat (List.init l (fun i -> [ (p i, p (i + 1)); (q i, q (i + 1)) ])))
  in
  let ivs =
    Array.init (2 * (l + 1)) (fun v ->
        if v <= l then (2 * v, (2 * v) + 2)
        else
          let i = v - l - 1 in
          ((2 * i) + 1, (2 * i) + 3))
  in
  (g, Rep.of_pairs g ivs)

let prepare_k2 strategy rep cfg =
  match
    T1conn.P.prepare ~strategy ~rep ~max_lanes:(T1conn.max_lanes_for ~k:2) cfg
  with
  | Ok art -> art
  | Error e -> Alcotest.fail e

let bundle_bytes scheme cfg labels =
  match
    Lcp_service.Bundle.encode ~encode_label:scheme.S.es_encode
      (PLS.Config.graph cfg) labels
  with
  | Ok b -> Bytes.to_string b.Lcp_service.Bundle.bytes
  | Error e -> Alcotest.fail e

let hybrid_falls_back () =
  let g, rep = folded_path 40 in
  check_int "width 3" 3 (Rep.width rep);
  let cfg = PLS.Config.random_ids rng g in
  let greedy = prepare_k2 `Greedy rep cfg in
  check "greedy lanes within f(3)" true (greedy.T1conn.P.lane_count <= B.f 3);
  check "greedy congestion past h(3)" true (greedy.T1conn.P.congestion > B.h 3);
  let before = !Lcp_cert.Prover.lanes_fallback in
  let hybrid = prepare_k2 `Hybrid rep cfg in
  check_int "one fallback counted" (before + 1) !Lcp_cert.Prover.lanes_fallback;
  let prop46 = prepare_k2 `Prop46 rep cfg in
  let scheme = T1conn.edge_scheme ~k:2 () in
  check "the Prop 4.6 certificate" true
    (bundle_bytes scheme cfg hybrid.T1conn.P.labels
    = bundle_bytes scheme cfg prop46.T1conn.P.labels);
  check "within h(3)" true (hybrid.T1conn.P.congestion <= B.h 3);
  check "accepted" true (S.accepted (S.run_edge cfg scheme hybrid.T1conn.P.labels))

let hybrid_keeps_greedy () =
  let st = rng_of_seed 7 in
  for _ = 1 to 6 do
    let g, ivs = Gen.random_pathwidth st ~n:64 ~k:2 () in
    let rep = Rep.of_pairs g ivs and cfg = PLS.Config.random_ids st g in
    let before = !Lcp_cert.Prover.lanes_fallback in
    let hybrid = prepare_k2 `Hybrid rep cfg in
    check_int "no fallback" before !Lcp_cert.Prover.lanes_fallback;
    let scheme = T1conn.edge_scheme ~k:2 () in
    check "the greedy certificate" true
      (bundle_bytes scheme cfg hybrid.T1conn.P.labels
      = bundle_bytes scheme cfg (prepare_k2 `Greedy rep cfg).T1conn.P.labels);
    check "accepted" true (S.accepted (S.run_edge cfg scheme hybrid.T1conn.P.labels))
  done

(* A labeling as text, field by field, with no use of the bit codec: a
   digest of it pins the certificates themselves, whatever codec writes
   them. States are printed by the algebra's [pp]. *)
let labels_text (labels : A.Connectivity.state Lcp_cert.Certificate.label S.Edge_map.t) =
  let module C = Lcp_cert.Certificate in
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let ints xs = String.concat ";" (List.map string_of_int xs) in
  let pairs xs =
    String.concat ";" (List.map (fun (x, y) -> Printf.sprintf "%d>%d" x y) xs)
  in
  let info (i : _ C.info) =
    p "{%d|%s|%s|%s|%s}" i.C.node_id (ints i.C.lanes) (pairs i.C.t_in)
      (pairs i.C.t_out)
      (Format.asprintf "%a" A.Connectivity.pp i.C.state)
  in
  let kind k = p "%s" (Format.asprintf "%a" C.pp_kind k) in
  let ptr (x : PLS.Spanning_tree.label) =
    match x.PLS.Spanning_tree.parent with
    | None -> p "<%d>" x.PLS.Spanning_tree.target
    | Some (d, c) -> p "<%d,%d,%d>" x.PLS.Spanning_tree.target d c
  in
  let opt f = function None -> p "-" | Some x -> f x in
  let frame = function
    | C.T_frame { member = m, mk; merged; is_tree_root; member_real; children } ->
        p "T(";
        info m;
        kind mk;
        info merged;
        p "%b[%s]" is_tree_root
          (String.concat "" (List.map (fun x -> if x then "1" else "0") member_real));
        List.iter
          (fun (nid, c) ->
            p "%d:" nid;
            info c)
          children;
        p ")"
    | C.B_frame
        {
          bnode; i; j; left = li, lk; right = ri, rk; bridge_real;
          left_root_member; right_root_member; position; left_ptr; right_ptr;
        } ->
        p "B(";
        info bnode;
        p "%d,%d" i j;
        info li;
        kind lk;
        info ri;
        kind rk;
        p "%b" bridge_real;
        opt (p "%d") left_root_member;
        opt (p "%d") right_root_member;
        p "%s" (match position with `Bridge -> "b" | `Left -> "l" | `Right -> "r");
        opt ptr left_ptr;
        opt ptr right_ptr;
        p ")"
  in
  let stack fs =
    p "[";
    List.iter frame fs;
    p "]"
  in
  List.iter
    (fun ((u, v), (l : _ C.label)) ->
      p "%d-%d:" u v;
      stack l.C.frames;
      ptr l.C.global_ptr;
      p "%b" l.C.accept_state;
      List.iter
        (fun (r : _ C.vrecord) ->
          p "(%d,%d,%d,%d)" r.C.vu r.C.vv r.C.rank_fwd r.C.rank_bwd;
          stack r.C.vframes)
        l.C.transported;
      p "\n")
    (S.Edge_map.bindings labels);
  Buffer.contents b

(* The pinned strategies build the same certificates as before the
   hybrid default and the linear merges: digests of E1's first paths
   and cycles and of the first instances of the benchmark's fresh
   n = 128 pool (manifest jobs gen=random n=128 k=2, gseed =
   Hashtbl.hash (1, "f", i), ids seeded by gseed lxor 0x5bd1), taken
   from the earlier build. They digest [labels_text], not bundle bytes,
   so that a change of the bit codec leaves them standing: the label
   values are what the strategies build. *)
let pinned_bundles () =
  let digest strategy ~k insts =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (List.map
               (fun (rep, cfg) ->
                 match
                   T1conn.P.prepare ~strategy ~rep
                     ~max_lanes:(T1conn.max_lanes_for ~k) cfg
                 with
                 | Error e -> Alcotest.fail e
                 | Ok art ->
                     Digest.to_hex (Digest.string (labels_text art.T1conn.P.labels)))
               insts)))
  in
  let seq g = (PW.heuristic_interval_representation g, PLS.Config.make g) in
  let pool =
    List.init 4 (fun i ->
        let gseed = Hashtbl.hash (1, "f", i) in
        let g = fst (Gen.random_pathwidth (rng_of_seed gseed) ~n:128 ~k:2 ()) in
        ( Lcp_service.Engine.fresh_rep g,
          PLS.Config.random_ids (rng_of_seed (gseed lxor 0x5bd1)) g ))
  in
  List.iter
    (fun (name, strategy, k, insts, want) ->
      Alcotest.(check string) name want (digest strategy ~k insts))
    [
      ( "paths, prop46", `Prop46, 1, List.map (fun n -> seq (Gen.path n)) [ 16; 32; 64; 128 ],
        "3bc3b0694d711259b41cdf15accbe7cb" );
      ( "paths, greedy", `Greedy, 1, List.map (fun n -> seq (Gen.path n)) [ 16; 32; 64; 128 ],
        "93b639b630b7387b006da3de09a3ae5b" );
      ( "cycles, prop46", `Prop46, 2, List.map (fun n -> seq (Gen.cycle n)) [ 16; 32; 64 ],
        "4d324ae9a93271bd2d21389d25d723a9" );
      ( "cycles, greedy", `Greedy, 2, List.map (fun n -> seq (Gen.cycle n)) [ 16; 32; 64 ],
        "44f9364882f110550ba0e3bd5a0fe5a6" );
      ("pool, prop46", `Prop46, 2, pool, "b247c2f72ed5ee7c3eecc55576812e09");
      ("pool, greedy", `Greedy, 2, pool, "d3123393389166d85d006d496ec459d3");
    ]

let vertex_scheme_variant () =
  let g = Gen.caterpillar ~spine:5 ~legs:1 in
  let cfg = PLS.Config.random_ids rng g in
  let vs = T1conn.vertex_scheme ~k:1 () in
  match vs.S.vs_prove cfg with
  | None -> Alcotest.fail "vertex scheme prover declined"
  | Some labels ->
      check "vertex scheme accepts" true
        (S.accepted (S.run_vertex cfg vs labels));
      check "vertex labels bounded" true
        (S.max_vertex_label_bits vs labels > 0)

let single_vertex_network () =
  let g = Gen.path 1 in
  let cfg = PLS.Config.make g in
  let scheme = T1conn.edge_scheme ~k:1 () in
  let labels = Option.get (scheme.S.es_prove cfg) in
  check "singleton accepts" true (S.accepted (S.run_edge cfg scheme labels))

let two_vertex_network () =
  let g = Gen.path 2 in
  let cfg = PLS.Config.random_ids rng g in
  let scheme = T1conn.edge_scheme ~k:1 () in
  let labels = Option.get (scheme.S.es_prove cfg) in
  check "P2 accepts" true (S.accepted (S.run_edge cfg scheme labels))

let max_lanes_bound () =
  check_int "f(2)" 4 (T1conn.max_lanes_for ~k:1);
  check_int "f(3)" 18 (T1conn.max_lanes_for ~k:2)

let id_space_independence () =
  (* certification must work with arbitrary (large, sparse) identifiers *)
  let g = Gen.cycle 8 in
  let ids = Array.init 8 (fun v -> (v * 7919) + 13) in
  let cfg = PLS.Config.make ~ids g in
  let scheme = T1conn.edge_scheme ~k:2 () in
  let labels = Option.get (scheme.S.es_prove cfg) in
  check "sparse ids accept" true (S.accepted (S.run_edge cfg scheme labels))

let suite =
  ( "theorem1",
    [
      test "completeness on named cases" completeness;
      test "prover declines false instances" prover_declines;
      prop_completeness_random;
      prop_completeness_bipartite;
      artifacts_invariants;
      slow_test "label growth is logarithmic" label_growth_logarithmic;
      test "greedy-partition ablation" greedy_strategy;
      test "hybrid falls back past h(k+1)" hybrid_falls_back;
      test "hybrid keeps greedy within the bounds" hybrid_keeps_greedy;
      test "pinned strategies build the same bundles" pinned_bundles;
      test "vertex scheme variant (Prop 2.1)" vertex_scheme_variant;
      test "single-vertex network" single_vertex_network;
      test "two-vertex network" two_vertex_network;
      test "max lane bounds" max_lanes_bound;
      test "sparse identifier space" id_space_independence;
    ] )
