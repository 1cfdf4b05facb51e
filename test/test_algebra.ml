(* Tests for the property algebras (Prop 2.4 / 6.1 machinery): every
   algebra must agree with its direct oracle, both when run linearly over a
   graph and when evaluated over a hierarchical decomposition. *)

open Test_util
module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module Tr = Lcp_lanewidth.Trace
module Bld = Lcp_lanewidth.Builder
module A = Lcp_algebra

module VC2 = A.Vertex_cover.Make (struct let budget = 2 end)
module VC0 = A.Vertex_cover.Make (struct let budget = 0 end)
module IS3 = A.Independent_set.Make (struct let target = 3 end)
module DS2 = A.Dominating_set.Make (struct let budget = 2 end)
module DS1 = A.Dominating_set.Make (struct let budget = 1 end)
module MD2 = A.Degree.Max_degree (struct let d = 2 end)
module R2 = A.Degree.Regular (struct let d = 2 end)
module Col2 = A.Colorable.Make (struct let q = 2 end)
module K3 = A.Clique.Make (struct let size = 3 end)
module K4 = A.Clique.Make (struct let size = 4 end)
module Diam2 = A.Diameter.Make (struct let d = 2 end)
module Diam3 = A.Diameter.Make (struct let d = 3 end)

(* (name, algebra, oracle, lane cap for hierarchy evaluation) *)
let catalogue : (string * (module A.Algebra_sig.S) * (G.t -> bool) * int) list =
  [
    ("connected", (module A.Connectivity), A.Connectivity.oracle, 99);
    ("acyclic", (module A.Acyclicity), A.Acyclicity.oracle, 99);
    ("bipartite", (module A.Bipartite), A.Bipartite.oracle, 99);
    ("2colorable-set", (module Col2), Col2.oracle, 3);
    ("3colorable", (module A.Colorable.Three), A.Colorable.Three.oracle, 2);
    ("matching", (module A.Matching), A.Matching.oracle, 3);
    ("vc<=2", (module VC2), VC2.oracle, 3);
    ("vc<=0", (module VC0), VC0.oracle, 3);
    ("is>=3", (module IS3), IS3.oracle, 3);
    ("ds<=2", (module DS2), DS2.oracle, 2);
    ("ds<=1", (module DS1), DS1.oracle, 2);
    ("maxdeg<=2", (module MD2), MD2.oracle, 99);
    ("2regular", (module R2), R2.oracle, 99);
    ("hamcycle", (module A.Hamiltonian.Cycle_alg), A.Hamiltonian.Cycle_alg.oracle, 3);
    ("hampath", (module A.Hamiltonian.Path_alg), A.Hamiltonian.Path_alg.oracle, 3);
    ("trianglefree", (module A.Triangle_free), A.Triangle_free.oracle, 99);
    ( "is_path",
      (module A.Combinators.Is_path_graph),
      A.Combinators.Is_path_graph.oracle,
      99 );
    ( "is_cycle",
      (module A.Combinators.Is_cycle_graph),
      A.Combinators.Is_cycle_graph.oracle,
      99 );
    ("clique>=3", (module K3), K3.oracle, 99);
    ("clique>=4", (module K4), K4.oracle, 99);
    ("diameter<=2", (module Diam2), Diam2.oracle, 3);
    ("diameter<=3", (module Diam3), Diam3.oracle, 3);
  ]

(* exhaustive: every algebra decides exactly its oracle on all graphs with
   up to 4 vertices (plus named families), via the linear sweep *)
let exhaustive_small (name, (module Alg : A.Algebra_sig.S), oracle, _) =
  test ("sweep = oracle: " ^ name) (fun () ->
      let module L = A.Lift.Make (Alg) in
      List.iter
        (fun g ->
          check
            (Printf.sprintf "%s on %s" name (G.to_string g))
            (oracle g) (L.decide_graph g))
        (small_graphs @ List.map snd named_families))

(* the same through hierarchical decompositions of random traces *)
let via_hierarchy (name, (module Alg : A.Algebra_sig.S), oracle, kcap) =
  qcheck ~count:80
    ("hierarchy = oracle: " ^ name)
    (arb_trace ~max_k:(min kcap 4) ~max_ops:18)
    (fun tr ->
      let module L = A.Lift.Make (Alg) in
      let g = Tr.eval tr in
      let h = Bld.of_trace tr in
      L.holds h = oracle g)

let slot_independence () =
  (* states must not depend on which integers name the slots: evaluate the
     same graph under shifted vertex numberings *)
  let module L = A.Lift.Make (A.Connectivity) in
  List.iter
    (fun (name, g) ->
      let perm = Array.init (G.n g) (fun i -> G.n g - 1 - i) in
      let g' = G.relabel g perm in
      check (name ^ " relabel-invariant") true
        (L.decide_graph g = L.decide_graph g'))
    named_families

let combinators () =
  let module NotConn = A.Combinators.Not (A.Connectivity) in
  let module L = A.Lift.Make (NotConn) in
  check "not connected" true (L.decide_graph (G.disjoint_union (Gen.path 2) (Gen.path 2)));
  check "not (not connected)" false (L.decide_graph (Gen.path 4));
  let module OrPC =
    A.Combinators.Or (A.Combinators.Is_path_graph) (A.Combinators.Is_cycle_graph)
  in
  let module L2 = A.Lift.Make (OrPC) in
  check "path or cycle on P5" true (L2.decide_graph (Gen.path 5));
  check "path or cycle on C5" true (L2.decide_graph (Gen.cycle 5));
  check "path or cycle on star" false (L2.decide_graph (Gen.star 3))

let state_encoding_deterministic () =
  (* encoding a state twice gives identical bits *)
  let module L = A.Lift.Make (A.Bipartite) in
  ignore L.decide_graph;
  let g = Gen.cycle 6 in
  let st =
    G.fold_edges
      (fun (u, v) st -> A.Bipartite.add_edge st u v)
      g
      (G.fold_vertices (fun v st -> A.Bipartite.introduce st v) g A.Bipartite.empty)
  in
  let enc () =
    let w = Lcp_util.Bitenc.writer () in
    A.Bipartite.encode w st;
    Bytes.to_string (Lcp_util.Bitenc.to_bytes w)
  in
  check "deterministic" true (enc () = enc ())

let connectivity_closed_cap () =
  (* the closed-component counter saturates at 2 but the answer stays right *)
  let module L = A.Lift.Make (A.Connectivity) in
  let g3 =
    G.disjoint_union (Gen.path 2) (G.disjoint_union (Gen.path 2) (Gen.path 2))
  in
  check "three components rejected" false (L.decide_graph g3)

let vertex_cover_budgets () =
  (* vc(star_n) = 1, vc(path_5) = 2, vc(C6) = 3 *)
  let module VC1 = A.Vertex_cover.Make (struct let budget = 1 end) in
  let module VC3 = A.Vertex_cover.Make (struct let budget = 3 end) in
  let module L1 = A.Lift.Make (VC1) in
  let module L2 = A.Lift.Make (VC2) in
  let module L3 = A.Lift.Make (VC3) in
  check "star vc<=1" true (L1.decide_graph (Gen.star 6));
  check "P5 vc<=1" false (L1.decide_graph (Gen.path 5));
  check "P5 vc<=2" true (L2.decide_graph (Gen.path 5));
  check "C6 vc<=2" false (L2.decide_graph (Gen.cycle 6));
  check "C6 vc<=3" true (L3.decide_graph (Gen.cycle 6))

let hamiltonicity_specifics () =
  let module LC = A.Lift.Make (A.Hamiltonian.Cycle_alg) in
  let module LP = A.Lift.Make (A.Hamiltonian.Path_alg) in
  check "C7 ham cycle" true (LC.decide_graph (Gen.cycle 7));
  check "P7 no ham cycle" false (LC.decide_graph (Gen.path 7));
  check "P7 ham path" true (LP.decide_graph (Gen.path 7));
  check "C7 ham path" true (LP.decide_graph (Gen.cycle 7));
  check "star no ham path" false (LP.decide_graph (Gen.star 3));
  check "grid23 ham cycle" true (LC.decide_graph (Gen.grid 2 3));
  check "K23 no ham cycle" false
    (LC.decide_graph (Gen.complete_bipartite 2 3));
  check "K23 ham path" true (LP.decide_graph (Gen.complete_bipartite 2 3))

let clique_vs_triangle_free =
  qcheck ~count:100 "K3 containment = not triangle-free"
    (arb_trace ~max_k:4 ~max_ops:16)
    (fun tr ->
      let g = Tr.eval tr in
      let module LK = A.Lift.Make (K3) in
      let module LT = A.Lift.Make (A.Triangle_free) in
      LK.decide_graph g = not (LT.decide_graph g))

let diameter_specifics () =
  let module L2 = A.Lift.Make (Diam2) in
  check "star diam 2" true (L2.decide_graph (Gen.star 7));
  check "P4 diam 3 > 2" false (L2.decide_graph (Gen.path 4));
  check "C5 diam 2" true (L2.decide_graph (Gen.cycle 5));
  check "C6 diam 3 > 2" false (L2.decide_graph (Gen.cycle 6));
  check "disconnected rejected" false
    (L2.decide_graph (G.disjoint_union (Gen.path 2) (Gen.path 2)));
  check "K4 diam 1 <= 2" true (L2.decide_graph (Gen.complete 4))

(* ---------------------------------------------------------------- *)
(* decode's canonical check: a decoded state already in canonical form
   is kept as read, any other is re-canonicalized. Both branches must
   give what the full re-canonicalization gives, on adversarial inputs
   too: unsorted, duplicate and empty classes. *)

module B = Lcp_util.Bitenc
module SP = A.Slot_partition

let arb_raw_classes =
  QCheck.(
    list_of_size Gen.(int_range 0 6)
      (list_of_size Gen.(int_range 0 5) (int_bound 9)))

(* the wire format of [Slot_partition.encode], written for arbitrary
   class lists *)
let write_classes w classes =
  B.varint w (List.length classes);
  List.iter
    (fun c ->
      B.varint w (List.length c);
      List.iter (B.varint w) c)
    classes

let decode_with write x =
  let w = B.writer () in
  write w x;
  B.reader_of_writer w

let prop_slot_partition_decode =
  qcheck ~count:500 "Slot_partition.decode = canonical, adversarial input"
    arb_raw_classes (fun raw ->
      let canon = SP.classes (SP.canonical raw) in
      (* raw input: usually the re-canonicalizing branch *)
      SP.classes (SP.decode (decode_with write_classes raw)) = canon
      (* canonical input: the branch that keeps what it read *)
      && SP.classes (SP.decode (decode_with write_classes canon)) = canon)

(* a deterministic reshuffle that [canonical] undoes: classes reversed,
   every class reversed *)
let scramble classes = List.rev_map List.rev classes

let prop_bipartite_decode =
  qcheck ~count:300 "Bipartite.decode: canonical and scrambled input agree"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 5)
           (list_of_size Gen.(int_range 0 4) (pair (int_bound 9) bool)))
        bool)
    (fun (raw, odd) ->
      let write w classes =
        B.varint w (List.length classes);
        List.iter
          (fun c ->
            B.varint w (List.length c);
            List.iter
              (fun (s, p) ->
                B.varint w s;
                B.bit w p)
              c)
          classes;
        B.bit w odd
      in
      let read r =
        let rec read_n n f = if n = 0 then [] else
          let x = f () in
          x :: read_n (n - 1) f
        in
        read_n (B.read_varint r) (fun () ->
            read_n (B.read_varint r) (fun () ->
                let s = B.read_varint r in
                (s, B.read_bit r)))
      in
      let decode classes = A.Bipartite.decode (decode_with write classes) in
      let st = decode raw in
      (* the classes [st] holds, as the decoder will meet them again *)
      let held =
        let w = B.writer () in
        A.Bipartite.encode w st;
        read (B.reader_of_writer w)
      in
      st = decode (scramble raw) && decode held = decode (scramble held))

let prop_matching_decode =
  qcheck ~count:300 "Matching.decode: canonical and scrambled input agree"
    QCheck.(
      pair (int_range 0 4)
        (list_of_size Gen.(int_range 0 6) (list_of_size (Gen.return 4) bool)))
    (fun (nslots, bitmaps) ->
      let write w bitmaps =
        B.varint w nslots;
        for s = 0 to nslots - 1 do
          B.varint w (2 * s)
        done;
        B.varint w (List.length bitmaps);
        List.iter
          (fun bm -> List.iteri (fun i b -> if i < nslots then B.bit w b) bm)
          bitmaps
      in
      let st = A.Matching.decode (decode_with write bitmaps) in
      let w = B.writer () in
      A.Matching.encode w st;
      let st' = A.Matching.decode (B.reader_of_writer w) in
      st = A.Matching.decode (decode_with write (List.rev bitmaps))
      && st = A.Matching.decode (decode_with write (bitmaps @ bitmaps))
      && st' = st)

(* A corrupt profile count must not cost a read per profile: 2^40
   profiles over no slots decode at once to the one empty profile they
   canonicalize to, and over one slot they run out of data. The first
   used to overflow the stack inside Bundle.decode, which turns only
   Invalid_argument into an Error. *)
let matching_corrupt_count () =
  let g = Lcp_graph.Graph.of_edges ~n:2 [ (0, 1) ] in
  let bundle nslots nprofiles =
    let w = B.writer () in
    B.varint w 2;
    B.varint w 1;
    B.varint w nslots;
    for s = 0 to nslots - 1 do
      B.varint w s
    done;
    B.varint w nprofiles;
    { Lcp_service.Bundle.bytes = B.to_bytes w; bits = B.length_bits w }
  in
  let decode nslots nprofiles =
    Lcp_service.Bundle.decode ~decode_label:A.Matching.decode g
      (bundle nslots nprofiles)
  in
  let state = function
    | Ok labels -> Lcp_pls.Scheme.Edge_map.find labels (0, 1)
    | Error e -> Alcotest.fail e
  in
  check "2^40 empty profiles are one" true
    (state (decode 0 (1 lsl 40)) = state (decode 0 1));
  check "2^40 one-slot profiles are out of data" true
    (Result.is_error (decode 1 (1 lsl 40)))

let suite =
  ( "algebra",
    List.map exhaustive_small catalogue
    @ List.map via_hierarchy catalogue
    @ [
        test "slot independence" slot_independence;
        test "combinators" combinators;
        test "state encoding deterministic" state_encoding_deterministic;
        test "connectivity closed cap" connectivity_closed_cap;
        test "vertex cover budgets" vertex_cover_budgets;
        test "hamiltonicity specifics" hamiltonicity_specifics;
        clique_vs_triangle_free;
        test "diameter specifics" diameter_specifics;
        prop_slot_partition_decode;
        prop_bipartite_decode;
        prop_matching_decode;
        test "Matching.decode: a corrupt profile count is total"
          matching_corrupt_count;
      ] )
