(* Tests for the graph substrate: construction, traversal, degeneracy,
   union-find, generators, and minor containment. *)

open Test_util
module G = Lcp_graph.Graph
module T = Lcp_graph.Traversal
module D = Lcp_graph.Degeneracy
module UF = Lcp_graph.Union_find
module Gen = Lcp_graph.Gen
module Minor = Lcp_graph.Minor

let construction () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 1); (1, 0) ] in
  check_int "n" 4 (G.n g);
  check_int "m (dedup)" 2 (G.m g);
  check "edge" true (G.mem_edge g 2 1);
  check "no edge" false (G.mem_edge g 0 3);
  check_int "deg 1" 2 (G.degree g 1);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2) ] (G.edges g)

let invalid_construction () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.canonical_edge: self-loop") (fun () ->
      ignore (G.of_edges ~n:2 [ (1, 1) ]));
  check "out of range" true
    (try
       ignore (G.of_edges ~n:2 [ (0, 5) ]);
       false
     with Invalid_argument _ -> true)

let induced_subgraph () =
  let g = Gen.cycle 6 in
  let sub, back = G.induced g [ 0; 1; 2; 4 ] in
  check_int "sub n" 4 (G.n sub);
  check_int "sub m" 2 (G.m sub);
  Alcotest.(check (array int)) "back map" [| 0; 1; 2; 4 |] back

let relabel_roundtrip () =
  let g = Gen.grid 3 2 in
  let perm = [| 3; 1; 4; 0; 5; 2 |] in
  let h = G.relabel g perm in
  check_int "m preserved" (G.m g) (G.m h);
  let inv = Array.make 6 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  check "roundtrip" true (G.equal g (G.relabel h inv))

let contract_and_remove () =
  let g = Gen.cycle 4 in
  let h, _ = G.contract_edge g 0 1 in
  check_int "contracted n" 3 (G.n h);
  check "triangle" true (G.is_isomorphic h (Gen.cycle 3));
  let h2, _ = G.remove_vertex g 0 in
  check "path after removal" true (G.is_isomorphic h2 (Gen.path 3));
  let h3 = G.remove_edge g 0 1 in
  check "path after edge removal" true (G.is_isomorphic h3 (Gen.path 4))

let isomorphism () =
  check "C4 = C4 relabeled" true
    (G.is_isomorphic (Gen.cycle 4) (G.relabel (Gen.cycle 4) [| 2; 0; 3; 1 |]));
  check "C4 <> P4" false (G.is_isomorphic (Gen.cycle 4) (Gen.path 4));
  check "C4 <> K4" false (G.is_isomorphic (Gen.cycle 4) (Gen.complete 4));
  check "star = K1,3" true
    (G.is_isomorphic (Gen.star 3) (Gen.complete_bipartite 1 3))

let disjoint_union () =
  let g = G.disjoint_union (Gen.path 3) (Gen.cycle 3) in
  check_int "n" 6 (G.n g);
  check_int "m" 5 (G.m g);
  check_int "components" 2 (List.length (T.connected_components g))

let bfs_distances () =
  let g = Gen.grid 4 4 in
  let d = T.bfs_from g 0 in
  check_int "corner to corner" 6 d.(15);
  check_int "self" 0 d.(0);
  check_int "adjacent" 1 d.(1);
  check_int "diameter" 6 (T.diameter g)

let components_and_paths () =
  let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  check_int "three components" 3 (List.length (T.connected_components g));
  check "connected components content" true
    (T.connected_components g = [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ]);
  check "no path" true (T.shortest_path g 0 3 = None);
  check "path" true (T.shortest_path g 0 2 = Some [ 0; 1; 2 ]);
  check "any path agrees on existence" true (T.any_path g 0 2 <> None)

let tree_predicates () =
  check "path is tree" true (T.is_tree (Gen.path 5));
  check "cycle not tree" false (T.is_tree (Gen.cycle 5));
  check "path graph" true (T.is_path_graph (Gen.path 5));
  check "star not path" false (T.is_path_graph (Gen.star 3));
  check "cycle graph" true (T.is_cycle_graph (Gen.cycle 5));
  check "path not cycle" false (T.is_cycle_graph (Gen.path 5));
  check "forest acyclic" true
    (T.is_acyclic (G.disjoint_union (Gen.path 3) (Gen.path 2)));
  check "diamond cyclic" false (T.is_acyclic Gen.diamond)

let longest_path () =
  check_int "path" 5 (T.longest_path_length (Gen.path 5));
  check_int "cycle" 6 (T.longest_path_length (Gen.cycle 6));
  check_int "star" 3 (T.longest_path_length (Gen.star 4));
  check_int "grid" 9 (T.longest_path_length (Gen.grid 3 3))

let spanning_tree () =
  let g = Gen.grid 3 3 in
  let es = T.spanning_tree g ~root:4 in
  check_int "tree edges" 8 (List.length es);
  check "is tree" true (T.is_tree (G.of_edges ~n:9 es))

let degeneracy_values () =
  check_int "tree" 1 (D.degeneracy (Gen.random_tree (rng_of_seed 3) 20));
  check_int "cycle" 2 (D.degeneracy (Gen.cycle 10));
  check_int "K5" 4 (D.degeneracy (Gen.complete 5));
  check_int "grid" 2 (D.degeneracy (Gen.grid 4 4))

let orientation_bounds () =
  List.iter
    (fun (name, g) ->
      let d = D.degeneracy g in
      check (name ^ " outdegree") true (D.max_outdegree g <= d);
      check_int (name ^ " covers all edges") (G.m g)
        (List.length (D.orientation g)))
    named_families

let union_find () =
  let uf = UF.create 6 in
  check_int "initial count" 6 (UF.count uf);
  check "union" true (UF.union uf 0 1);
  check "again" false (UF.union uf 1 0);
  ignore (UF.union uf 2 3);
  ignore (UF.union uf 0 3);
  check "same" true (UF.same uf 1 2);
  check "diff" false (UF.same uf 1 4);
  check_int "count" 3 (UF.count uf);
  check "groups" true (UF.groups uf = [ [ 0; 1; 2; 3 ]; [ 4 ]; [ 5 ] ])

let generator_shapes () =
  check_int "path edges" 6 (G.m (Gen.path 7));
  check_int "cycle edges" 7 (G.m (Gen.cycle 7));
  check_int "complete edges" 10 (G.m (Gen.complete 5));
  check_int "bipartite edges" 6 (G.m (Gen.complete_bipartite 2 3));
  check_int "star edges" 5 (G.m (Gen.star 5));
  check_int "caterpillar n" 12 (G.n (Gen.caterpillar ~spine:4 ~legs:2));
  check_int "grid edges" 12 (G.m (Gen.grid 3 3));
  check_int "btree n" 15 (G.n (Gen.binary_tree ~depth:3));
  check "btree is tree" true (T.is_tree (Gen.binary_tree ~depth:3));
  check "random tree is tree" true (T.is_tree (Gen.random_tree (rng_of_seed 1) 30))

let minors_basic () =
  check "K4 has K3 minor" true (Minor.has_minor (Gen.complete 4) ~minor:(Gen.cycle 3));
  check "tree K3-minor-free" true
    (Minor.is_minor_free (Gen.star 5) ~minor:(Gen.cycle 3));
  check "fast k3 = slow k3" true
    (List.for_all
       (fun g -> Minor.has_k3_minor g = Minor.has_minor g ~minor:(Gen.cycle 3))
       small_graphs);
  check "C6 has C3 minor" true (Minor.has_minor (Gen.cycle 6) ~minor:(Gen.cycle 3));
  check "C6 has no K4 minor" true
    (Minor.is_minor_free (Gen.cycle 6) ~minor:(Gen.complete 4));
  check "grid33 has K4 minor" true
    (Minor.has_minor (Gen.grid 3 3) ~minor:(Gen.complete 4));
  check "grid33 has no K5 minor" true
    (Minor.is_minor_free (Gen.grid 3 3) ~minor:(Gen.complete 5));
  check "diamond minor of K4" true
    (Minor.has_minor (Gen.complete 4) ~minor:Gen.diamond)

let path_minor_equiv () =
  List.iter
    (fun g ->
      List.iter
        (fun t ->
          check "path minor = long path" true
            (Minor.has_path_minor g ~t
            = Minor.has_minor g ~minor:(Gen.path t)))
        [ 2; 3; 4 ])
    (List.filteri (fun i _ -> i mod 7 = 0) small_graphs)

let subgraph_tests () =
  check "P3 subgraph of C5" true (Minor.has_subgraph (Gen.cycle 5) ~sub:(Gen.path 3));
  check "C3 not subgraph of C5" false
    (Minor.has_subgraph (Gen.cycle 5) ~sub:(Gen.cycle 3));
  check "K23 subgraph of K33" true
    (Minor.has_subgraph (Gen.complete_bipartite 3 3) ~sub:(Gen.complete_bipartite 2 3))

let excluding_forest () =
  check_int "P4 bound" 2 (Minor.excluding_forest_pathwidth_bound (Gen.path 4));
  check_int "star bound" 3 (Minor.excluding_forest_pathwidth_bound (Gen.star 4));
  check "cycle is not a forest" true
    (try
       ignore (Minor.excluding_forest_pathwidth_bound (Gen.cycle 3));
       false
     with Invalid_argument _ -> true)

let prop_pw_generator =
  qcheck ~count:200 "random_pathwidth: connected with valid witness"
    (arb_pw_graph ~max_k:4 ~max_n:50)
    (fun (k, g, ivs) ->
      T.is_connected g
      && Lcp_interval.Representation.validate g
           (Array.map (fun (l, r) -> Lcp_interval.Interval.make l r) ivs)
         = Ok ()
      && Lcp_interval.Representation.width (rep_of (g, ivs)) <= k + 1)

let prop_shuffle_preserves =
  qcheck "shuffle preserves isomorphism class data"
    (arb_pw_graph ~max_k:3 ~max_n:20)
    (fun (_, g, _) ->
      let h, _ = Gen.shuffle_vertices (rng_of_seed 5) g in
      G.n h = G.n g && G.m h = G.m g
      && List.sort compare
           (G.fold_vertices (fun v acc -> G.degree g v :: acc) g [])
         = List.sort compare
             (G.fold_vertices (fun v acc -> G.degree h v :: acc) h []))

(* every pair, two isolated vertices included: the batched searches
   give [shortest_path]'s paths and [None]s, in order *)
let prop_shortest_paths =
  qcheck ~count:100 "shortest_paths = shortest_path on every pair"
    (arb_pw_graph ~max_k:3 ~max_n:25)
    (fun (_, g, _) ->
      let n = G.n g + 2 in
      let g = G.of_edges ~n (G.edges g) in
      let pairs = List.concat (List.init n (fun s -> List.init n (fun t -> (s, t)))) in
      T.shortest_paths g pairs
      = List.map (fun (s, t) -> T.shortest_path g s t) pairs)

let suite =
  ( "graph",
    [
      test "construction" construction;
      test "invalid construction" invalid_construction;
      test "induced subgraph" induced_subgraph;
      test "relabel roundtrip" relabel_roundtrip;
      test "contract and remove" contract_and_remove;
      test "isomorphism" isomorphism;
      test "disjoint union" disjoint_union;
      test "bfs distances" bfs_distances;
      test "components and paths" components_and_paths;
      test "tree predicates" tree_predicates;
      test "longest path" longest_path;
      test "spanning tree" spanning_tree;
      test "degeneracy values" degeneracy_values;
      test "orientation bounds" orientation_bounds;
      test "union find" union_find;
      test "generator shapes" generator_shapes;
      test "minors basic" minors_basic;
      slow_test "path minor equivalence" path_minor_equiv;
      test "subgraph containment" subgraph_tests;
      test "excluding forest bound" excluding_forest;
      prop_pw_generator;
      prop_shuffle_preserves;
      prop_shortest_paths;
    ] )
