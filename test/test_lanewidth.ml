(* Tests for §5: k-lane graphs, merges, traces (Def 5.1), Prop 5.2 both
   directions, hierarchical decompositions (Obs 5.5), and the Prop 5.6
   builder. *)

open Test_util
module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module Rep = Lcp_interval.Representation
module LP = Lcp_lanes.Lane_partition
module Cmp = Lcp_lanes.Completion
module LC = Lcp_lanes.Low_congestion
module K = Lcp_lanewidth.Klane
module M = Lcp_lanewidth.Merge
module Tr = Lcp_lanewidth.Trace
module P52 = Lcp_lanewidth.Prop52
module H = Lcp_lanewidth.Hierarchy
module Bld = Lcp_lanewidth.Builder

let host = Gen.grid 3 3

let klane_validation () =
  let ok =
    K.make ~host ~vertices:[ 0; 1; 2 ]
      ~edges:[ (0, 1); (1, 2) ]
      ~lane_in:[ (0, 0) ] ~lane_out:[ (0, 2) ]
  in
  check "lanes" true (K.lanes ok = [ 0 ]);
  check_int "tau_in" 0 (K.tau_in ok 0);
  check_int "tau_out" 2 (K.tau_out ok 0);
  check "connected" true (K.is_connected ok);
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "edge outside host" true
    (raises (fun () ->
         ignore
           (K.make ~host ~vertices:[ 0; 4 ] ~edges:[ (0, 4) ]
              ~lane_in:[ (0, 0) ] ~lane_out:[ (0, 4) ])));
  check "terminal outside vertices" true
    (raises (fun () ->
         ignore
           (K.make ~host ~vertices:[ 0 ] ~edges:[] ~lane_in:[ (0, 1) ]
              ~lane_out:[ (0, 1) ])));
  check "non-injective terminals" true
    (raises (fun () ->
         ignore
           (K.make ~host ~vertices:[ 0; 1 ] ~edges:[ (0, 1) ]
              ~lane_in:[ (0, 0); (1, 0) ]
              ~lane_out:[ (0, 1); (1, 0) ])));
  check "empty lane set" true
    (raises (fun () ->
         ignore (K.make ~host ~vertices:[ 0 ] ~edges:[] ~lane_in:[] ~lane_out:[])))

let klane_builders () =
  let v = K.singleton ~host ~lane:2 5 in
  check "singleton" true (K.tau_in v 2 = 5 && K.tau_out v 2 = 5);
  let e = K.single_edge ~host ~lane:0 ~t_in:0 ~t_out:1 in
  check "single edge" true (e.K.edges = [ (0, 1) ]);
  let p = K.of_path ~host [ 0; 1; 2 ] in
  check "path lanes" true (K.lanes p = [ 0; 1; 2 ]);
  check "path terminals" true (K.tau_in p 1 = 1 && K.tau_out p 1 = 1)

let bridge_merge () =
  (* grid edge 1-2 bridges two singletons *)
  let a = K.singleton ~host ~lane:0 1 and b = K.singleton ~host ~lane:1 2 in
  let m = M.bridge_merge a b ~i:0 ~j:1 in
  check "lanes" true (K.lanes m = [ 0; 1 ]);
  check "edges" true (m.K.edges = [ (1, 2) ]);
  check "terminals" true (K.tau_out m 0 = 1 && K.tau_out m 1 = 2);
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "no host edge" true
    (raises (fun () ->
         ignore
           (M.bridge_merge (K.singleton ~host ~lane:0 0)
              (K.singleton ~host ~lane:1 8)
              ~i:0 ~j:1)));
  check "overlapping lanes" true
    (raises (fun () ->
         ignore
           (M.bridge_merge (K.singleton ~host ~lane:0 1)
              (K.singleton ~host ~lane:0 2)
              ~i:0 ~j:0)));
  check "shared vertex" true
    (raises (fun () ->
         ignore
           (M.bridge_merge (K.singleton ~host ~lane:0 1)
              (K.singleton ~host ~lane:1 1)
              ~i:0 ~j:1)))

let parent_merge () =
  (* parent path 0-1 (lane 0: out 1); child edge 1-2 extending the lane *)
  let parent =
    K.make ~host ~vertices:[ 0; 1 ] ~edges:[ (0, 1) ] ~lane_in:[ (0, 0) ]
      ~lane_out:[ (0, 1) ]
  in
  let child = K.single_edge ~host ~lane:0 ~t_in:1 ~t_out:2 in
  let m = M.parent_merge ~child ~parent in
  check "vertices" true (m.K.vertices = [ 0; 1; 2 ]);
  check "in from parent" true (K.tau_in m 0 = 0);
  check "out from child" true (K.tau_out m 0 = 2);
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "terminal mismatch" true
    (raises (fun () ->
         ignore
           (M.parent_merge
              ~child:(K.single_edge ~host ~lane:0 ~t_in:2 ~t_out:5)
              ~parent)));
  check "edge overlap" true
    (raises (fun () ->
         ignore
           (M.parent_merge
              ~child:
                (K.make ~host ~vertices:[ 0; 1 ] ~edges:[ (0, 1) ]
                   ~lane_in:[ (0, 1) ] ~lane_out:[ (0, 0) ])
              ~parent)))

let tree_merge_assoc () =
  (* a path grown by two children in one Tree-merge *)
  let p = K.of_path ~host [ 0; 1 ] in
  let c0 = K.single_edge ~host ~lane:0 ~t_in:0 ~t_out:3 in
  let c1 = K.single_edge ~host ~lane:1 ~t_in:1 ~t_out:2 in
  let t =
    M.tree_merge
      { M.piece = p; children = [ { M.piece = c0; children = [] };
                                  { M.piece = c1; children = [] } ] }
  in
  check "vertices" true (t.K.vertices = [ 0; 1; 2; 3 ]);
  check "out0" true (K.tau_out t 0 = 3);
  check "out1" true (K.tau_out t 1 = 2);
  (* sibling lane overlap rejected *)
  let c1' = K.single_edge ~host ~lane:0 ~t_in:1 ~t_out:2 in
  check "sibling overlap" true
    (try
       ignore
         (M.tree_merge
            { M.piece = p; children = [ { M.piece = c0; children = [] };
                                        { M.piece = c1'; children = [] } ] });
       false
     with Invalid_argument _ -> true)

let trace_eval () =
  (* the Fig 7 style example: path of 2, grow lane 0 twice, close a cycle *)
  let tr =
    { Tr.k = 2; ops = [ Tr.V_insert 0; Tr.V_insert 0; Tr.E_insert (0, 1) ] }
  in
  check "valid" true (Tr.validate tr = Ok ());
  let g = Tr.eval tr in
  check_int "n" 4 (G.n g);
  check_int "m" 4 (G.m g);
  check "is C4" true (G.is_isomorphic g (Gen.cycle 4));
  Alcotest.(check (array int)) "final designated" [| 3; 1 |] (Tr.final_designated tr);
  Alcotest.(check (array int)) "lanes" [| 0; 1; 0; 0 |] (Tr.lane_assignment tr)

let trace_validation () =
  check "duplicate edge rejected" true
    (Tr.validate { Tr.k = 2; ops = [ Tr.E_insert (0, 1) ] } <> Ok ());
  check "equal lanes rejected" true
    (Tr.validate { Tr.k = 2; ops = [ Tr.E_insert (1, 1) ] } <> Ok ());
  check "lane out of range" true
    (Tr.validate { Tr.k = 2; ops = [ Tr.V_insert 5 ] } <> Ok ());
  check "fresh edge ok" true
    (Tr.validate { Tr.k = 2; ops = [ Tr.V_insert 0; Tr.E_insert (0, 1) ] } = Ok ())

let designated_history () =
  let tr = { Tr.k = 1; ops = [ Tr.V_insert 0; Tr.V_insert 0 ] } in
  check "history" true
    (Tr.designated_history tr = [ (0, 0, 0); (1, 1, 1); (2, 2, 2) ])

let prop52_trace_to_completion =
  qcheck ~count:150 "Prop 5.2: trace -> completion"
    (arb_trace ~max_k:5 ~max_ops:40)
    (fun tr ->
      let _, part = P52.completion_of_trace tr in
      G.equal (Cmp.completion part) (Tr.eval tr))

let prop52_roundtrip =
  qcheck ~count:100 "Prop 5.2: partition -> trace -> completion"
    (arb_pw_graph ~max_k:3 ~max_n:40)
    (fun (_, g, ivs) ->
      let rep = rep_of (g, ivs) in
      let r = LC.construct rep in
      P52.check_roundtrip r.LC.partition)

let builder_on_traces =
  qcheck ~count:150 "Prop 5.6: hierarchy from trace"
    (arb_trace ~max_k:5 ~max_ops:40)
    (fun tr ->
      let h = Bld.of_trace tr in
      let g = Tr.eval tr in
      H.validate h = Ok ()
      && H.depth h <= 2 * tr.Tr.k
      && H.edge_congestion h <= 2 * tr.Tr.k
      && G.equal (G.of_edges ~n:(G.n g) (H.klane_of h).K.edges) g
      && H.fold (fun acc n -> acc && K.is_connected (H.klane_of n)) true h)

let builder_full_pipeline =
  qcheck ~count:60 "full pipeline hierarchy over completions"
    (arb_pw_graph ~max_k:3 ~max_n:40)
    (fun (_, g, ivs) ->
      let rep = rep_of (g, ivs) in
      let r = LC.construct rep in
      let part = r.LC.partition in
      let tr, to_host = P52.trace_of_partition part in
      let host = Cmp.completion part in
      let h = Bld.of_trace_on ~host ~to_host tr in
      let kk = LP.lane_count part in
      H.validate h = Ok ()
      && H.depth h <= 2 * kk
      && G.equal (G.of_edges ~n:(G.n host) (H.klane_of h).K.edges) host)

(* The merges as they were first written: every precondition checked
   with list scans, the result rebuilt and re-validated by [Klane.make]
   from the concatenated parts. The linear merges must agree with them,
   result for result and diagnostic for diagnostic. *)
module Reference = struct
  let disjoint l1 l2 = List.for_all (fun x -> not (List.mem x l2)) l1

  let bridge_merge (g1 : K.t) (g2 : K.t) ~i ~j =
    if g1.K.host != g2.K.host then
      invalid_arg "Merge.bridge_merge: different hosts";
    if not (disjoint (K.lanes g1) (K.lanes g2)) then
      invalid_arg "Merge.bridge_merge: lane sets not disjoint";
    if not (disjoint g1.K.vertices g2.K.vertices) then
      invalid_arg "Merge.bridge_merge: vertex sets not disjoint";
    let a = K.tau_out g1 i and b = K.tau_out g2 j in
    if not (G.mem_edge g1.K.host a b) then
      invalid_arg "Merge.bridge_merge: bridge is not a host edge";
    K.make ~host:g1.K.host
      ~vertices:(g1.K.vertices @ g2.K.vertices)
      ~edges:(G.canonical_edge a b :: (g1.K.edges @ g2.K.edges))
      ~lane_in:(g1.K.lane_in @ g2.K.lane_in)
      ~lane_out:(g1.K.lane_out @ g2.K.lane_out)

  let parent_merge ~(child : K.t) ~(parent : K.t) =
    if child.K.host != parent.K.host then
      invalid_arg "Merge.parent_merge: different hosts";
    let cl = K.lanes child and pl = K.lanes parent in
    if not (List.for_all (fun i -> List.mem i pl) cl) then
      invalid_arg "Merge.parent_merge: child lanes not a subset of parent lanes";
    let identified =
      List.map
        (fun i ->
          let tin = K.tau_in child i and tout = K.tau_out parent i in
          if tin <> tout then
            invalid_arg
              (Printf.sprintf
                 "Merge.parent_merge: lane %d: child in-terminal %d is not \
                  the parent out-terminal %d"
                 i tin tout);
          tin)
        cl
    in
    let shared =
      List.filter (fun v -> List.mem v parent.K.vertices) child.K.vertices
    in
    if List.sort_uniq compare shared <> List.sort_uniq compare identified then
      invalid_arg
        "Merge.parent_merge: vertex sets overlap beyond the identified terminals";
    if not (disjoint child.K.edges parent.K.edges) then
      invalid_arg "Merge.parent_merge: edge sets not disjoint";
    let lane_out =
      List.map
        (fun i ->
          match K.tau_out_opt child i with
          | Some v -> (i, v)
          | None -> (i, K.tau_out parent i))
        pl
    in
    K.make ~host:parent.K.host
      ~vertices:(child.K.vertices @ parent.K.vertices)
      ~edges:(child.K.edges @ parent.K.edges)
      ~lane_in:parent.K.lane_in ~lane_out
end

let outcome f = match f () with k -> Ok k | exception Invalid_argument m -> Error m

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> K.equal x y
  | Error m, Error m' -> m = m'
  | _ -> false

(* valid, and already in the form [Klane.make] gives its own parts *)
let normal (k : K.t) =
  let host = k.K.host
  and vertices = k.K.vertices
  and edges = k.K.edges
  and lane_in = k.K.lane_in
  and lane_out = k.K.lane_out in
  K.validate ~host ~vertices ~edges ~lane_in ~lane_out = Ok ()
  && K.equal k (K.make ~host ~vertices ~edges ~lane_in ~lane_out)

(* the hierarchies of both lane partitions of a random pathwidth graph *)
let hierarchies (g, ivs) =
  let rep = rep_of (g, ivs) in
  List.map
    (fun part ->
      let tr, to_host = P52.trace_of_partition part in
      Bld.of_trace_on ~host:(Cmp.completion part) ~to_host tr)
    [ (LC.construct rep).LC.partition; LP.of_greedy_coloring rep ]

(* Every merge the builder made, recomputed by the reference: equal, and
   in normal form. Then merges of random node pairs, nearly all of which
   break a precondition: the same result or the same diagnostic. *)
let linear_merges =
  qcheck ~count:80 "linear merges equal the re-validating reference"
    (QCheck.pair (arb_pw_graph ~max_k:3 ~max_n:40) QCheck.small_nat)
    (fun ((_, g, ivs), seed) ->
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun h ->
          let rec ttree_ok (t : H.ttree) =
            List.for_all ttree_ok t.H.children
            && normal t.H.merged
            && K.equal t.H.merged
                 (List.fold_left
                    (fun acc (c : H.ttree) ->
                      Reference.parent_merge ~child:c.H.merged ~parent:acc)
                    (H.klane_of t.H.piece) t.H.children)
          in
          let node_ok = function
            | H.B_node { result; left; right; i; j } ->
                normal result
                && K.equal result
                     (Reference.bridge_merge (H.klane_of left)
                        (H.klane_of right) ~i ~j)
            | H.T_node { tree; _ } -> ttree_ok tree
            | H.V_node _ | H.E_node _ | H.P_node _ -> true
          in
          let nodes = Array.of_list (H.fold (fun acc n -> H.klane_of n :: acc) [] h) in
          let pick () = nodes.(Random.State.int st (Array.length nodes)) in
          let lane () = Random.State.int st 4 in
          H.fold (fun acc n -> acc && node_ok n) true h
          && List.for_all
               (fun _ ->
                 let a = pick () and b = pick () in
                 let i = lane () and j = lane () in
                 same_outcome
                   (outcome (fun () -> M.bridge_merge a b ~i ~j))
                   (outcome (fun () -> Reference.bridge_merge a b ~i ~j))
                 && same_outcome
                      (outcome (fun () -> M.parent_merge ~child:a ~parent:b))
                      (outcome (fun () -> Reference.parent_merge ~child:a ~parent:b)))
               (List.init 40 Fun.id))
        (hierarchies (g, ivs)))

let hierarchy_structure () =
  let tr =
    { Tr.k = 2; ops = [ Tr.V_insert 0; Tr.V_insert 1; Tr.E_insert (0, 1) ] }
  in
  let h = Bld.of_trace tr in
  check "validates" true (H.validate h = Ok ());
  check "root is T-node" true (match h with H.T_node _ -> true | _ -> false);
  check "max lane" true (H.max_lane h = 1);
  check "node count" true (H.node_count h >= 4);
  (* summary printing smoke test *)
  let s = Format.asprintf "%a" H.pp_summary h in
  check "summary mentions depth" true
    (String.length s > 0 && String.sub s 0 9 = "hierarchy")

let validate_catches_corruption () =
  let tr =
    { Tr.k = 2; ops = [ Tr.V_insert 0; Tr.V_insert 1; Tr.E_insert (0, 1) ] }
  in
  match Bld.of_trace tr with
  | H.T_node { t_result; tree } ->
      (* corrupt: claim a different result k-lane graph *)
      let host = Tr.eval tr in
      let fake = K.singleton ~host ~lane:0 0 in
      check "corrupt result caught" true
        (H.validate (H.T_node { t_result = fake; tree }) <> Ok ());
      ignore t_result
  | _ -> Alcotest.fail "expected T-node"

let suite =
  ( "lanewidth",
    [
      test "klane validation" klane_validation;
      test "klane builders" klane_builders;
      test "bridge merge (Fig 8)" bridge_merge;
      test "parent merge (Fig 8)" parent_merge;
      test "tree merge (Fig 9)" tree_merge_assoc;
      test "trace evaluation (Def 5.1)" trace_eval;
      test "trace validation" trace_validation;
      test "designated history" designated_history;
      prop52_trace_to_completion;
      prop52_roundtrip;
      builder_on_traces;
      builder_full_pipeline;
      linear_merges;
      test "hierarchy structure" hierarchy_structure;
      test "validation catches corruption" validate_catches_corruption;
    ] )
