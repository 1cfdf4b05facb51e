module Graph = Lcp_graph.Graph

(* Every list a [Klane.t] holds is sorted without repeats, an invariant
   of [Klane.make], so the set tests and unions below are linear walks.
   The results are built with [Klane.unchecked]: each merge checks its
   preconditions, and those imply a valid result (DESIGN, "Why the
   merges do not re-validate"). *)

let by_lane (a, _) (b, _) = Int.compare a b

let edge_compare (u, v) (u', v') =
  let c = Int.compare u u' in
  if c <> 0 then c else Int.compare v v'

let rec disjoint cmp a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | x :: a', y :: b' ->
      let c = cmp x y in
      if c < 0 then disjoint cmp a' b
      else if c > 0 then disjoint cmp a b'
      else false

let rec subset cmp a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: a', y :: b' ->
      let c = cmp x y in
      if c < 0 then false else if c > 0 then subset cmp a b' else subset cmp a' b'

(* the sorted union; an element in both lists appears once *)
let[@tail_mod_cons] rec union cmp a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      let c = cmp x y in
      if c < 0 then x :: union cmp a' b
      else if c > 0 then y :: union cmp a b'
      else x :: union cmp a' b'

let[@tail_mod_cons] rec inter cmp a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: a', y :: b' ->
      let c = cmp x y in
      if c < 0 then inter cmp a' b
      else if c > 0 then inter cmp a b'
      else x :: inter cmp a' b'

let bridge_merge (g1 : Klane.t) (g2 : Klane.t) ~i ~j =
  if g1.Klane.host != g2.Klane.host then
    invalid_arg "Merge.bridge_merge: different hosts";
  if not (disjoint by_lane g1.Klane.lane_in g2.Klane.lane_in) then
    invalid_arg "Merge.bridge_merge: lane sets not disjoint";
  if not (disjoint Int.compare g1.Klane.vertices g2.Klane.vertices) then
    invalid_arg "Merge.bridge_merge: vertex sets not disjoint";
  let a = Klane.tau_out g1 i and b = Klane.tau_out g2 j in
  if not (Graph.mem_edge g1.Klane.host a b) then
    invalid_arg "Merge.bridge_merge: bridge is not a host edge";
  Klane.unchecked ~host:g1.Klane.host
    ~vertices:(union Int.compare g1.Klane.vertices g2.Klane.vertices)
    ~edges:
      (union edge_compare
         [ Graph.canonical_edge a b ]
         (union edge_compare g1.Klane.edges g2.Klane.edges))
    ~lane_in:(union by_lane g1.Klane.lane_in g2.Klane.lane_in)
    ~lane_out:(union by_lane g1.Klane.lane_out g2.Klane.lane_out)

let parent_merge ~(child : Klane.t) ~(parent : Klane.t) =
  if child.Klane.host != parent.Klane.host then
    invalid_arg "Merge.parent_merge: different hosts";
  if not (subset by_lane child.Klane.lane_in parent.Klane.lane_in) then
    invalid_arg "Merge.parent_merge: child lanes not a subset of parent lanes";
  (* the child's in-terminals, in lane order; the parent's out-terminal
     map covers every child lane *)
  let rec identify cin pout =
    match (cin, pout) with
    | [], _ -> []
    | (i, tin) :: cin', (l, tout) :: pout' ->
        if l < i then identify cin pout'
        else if tin <> tout then
          invalid_arg
            (Printf.sprintf
               "Merge.parent_merge: lane %d: child in-terminal %d is not the \
                parent out-terminal %d"
               i tin tout)
        else tin :: identify cin' pout'
    | _ :: _, [] -> assert false
  in
  let identified = identify child.Klane.lane_in parent.Klane.lane_out in
  if
    inter Int.compare child.Klane.vertices parent.Klane.vertices
    <> List.sort Int.compare identified
  then
    invalid_arg
      "Merge.parent_merge: vertex sets overlap beyond the identified terminals";
  if not (disjoint edge_compare child.Klane.edges parent.Klane.edges) then
    invalid_arg "Merge.parent_merge: edge sets not disjoint";
  (* out-terminals from the child on its lanes, from the parent elsewhere *)
  let rec lane_out pout cout =
    match (pout, cout) with
    | [], _ -> []
    | (i, _) :: pout', (l, w) :: cout' when l = i -> (i, w) :: lane_out pout' cout'
    | p :: pout', _ -> p :: lane_out pout' cout
  in
  Klane.unchecked ~host:parent.Klane.host
    ~vertices:(union Int.compare child.Klane.vertices parent.Klane.vertices)
    ~edges:(union edge_compare child.Klane.edges parent.Klane.edges)
    ~lane_in:parent.Klane.lane_in
    ~lane_out:(lane_out parent.Klane.lane_out child.Klane.lane_out)

type tree = { piece : Klane.t; children : tree list }

let validate_tree tree =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go { piece; children } =
    let pl = Klane.lanes piece in
    let rec siblings = function
      | [] -> Ok ()
      | c :: rest ->
          if
            not
              (subset Int.compare (Klane.lanes c.piece) pl)
          then err "child lanes not a subset of parent lanes"
          else if
            List.exists
              (fun c' ->
                not
                  (disjoint Int.compare (Klane.lanes c.piece) (Klane.lanes c'.piece)))
              rest
          then err "siblings share a lane"
          else siblings rest
    in
    match siblings children with
    | Error _ as e -> e
    | Ok () ->
        List.fold_left
          (fun acc c -> match acc with Error _ -> acc | Ok () -> go c)
          (Ok ()) children
  in
  go tree

let tree_merge tree =
  (match validate_tree tree with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Merge.tree_merge: " ^ msg));
  let rec merge { piece; children } =
    List.fold_left
      (fun acc c -> parent_merge ~child:(merge c) ~parent:acc)
      piece children
  in
  merge tree
