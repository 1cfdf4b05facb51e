module Graph = Lcp_graph.Graph
module Bitenc = Lcp_util.Bitenc

module Edge_map = struct
  (* keys compared component by component: [compare] at type
     [int * int] is polymorphic compare, a C call at every node visit,
     where on [int]s it compiles inline. The order is the same, so
     bindings, and every bundle built from them, keep their order. *)
  module M = Map.Make (struct
    type t = int * int

    let compare ((a, b) : t) ((c, d) : t) =
      if a <> c then compare a c else compare b d
  end)

  type 'l t = 'l M.t

  let empty = M.empty
  let canon (u, v) = Graph.canonical_edge u v
  let add m e l = M.add (canon e) l m
  let remove m e = M.remove (canon e) m
  let find m e = M.find_opt (canon e) m
  let of_list l = List.fold_left (fun m (e, lab) -> add m e lab) empty l
  let bindings m = M.bindings m
  let map f m = M.map f m
  let cardinal = M.cardinal
end

type 'l edge_view = {
  ev_id : int;
  ev_degree : int;
  ev_labels : 'l list;
}

type 'l vertex_view = {
  vv_id : int;
  vv_label : 'l;
  vv_neighbors : (int * 'l) list;
}

type outcome = Accepted | Rejected of (int * string) list

let accepted = function Accepted -> true | Rejected _ -> false

type 'l edge_scheme = {
  es_name : string;
  es_prove : Config.t -> 'l Edge_map.t option;
  es_verify : 'l edge_view -> (unit, string) result;
  es_encode : Lcp_util.Bitenc.writer -> 'l -> unit;
}

type 'l vertex_scheme = {
  vs_name : string;
  vs_prove : Config.t -> 'l array option;
  vs_verify : 'l vertex_view -> (unit, string) result;
  vs_encode : Lcp_util.Bitenc.writer -> 'l -> unit;
}

(* A deleted label is a fault the verifier must *detect*, not a harness
   error: a vertex missing an incident label rejects instead of raising.
   (Provers are trusted to emit total labelings — [certify_edge] and
   [edge_to_vertex] still treat a partial map as a programming error.) *)
let edge_view cfg labels v =
  let g = Config.graph cfg in
  let incident =
    List.filter_map (fun w -> Edge_map.find labels (v, w)) (Graph.neighbors g v)
  in
  let view =
    { ev_id = Config.id cfg v; ev_degree = Graph.degree g v; ev_labels = incident }
  in
  if List.length incident < Graph.degree g v then Error view else Ok view

let missing_label = "missing label"

let run_edge cfg scheme labels =
  let g = Config.graph cfg in
  let rejections =
    Graph.fold_vertices
      (fun v acc ->
        match edge_view cfg labels v with
        | Error _ -> (v, missing_label) :: acc
        | Ok view -> (
            match scheme.es_verify view with
            | Ok () -> acc
            | Error reason -> (v, reason) :: acc))
      g []
  in
  match rejections with [] -> Accepted | rs -> Rejected (List.rev rs)

let run_vertex cfg scheme labels =
  let g = Config.graph cfg in
  if Array.length labels <> Graph.n g then
    invalid_arg "Scheme.run_vertex: wrong label count";
  let rejections =
    Graph.fold_vertices
      (fun v acc ->
        let view =
          {
            vv_id = Config.id cfg v;
            vv_label = labels.(v);
            vv_neighbors =
              List.map
                (fun w -> (Config.id cfg w, labels.(w)))
                (Graph.neighbors g v);
          }
        in
        match scheme.vs_verify view with
        | Ok () -> acc
        | Error reason -> (v, reason) :: acc)
      g []
  in
  match rejections with [] -> Accepted | rs -> Rejected (List.rev rs)

let certify_edge cfg scheme =
  match scheme.es_prove cfg with
  | Some labels -> Ok labels
  | None -> Error (scheme.es_name ^ ": prover declined (property violated?)")

(* Every label is encoded into the same writer, reset in between: the
   buffer grows to the largest label once instead of once per label. *)
let encode_bits w encode l =
  Bitenc.reset w;
  encode w l;
  Bitenc.length_bits w

let max_edge_label_bits scheme labels =
  let w = Bitenc.writer () in
  List.fold_left
    (fun acc (_, l) -> max acc (encode_bits w scheme.es_encode l))
    0
    (Edge_map.bindings labels)

let max_vertex_label_bits scheme labels =
  let w = Bitenc.writer () in
  Array.fold_left
    (fun acc l -> max acc (encode_bits w scheme.vs_encode l))
    0 labels

(* Prop 2.1: move each edge label to the tail of a bounded-outdegree
   acyclic orientation, tagged with both endpoint ids so the head can
   attribute it. *)
let edge_to_vertex ~d (es : 'l edge_scheme) =
  let prove cfg =
    match es.es_prove cfg with
    | None -> None
    | Some edge_labels ->
        let g = Config.graph cfg in
        let out = Lcp_graph.Degeneracy.out_edges g in
        let labels =
          Array.mapi
            (fun v heads ->
              List.map
                (fun w ->
                  match Edge_map.find edge_labels (v, w) with
                  | Some l -> (Config.id cfg v, Config.id cfg w, l)
                  | None -> invalid_arg "edge_to_vertex: missing edge label")
                heads)
            out
        in
        Some labels
  in
  let verify view =
    let my = view.vv_id in
    (* own entries must be tagged with our id *)
    let rec check_own = function
      | [] -> Ok ()
      | (tail, _, _) :: rest ->
          if tail <> my then Error "vertex label entry with foreign tail id"
          else check_own rest
    in
    match check_own view.vv_label with
    | Error _ as e -> e
    | Ok () ->
        (* reconstruct incident edge labels: our out-entries must name
           actual neighbors, exactly once per edge; neighbors' entries
           naming us cover the rest *)
        let neighbor_ids = List.map fst view.vv_neighbors in
        let own_heads = List.map (fun (_, h, _) -> h) view.vv_label in
        let rec unique = function
          | [] -> true
          | x :: rest -> (not (List.mem x rest)) && unique rest
        in
        if not (List.for_all (fun h -> List.mem h neighbor_ids) own_heads) then
          Error "out-entry names a non-neighbor"
        else if not (unique own_heads) then Error "duplicate out-entry"
        else begin
          let incoming =
            List.concat_map
              (fun (nid, entries) ->
                List.filter_map
                  (fun (tail, head, l) ->
                    if head = my && tail = nid then Some (nid, l) else None)
                  entries)
              view.vv_neighbors
          in
          let covered =
            List.sort compare (own_heads @ List.map fst incoming)
          in
          if covered <> List.sort compare neighbor_ids then
            Error "incident edges not covered exactly once"
          else
            let labels =
              List.map (fun (_, _, l) -> l) view.vv_label
              @ List.map snd incoming
            in
            es.es_verify
              {
                ev_id = my;
                ev_degree = List.length neighbor_ids;
                ev_labels = labels;
              }
        end
  in
  let encode w entries =
    Bitenc.varint w (List.length entries);
    List.iter
      (fun (tail, head, l) ->
        Bitenc.varint w tail;
        Bitenc.varint w head;
        es.es_encode w l)
      entries
  in
  ignore d;
  {
    vs_name = es.es_name ^ "_on_vertices";
    vs_prove = prove;
    vs_verify = verify;
    vs_encode = encode;
  }
