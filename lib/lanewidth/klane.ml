module Graph = Lcp_graph.Graph

type t = {
  host : Graph.t;
  vertices : int list;
  edges : Graph.edge list;
  lane_in : (int * int) list;
  lane_out : (int * int) list;
}

let validate ~host ~vertices ~edges ~lane_in ~lane_out =
  let vertices = List.sort_uniq compare vertices in
  let vset = Hashtbl.create (List.length vertices) in
  List.iter (fun v -> Hashtbl.replace vset v ()) vertices;
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_vertices = function
    | [] -> Ok ()
    | v :: rest ->
        if v < 0 || v >= Graph.n host then err "vertex %d not in host" v
        else check_vertices rest
  in
  let rec check_edges = function
    | [] -> Ok ()
    | (u, v) :: rest ->
        if not (Graph.mem_edge host u v) then err "edge %d-%d not in host" u v
        else if not (Hashtbl.mem vset u && Hashtbl.mem vset v) then
          err "edge %d-%d has an endpoint outside the vertex set" u v
        else check_edges rest
  in
  let injective pairs =
    let imgs = List.map snd pairs in
    List.length (List.sort_uniq compare imgs) = List.length imgs
  in
  let check_terminals name pairs =
    let rec go = function
      | [] -> Ok ()
      | (lane, v) :: rest ->
          if lane < 0 then err "%s: negative lane %d" name lane
          else if not (Hashtbl.mem vset v) then
            err "%s terminal %d of lane %d not in vertex set" name v lane
          else go rest
    in
    if not (injective pairs) then err "%s terminal map not injective" name
    else go pairs
  in
  let lanes_of pairs = List.sort compare (List.map fst pairs) in
  if vertices = [] then err "empty vertex set"
  else if lane_in = [] then err "empty lane set"
  else if lanes_of lane_in <> lanes_of lane_out then
    err "in and out terminal maps cover different lanes"
  else if
    List.length (List.sort_uniq compare (lanes_of lane_in))
    <> List.length lane_in
  then err "duplicate lane"
  else
    match check_vertices vertices with
    | Error _ as e -> e
    | Ok () -> (
        match check_edges edges with
        | Error _ as e -> e
        | Ok () -> (
            match check_terminals "in" lane_in with
            | Error _ as e -> e
            | Ok () -> check_terminals "out" lane_out))

let make ~host ~vertices ~edges ~lane_in ~lane_out =
  match validate ~host ~vertices ~edges ~lane_in ~lane_out with
  | Error msg -> invalid_arg ("Klane.make: " ^ msg)
  | Ok () ->
      {
        host;
        vertices = List.sort_uniq compare vertices;
        edges =
          List.sort_uniq compare
            (List.map (fun (u, v) -> Graph.canonical_edge u v) edges);
        lane_in = List.sort compare lane_in;
        lane_out = List.sort compare lane_out;
      }

let unchecked ~host ~vertices ~edges ~lane_in ~lane_out =
  { host; vertices; edges; lane_in; lane_out }

let singleton ~host ~lane v =
  make ~host ~vertices:[ v ] ~edges:[] ~lane_in:[ (lane, v) ]
    ~lane_out:[ (lane, v) ]

let single_edge ~host ~lane ~t_in ~t_out =
  if t_in = t_out then invalid_arg "Klane.single_edge: equal terminals";
  make ~host ~vertices:[ t_in; t_out ]
    ~edges:[ Graph.canonical_edge t_in t_out ]
    ~lane_in:[ (lane, t_in) ]
    ~lane_out:[ (lane, t_out) ]

let of_path ~host vs =
  let rec path_edges = function
    | a :: (b :: _ as rest) -> Graph.canonical_edge a b :: path_edges rest
    | [] | [ _ ] -> []
  in
  let terminals = List.mapi (fun i v -> (i, v)) vs in
  make ~host ~vertices:vs ~edges:(path_edges vs) ~lane_in:terminals
    ~lane_out:terminals

let lanes t = List.map fst t.lane_in

let tau_in_opt t lane = List.assoc_opt lane t.lane_in
let tau_out_opt t lane = List.assoc_opt lane t.lane_out

let tau_in t lane =
  match tau_in_opt t lane with
  | Some v -> v
  | None -> invalid_arg "Klane.tau_in: lane not present"

let tau_out t lane =
  match tau_out_opt t lane with
  | Some v -> v
  | None -> invalid_arg "Klane.tau_out: lane not present"

let mem_vertex t v = List.mem v t.vertices

let is_connected t =
  match t.vertices with
  | [] -> false
  | first :: _ ->
      let uf = Lcp_graph.Union_find.create (Graph.n t.host) in
      List.iter (fun (u, v) -> ignore (Lcp_graph.Union_find.union uf u v)) t.edges;
      List.for_all (fun v -> Lcp_graph.Union_find.same uf first v) t.vertices

let equal a b =
  a.vertices = b.vertices && a.edges = b.edges && a.lane_in = b.lane_in
  && a.lane_out = b.lane_out

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>klane(V={%s}; E={%s};@ in=%s; out=%s)@]"
    (String.concat "," (List.map string_of_int t.vertices))
    (String.concat ","
       (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) t.edges))
    (String.concat ","
       (List.map (fun (l, v) -> Printf.sprintf "%d:%d" l v) t.lane_in))
    (String.concat ","
       (List.map (fun (l, v) -> Printf.sprintf "%d:%d" l v) t.lane_out))
