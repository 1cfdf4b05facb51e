let bfs_generic g s ~on_tree_edge =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(s) <- 0;
  Queue.push s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          on_tree_edge u v;
          Queue.push v q
        end)
  done;
  dist

let bfs_from g s = bfs_generic g s ~on_tree_edge:(fun _ _ -> ())

let bfs_tree g s =
  let parent = Array.make (Graph.n g) (-1) in
  let _ = bfs_generic g s ~on_tree_edge:(fun u v -> parent.(v) <- u) in
  parent

let connected_components g =
  let n = Graph.n g in
  let seen = Array.make n false in
  let comps = ref [] in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      let dist = bfs_from g s in
      let comp = ref [] in
      for v = n - 1 downto 0 do
        if dist.(v) >= 0 then begin
          seen.(v) <- true;
          comp := v :: !comp
        end
      done;
      comps := !comp :: !comps
    end
  done;
  List.rev !comps

let component_of g v =
  let dist = bfs_from g v in
  let comp = ref [] in
  for u = Graph.n g - 1 downto 0 do
    if dist.(u) >= 0 then comp := u :: !comp
  done;
  !comp

let is_connected g =
  Graph.n g = 0 || List.length (component_of g 0) = Graph.n g

let shortest_path g s t =
  let parent = Array.make (Graph.n g) (-1) in
  let dist = bfs_generic g s ~on_tree_edge:(fun u v -> parent.(v) <- u) in
  if dist.(t) < 0 then None
  else begin
    let rec walk v acc = if v = s then s :: acc else walk parent.(v) (v :: acc) in
    Some (walk t [])
  end

(* A BFS sets a vertex's parent when it first reaches it, so one cut
   short when the target is reached has already set every parent on the
   target's path, to the values the full search sets. [stamp] marks the
   vertices the current search has reached, so the arrays are reused
   without clearing. *)
let shortest_paths g pairs =
  let n = Graph.n g in
  let parent = Array.make n (-1) and stamp = Array.make n 0 in
  let queue = Array.make n 0 in
  let search mark (s, t) =
    stamp.(s) <- mark;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 and found = ref (s = t) in
    while (not !found) && !head < !tail do
      let u = queue.(!head) in
      incr head;
      Graph.iter_neighbors g u (fun v ->
          if (not !found) && stamp.(v) <> mark then begin
            stamp.(v) <- mark;
            parent.(v) <- u;
            queue.(!tail) <- v;
            incr tail;
            if v = t then found := true
          end)
    done;
    if not !found then None
    else
      let rec walk v acc = if v = s then s :: acc else walk parent.(v) (v :: acc) in
      Some (walk t [])
  in
  List.mapi (fun i pair -> search (i + 1) pair) pairs

let any_path g s t =
  let n = Graph.n g in
  let seen = Array.make n false in
  let rec dfs v acc =
    if v = t then Some (List.rev (v :: acc))
    else begin
      seen.(v) <- true;
      let rec try_nbrs = function
        | [] -> None
        | w :: rest ->
            if seen.(w) then try_nbrs rest
            else begin
              match dfs w (v :: acc) with
              | Some p -> Some p
              | None -> try_nbrs rest
            end
      in
      try_nbrs (Graph.neighbors g v)
    end
  in
  if s = t then Some [ s ] else dfs s []

let spanning_tree g ~root =
  let acc = ref [] in
  let _ =
    bfs_generic g root ~on_tree_edge:(fun u v ->
        acc := Graph.canonical_edge u v :: !acc)
  in
  List.rev !acc

let is_acyclic g =
  (* a forest has exactly n - (#components) edges *)
  Graph.m g = Graph.n g - List.length (connected_components g)

let is_tree g = is_connected g && Graph.m g = Graph.n g - 1

let is_path_graph g =
  is_tree g && Graph.fold_vertices (fun v ok -> ok && Graph.degree g v <= 2) g true

let is_cycle_graph g =
  Graph.n g >= 3 && is_connected g
  && Graph.fold_vertices (fun v ok -> ok && Graph.degree g v = 2) g true

let longest_path_length g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let best = ref 1 in
    let seen = Array.make n false in
    let rec dfs v len =
      if len > !best then best := len;
      Graph.iter_neighbors g v (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            dfs w (len + 1);
            seen.(w) <- false
          end)
    in
    for s = 0 to n - 1 do
      seen.(s) <- true;
      dfs s 1;
      seen.(s) <- false
    done;
    !best
  end

let eccentricity g v =
  Array.fold_left max 0 (bfs_from g v)

let diameter g =
  if not (is_connected g) then invalid_arg "Traversal.diameter: disconnected";
  Graph.fold_vertices (fun v acc -> max acc (eccentricity g v)) g 0
