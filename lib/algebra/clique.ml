module Bitenc = Lcp_util.Bitenc

module type PARAM = sig
  val size : int
end

module Make (P : PARAM) = struct
  (* profile: (sorted boundary subset T, count of completed members), with
     |T| + count <= size; adj: canonical pairs among boundary slots *)
  type state = {
    slot_list : int list;
    adj : (int * int) list;
    profiles : (int list * int) list; (* T ↦ max completed count *)
    found : bool;
  }

  let name = Printf.sprintf "has_K%d" P.size
  let description = Printf.sprintf "the graph contains a %d-clique" P.size

  let norm (a, b) = if a <= b then (a, b) else (b, a)

  (* Per boundary part T keep the c = 0 profile (it alone may recruit new
     boundary members) and the largest c >= 1 profile (those are linearly
     ordered); a c = 0 and a c >= 1 profile are incomparable. *)
  let canonical ps =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (t, c) ->
        let zero, best =
          Option.value ~default:(false, 0) (Hashtbl.find_opt tbl t)
        in
        Hashtbl.replace tbl t (zero || c = 0, max best c))
      ps;
    Hashtbl.fold
      (fun t (zero, best) acc ->
        let acc = if best >= 1 then (t, best) :: acc else acc in
        if zero then (t, 0) :: acc else acc)
      tbl []
    |> List.sort compare

  (* a profile whose boundary part is pairwise adjacent and total size
     reaches [size] is a witness *)
  let detect st =
    if st.found then st
    else begin
      let pairwise_adjacent t =
        let rec go = function
          | [] -> true
          | x :: rest ->
              List.for_all (fun y -> List.mem (norm (x, y)) st.adj) rest
              && go rest
        in
        go t
      in
      let found =
        List.exists
          (fun (t, c) -> List.length t + c >= P.size && pairwise_adjacent t)
          st.profiles
      in
      { st with found }
    end

  let empty = { slot_list = []; adj = []; profiles = [ ([], 0) ]; found = P.size = 0 }

  let introduce st s =
    if List.mem s st.slot_list then invalid_arg "Clique.introduce: slot exists";
    (* a fresh vertex can never become adjacent to already-forgotten clique
       members, so only profiles with an empty completed part may recruit *)
    let extended =
      List.filter_map
        (fun (t, c) ->
          if c = 0 && List.length t < P.size then
            Some (List.sort compare (s :: t), c)
          else None)
        st.profiles
    in
    {
      st with
      slot_list = List.sort compare (s :: st.slot_list);
      profiles = canonical (st.profiles @ extended);
    }

  let add_edge st a b =
    detect { st with adj = List.sort_uniq compare (norm (a, b) :: st.adj) }

  let forget st s =
    let keep_pair (a, b) = a <> s && b <> s in
    let neighbors =
      List.filter_map
        (fun (a, b) ->
          if a = s then Some b else if b = s then Some a else None)
        st.adj
    in
    let step (t, c) =
      if List.mem s t then begin
        let t' = List.filter (fun x -> x <> s) t in
        (* option 1: the clique abandons s *)
        let drop = (t', c) in
        (* option 2: s joins the completed part; it must be adjacent to
           the rest of the boundary part already (adjacency to the
           completed part is asserted by the profile) *)
        if List.for_all (fun x -> List.mem x neighbors) t' then
          [ drop; (t', c + 1) ]
        else [ drop ]
      end
      else [ (t, c) ]
    in
    detect
      {
        st with
        slot_list = List.filter (fun x -> x <> s) st.slot_list;
        adj = List.filter keep_pair st.adj;
        profiles = canonical (List.concat_map step st.profiles);
      }

  let union a b =
    if List.exists (fun s -> List.mem s b.slot_list) a.slot_list then
      invalid_arg "Clique.union: slot sets not disjoint";
    (* completed parts cannot mix across components (no edges between
       forgotten vertices of disjoint graphs), so at most one side
       contributes completed members *)
    let combine (t1, c1) (t2, c2) =
      (* a completed part can only ever pair with boundary vertices of its
         own side, and two completed parts can never become adjacent *)
      if
        (c1 = 0 || t2 = []) && (c2 = 0 || t1 = []) && (c1 = 0 || c2 = 0)
      then begin
        let t = List.sort compare (t1 @ t2) in
        if List.length t + c1 + c2 <= P.size then Some (t, c1 + c2) else None
      end
      else None
    in
    {
      slot_list = List.sort compare (a.slot_list @ b.slot_list);
      adj = List.sort_uniq compare (a.adj @ b.adj);
      profiles =
        canonical
          (List.concat_map
             (fun pa -> List.filter_map (combine pa) b.profiles)
             a.profiles);
      found = a.found || b.found;
    }

  let identify st ~keep ~drop =
    let r x = if x = drop then keep else x in
    let rp (a, b) = norm (r a, r b) in
    let rt t = List.sort_uniq compare (List.map r t) in
    detect
      {
        slot_list = List.filter (fun x -> x <> drop) st.slot_list;
        adj = List.sort_uniq compare (List.map rp st.adj);
        profiles =
          canonical (List.map (fun (t, c) -> (rt t, c)) st.profiles);
        found = st.found;
      }

  let rename st ~old_slot ~new_slot =
    if List.mem new_slot st.slot_list then invalid_arg "Clique.rename: slot exists";
    let r x = if x = old_slot then new_slot else x in
    let rp (a, b) = norm (r a, r b) in
    {
      st with
      slot_list = List.sort compare (List.map r st.slot_list);
      adj = List.sort compare (List.map rp st.adj);
      profiles =
        List.sort compare
          (List.map
             (fun (t, c) -> (List.sort compare (List.map r t), c))
             st.profiles);
    }

  let slots st = st.slot_list

  let accepts st =
    assert (st.slot_list = []);
    st.found

  let equal a b =
    a.slot_list = b.slot_list && a.adj = b.adj && a.profiles = b.profiles
    && a.found = b.found

  let encode w st =
    Bitenc.varint w (List.length st.slot_list);
    List.iter (fun s -> Bitenc.varint w (abs s)) st.slot_list;
    Bitenc.varint w (List.length st.adj);
    List.iter
      (fun (a, b) ->
        Bitenc.varint w (abs a);
        Bitenc.varint w (abs b))
      st.adj;
    Bitenc.varint w (List.length st.profiles);
    List.iter
      (fun (t, c) ->
        List.iter (fun s -> Bitenc.bit w (List.mem s t)) st.slot_list;
        Bitenc.varint w c)
      st.profiles;
    Bitenc.bit w st.found

  let pp ppf st =
    Format.fprintf ppf "K%d(slots=%s; %d profiles; found=%b)" P.size
      (String.concat "," (List.map string_of_int st.slot_list))
      (List.length st.profiles) st.found

  let oracle g =
    let module Graph = Lcp_graph.Graph in
    let n = Graph.n g in
    let rec extend chosen v =
      if List.length chosen = P.size then true
      else if v = n then false
      else
        extend chosen (v + 1)
        || (List.for_all (fun u -> Graph.mem_edge g u v) chosen
           && extend (v :: chosen) (v + 1))
    in
    P.size = 0 || extend [] 0
end
