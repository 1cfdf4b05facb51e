(** The "vertex cover of size ≤ c" algebra. A profile fixes which boundary
    vertices are in the cover; the table maps each viable profile to the
    minimum number of already-forgotten cover vertices, capped at c+1 to
    keep the state space finite. *)

module Bitenc = Lcp_util.Bitenc

module type PARAM = sig
  val budget : int
end

module Make (P : PARAM) = struct
  type state = {
    slot_list : int list;
    (* profile (sorted subset of slots in the cover) ↦ min internal cost;
       sorted by profile *)
    table : (int list * int) list;
  }

  let name = Printf.sprintf "vertex_cover<=%d" P.budget
  let description = Printf.sprintf "some vertex cover has size at most %d" P.budget

  let cap x = min x (P.budget + 1)

  let canonical table =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (p, c) ->
        match Hashtbl.find_opt tbl p with
        | Some c' when c' <= c -> ()
        | _ -> Hashtbl.replace tbl p c)
      table;
    Hashtbl.fold (fun p c acc -> (p, c) :: acc) tbl [] |> List.sort compare

  let empty = { slot_list = []; table = [ ([], 0) ] }

  let introduce st s =
    if List.mem s st.slot_list then
      invalid_arg "Vertex_cover.introduce: slot exists";
    {
      slot_list = List.sort compare (s :: st.slot_list);
      table =
        canonical
          (List.concat_map
             (fun (p, c) -> [ (p, c); (List.sort compare (s :: p), c) ])
             st.table);
    }

  let add_edge st a b =
    {
      st with
      table =
        canonical
          (List.filter (fun (p, _) -> List.mem a p || List.mem b p) st.table);
    }

  let forget st s =
    {
      slot_list = List.filter (fun x -> x <> s) st.slot_list;
      table =
        canonical
          (List.map
             (fun (p, c) ->
               if List.mem s p then
                 (List.filter (fun x -> x <> s) p, cap (c + 1))
               else (p, c))
             st.table);
    }

  let union a b =
    if List.exists (fun s -> List.mem s b.slot_list) a.slot_list then
      invalid_arg "Vertex_cover.union: slot sets not disjoint";
    {
      slot_list = List.sort compare (a.slot_list @ b.slot_list);
      table =
        canonical
          (List.concat_map
             (fun (pa, ca) ->
               List.map
                 (fun (pb, cb) -> (List.sort compare (pa @ pb), cap (ca + cb)))
                 b.table)
             a.table);
    }

  let identify st ~keep ~drop =
    (* the glued vertex's cover membership must be a single decision *)
    {
      slot_list = List.filter (fun x -> x <> drop) st.slot_list;
      table =
        canonical
          (List.filter_map
             (fun (p, c) ->
               if List.mem keep p = List.mem drop p then
                 Some (List.filter (fun x -> x <> drop) p, c)
               else None)
             st.table);
    }

  let rename st ~old_slot ~new_slot =
    if List.mem new_slot st.slot_list then
      invalid_arg "Vertex_cover.rename: slot exists";
    let r s = if s = old_slot then new_slot else s in
    {
      slot_list = List.sort compare (List.map r st.slot_list);
      table =
        canonical
          (List.map (fun (p, c) -> (List.sort compare (List.map r p), c)) st.table);
    }

  let slots st = st.slot_list

  let accepts st =
    assert (st.slot_list = []);
    List.exists (fun (_, c) -> c <= P.budget) st.table

  let equal a b = a.slot_list = b.slot_list && a.table = b.table

  let encode w st =
    Bitenc.varint w (List.length st.slot_list);
    List.iter (fun s -> Bitenc.varint w (abs s)) st.slot_list;
    Bitenc.varint w (List.length st.table);
    List.iter
      (fun (p, c) ->
        List.iter (fun s -> Bitenc.bit w (List.mem s p)) st.slot_list;
        Bitenc.varint w c)
      st.table

  let pp ppf st =
    Format.fprintf ppf "vc<=%d(slots=%s; %d profiles)" P.budget
      (String.concat "," (List.map string_of_int st.slot_list))
      (List.length st.table)

  (* brute force: try all subsets up to the budget *)
  let oracle g =
    let module Graph = Lcp_graph.Graph in
    let n = Graph.n g in
    let edges = Graph.edges g in
    let rec covers chosen budget = function
      | [] -> true
      | (u, v) :: rest ->
          if List.mem u chosen || List.mem v chosen then covers chosen budget rest
          else
            budget > 0
            && (covers (u :: chosen) (budget - 1) ((u, v) :: rest)
               || covers (v :: chosen) (budget - 1) ((u, v) :: rest))
    in
    ignore n;
    covers [] P.budget edges
end
