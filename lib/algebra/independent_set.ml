(** The "independent set of size ≥ c" algebra. A profile fixes which
    boundary vertices are in the set; the table maps each profile to the
    maximum number of already-forgotten members, capped at c. *)

module Bitenc = Lcp_util.Bitenc

module type PARAM = sig
  val target : int
end

module Make (P : PARAM) = struct
  type state = {
    slot_list : int list;
    table : (int list * int) list; (* profile ↦ max internal members *)
  }

  let name = Printf.sprintf "independent_set>=%d" P.target
  let description =
    Printf.sprintf "some independent set has size at least %d" P.target

  let cap x = min x P.target

  let canonical table =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (p, c) ->
        match Hashtbl.find_opt tbl p with
        | Some c' when c' >= c -> ()
        | _ -> Hashtbl.replace tbl p c)
      table;
    Hashtbl.fold (fun p c acc -> (p, c) :: acc) tbl [] |> List.sort compare

  let empty = { slot_list = []; table = [ ([], 0) ] }

  let introduce st s =
    if List.mem s st.slot_list then
      invalid_arg "Independent_set.introduce: slot exists";
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
          (List.filter
             (fun (p, _) -> not (List.mem a p && List.mem b p))
             st.table);
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
      invalid_arg "Independent_set.union: slot sets not disjoint";
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
      invalid_arg "Independent_set.rename: slot exists";
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
    List.exists (fun (_, c) -> c >= P.target) st.table

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
    Format.fprintf ppf "is>=%d(slots=%s; %d profiles)" P.target
      (String.concat "," (List.map string_of_int st.slot_list))
      (List.length st.table)

  let oracle g =
    let module Graph = Lcp_graph.Graph in
    let n = Graph.n g in
    let rec go v chosen size =
      if size >= P.target then true
      else if v = n then false
      else
        (* skip v *)
        go (v + 1) chosen size
        ||
        (* take v if independent *)
        (List.for_all (fun w -> not (List.mem w chosen)) (Graph.neighbors g v)
        && go (v + 1) (v :: chosen) (size + 1))
    in
    go 0 [] 0
end
