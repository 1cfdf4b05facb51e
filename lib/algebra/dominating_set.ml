(** The "dominating set of size ≤ c" algebra. A profile gives each
    boundary vertex one of three statuses — in the set, dominated by a
    neighbor in the set, or not yet dominated — and maps to the minimum
    number of forgotten set members (capped at c+1). A vertex may only be
    forgotten once it is in the set or dominated. *)

module Bitenc = Lcp_util.Bitenc

type status = In_set | Dominated | Undominated

module type PARAM = sig
  val budget : int
end

module Make (P : PARAM) = struct
  type profile = (int * status) list (* sorted by slot *)

  type state = {
    slot_list : int list;
    table : (profile * int) list;
  }

  let name = Printf.sprintf "dominating_set<=%d" P.budget
  let description =
    Printf.sprintf "some dominating set has size at most %d" P.budget

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
      invalid_arg "Dominating_set.introduce: slot exists";
    {
      slot_list = List.sort compare (s :: st.slot_list);
      table =
        canonical
          (List.concat_map
             (fun (p, c) ->
               [
                 (List.sort compare ((s, In_set) :: p), c);
                 (List.sort compare ((s, Undominated) :: p), c);
               ])
             st.table);
    }

  let status_of p s =
    match List.assoc_opt s p with
    | Some st -> st
    | None -> invalid_arg "Dominating_set: unknown slot"

  let set_status p s v =
    List.sort compare ((s, v) :: List.remove_assoc s p)

  let dominate p s =
    match status_of p s with Undominated -> set_status p s Dominated | _ -> p

  let add_edge st a b =
    let upgrade p =
      let p = if status_of p a = In_set then dominate p b else p in
      if status_of p b = In_set then dominate p a else p
    in
    { st with table = canonical (List.map (fun (p, c) -> (upgrade p, c)) st.table) }

  let forget st s =
    {
      slot_list = List.filter (fun x -> x <> s) st.slot_list;
      table =
        canonical
          (List.filter_map
             (fun (p, c) ->
               match status_of p s with
               | Undominated -> None
               | In_set -> Some (List.remove_assoc s p, cap (c + 1))
               | Dominated -> Some (List.remove_assoc s p, c))
             st.table);
    }

  let union a b =
    if List.exists (fun s -> List.mem s b.slot_list) a.slot_list then
      invalid_arg "Dominating_set.union: slot sets not disjoint";
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
    (* membership in the set must agree across the two copies; domination
       is inherited from either side *)
    let combine p =
      let sk = status_of p keep and sd = status_of p drop in
      match (sk, sd) with
      | In_set, In_set -> Some (List.remove_assoc drop p)
      | In_set, _ | _, In_set -> None
      | Dominated, _ | _, Dominated ->
          Some (set_status (List.remove_assoc drop p) keep Dominated)
      | Undominated, Undominated -> Some (List.remove_assoc drop p)
    in
    {
      slot_list = List.filter (fun x -> x <> drop) st.slot_list;
      table =
        canonical
          (List.filter_map
             (fun (p, c) -> Option.map (fun p -> (p, c)) (combine p))
             st.table);
    }

  let rename st ~old_slot ~new_slot =
    if List.mem new_slot st.slot_list then
      invalid_arg "Dominating_set.rename: slot exists";
    let r s = if s = old_slot then new_slot else s in
    {
      slot_list = List.sort compare (List.map r st.slot_list);
      table =
        canonical
          (List.map
             (fun (p, c) ->
               (List.sort compare (List.map (fun (s, v) -> (r s, v)) p), c))
             st.table);
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
        List.iter
          (fun s ->
            let v =
              match status_of p s with
              | In_set -> 0
              | Dominated -> 1
              | Undominated -> 2
            in
            Bitenc.bits w ~width:2 v)
          st.slot_list;
        Bitenc.varint w c)
      st.table

  let pp ppf st =
    Format.fprintf ppf "ds<=%d(slots=%s; %d profiles)" P.budget
      (String.concat "," (List.map string_of_int st.slot_list))
      (List.length st.table)

  let oracle g =
    let module Graph = Lcp_graph.Graph in
    let n = Graph.n g in
    let dominated chosen =
      List.init n (fun v -> v)
      |> List.for_all (fun v ->
             List.mem v chosen
             || List.exists (fun w -> List.mem w chosen) (Graph.neighbors g v))
    in
    let rec subsets v chosen budget =
      if dominated chosen then true
      else if v = n || budget = 0 then false
      else subsets (v + 1) (v :: chosen) (budget - 1) || subsets (v + 1) chosen budget
    in
    subsets 0 [] P.budget
end
