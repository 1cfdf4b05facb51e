(** The q-colorability algebra: the state is the set of proper q-colorings
    of the whole graph restricted to the boundary, stored explicitly (each
    coloring as a sorted slot ↦ color list). This is the textbook
    homomorphism class for colorability; its size is exponential in the
    boundary, so it is practical for small lane counts (see DESIGN.md on
    the greedy-vs-Prop-4.6 partition trade-off). For q = 2 prefer the
    compact {!Bipartite} algebra. *)

module Bitenc = Lcp_util.Bitenc

module type PARAM = sig
  val q : int
end

module Make (P : PARAM) = struct
  type coloring = (int * int) list (* slot ↦ color, sorted by slot *)

  type state = {
    slot_list : int list; (* sorted *)
    colorings : coloring list; (* sorted set *)
  }

  let name = Printf.sprintf "%d-colorable" P.q
  let description = Printf.sprintf "the graph is properly %d-colorable" P.q

  let empty = { slot_list = []; colorings = [ [] ] }

  let canonical cs = List.sort_uniq compare cs

  let introduce st s =
    if List.mem s st.slot_list then invalid_arg "Colorable.introduce: slot exists";
    let extend c = List.init P.q (fun col -> List.sort compare ((s, col) :: c)) in
    {
      slot_list = List.sort compare (s :: st.slot_list);
      colorings = canonical (List.concat_map extend st.colorings);
    }

  let color_of c s =
    match List.assoc_opt s c with
    | Some col -> col
    | None -> invalid_arg "Colorable: unknown slot"

  let add_edge st a b =
    {
      st with
      colorings =
        List.filter (fun c -> color_of c a <> color_of c b) st.colorings;
    }

  let forget st s =
    {
      slot_list = List.filter (fun x -> x <> s) st.slot_list;
      colorings =
        canonical
          (List.map (List.filter (fun (x, _) -> x <> s)) st.colorings);
    }

  let union a b =
    if List.exists (fun s -> List.mem s b.slot_list) a.slot_list then
      invalid_arg "Colorable.union: slot sets not disjoint";
    {
      slot_list = List.sort compare (a.slot_list @ b.slot_list);
      colorings =
        canonical
          (List.concat_map
             (fun ca ->
               List.map (fun cb -> List.sort compare (ca @ cb)) b.colorings)
             a.colorings);
    }

  let identify st ~keep ~drop =
    let st' =
      {
        st with
        colorings =
          List.filter (fun c -> color_of c keep = color_of c drop) st.colorings;
      }
    in
    forget st' drop

  let rename st ~old_slot ~new_slot =
    if List.mem new_slot st.slot_list then
      invalid_arg "Colorable.rename: slot exists";
    {
      slot_list =
        List.sort compare
          (List.map (fun s -> if s = old_slot then new_slot else s) st.slot_list);
      colorings =
        canonical
          (List.map
             (List.map (fun (s, c) ->
                  ((if s = old_slot then new_slot else s), c)))
             st.colorings);
    }

  let slots st = st.slot_list

  let accepts st =
    assert (st.slot_list = []);
    st.colorings <> []

  let equal a b = a.slot_list = b.slot_list && a.colorings = b.colorings

  let encode w st =
    Bitenc.varint w (List.length st.slot_list);
    List.iter (fun s -> Bitenc.varint w (abs s)) st.slot_list;
    Bitenc.varint w (List.length st.colorings);
    let bits_per_color =
      let rec go b = if 1 lsl b >= P.q then b else go (b + 1) in
      go 1
    in
    List.iter
      (fun c -> List.iter (fun (_, col) -> Bitenc.bits w ~width:bits_per_color col) c)
      st.colorings

  let pp ppf st =
    Format.fprintf ppf "%d-col(slots=%s; %d colorings)" P.q
      (String.concat "," (List.map string_of_int st.slot_list))
      (List.length st.colorings)

  (* brute-force proper q-coloring *)
  let oracle g =
    let module Graph = Lcp_graph.Graph in
    let n = Graph.n g in
    let color = Array.make n (-1) in
    let rec go v =
      if v = n then true
      else
        let ok c =
          List.for_all
            (fun w -> w >= v || color.(w) <> c)
            (Graph.neighbors g v)
        in
        let rec try_color c =
          if c = P.q then false
          else if ok c then begin
            color.(v) <- c;
            if go (v + 1) then true
            else begin
              color.(v) <- -1;
              try_color (c + 1)
            end
          end
          else try_color (c + 1)
        in
        try_color 0
    in
    go 0
end

module Three = Make (struct
  let q = 3
end)
