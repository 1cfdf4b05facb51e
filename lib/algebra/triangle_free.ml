(** The triangle-freeness (C₃-subgraph-freeness) algebra. State: the
    adjacency among boundary vertices, the set of boundary pairs that share
    a forgotten common neighbor, and a sticky triangle flag. *)

module Bitenc = Lcp_util.Bitenc

type state = {
  slot_list : int list;
  adj : (int * int) list; (* sorted canonical pairs among slots *)
  common : (int * int) list; (* pairs with an internal common neighbor *)
  tri : bool;
}

let name = "triangle_free"
let description = "the graph contains no triangle"

let norm (a, b) = if a <= b then (a, b) else (b, a)

let empty = { slot_list = []; adj = []; common = []; tri = false }

let detect st =
  if st.tri then st
  else begin
    let has_adj a b = List.mem (norm (a, b)) st.adj in
    let tri =
      List.exists (fun p -> List.mem p st.common) st.adj
      || List.exists
           (fun (a, b) ->
             List.exists
               (fun w -> w <> a && w <> b && has_adj a w && has_adj b w)
               st.slot_list)
           st.adj
    in
    { st with tri }
  end

let introduce st s =
  if List.mem s st.slot_list then
    invalid_arg "Triangle_free.introduce: slot exists";
  { st with slot_list = List.sort compare (s :: st.slot_list) }

let add_edge st a b =
  detect { st with adj = List.sort_uniq compare (norm (a, b) :: st.adj) }

let forget st s =
  let nbrs = List.filter_map
      (fun (a, b) ->
        if a = s then Some b else if b = s then Some a else None)
      st.adj
  in
  let new_common =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) nbrs)
      nbrs
  in
  let keep_pair (a, b) = a <> s && b <> s in
  (* two boundary neighbors of s that are already adjacent close a triangle
     through s, so re-run detection *)
  detect
    {
      slot_list = List.filter (fun x -> x <> s) st.slot_list;
      adj = List.filter keep_pair st.adj;
      common =
        List.sort_uniq compare (new_common @ List.filter keep_pair st.common);
      tri = st.tri;
    }

let union a b =
  if List.exists (fun s -> List.mem s b.slot_list) a.slot_list then
    invalid_arg "Triangle_free.union: slot sets not disjoint";
  {
    slot_list = List.sort compare (a.slot_list @ b.slot_list);
    adj = List.sort_uniq compare (a.adj @ b.adj);
    common = List.sort_uniq compare (a.common @ b.common);
    tri = a.tri || b.tri;
  }

let identify st ~keep ~drop =
  let r x = if x = drop then keep else x in
  let rp (a, b) = norm (r a, r b) in
  let st =
    {
      slot_list = List.filter (fun x -> x <> drop) st.slot_list;
      adj = List.sort_uniq compare (List.map rp st.adj);
      common = List.sort_uniq compare (List.map rp st.common);
      tri = st.tri;
    }
  in
  detect st

let rename st ~old_slot ~new_slot =
  if List.mem new_slot st.slot_list then
    invalid_arg "Triangle_free.rename: slot exists";
  let r x = if x = old_slot then new_slot else x in
  let rp (a, b) = norm (r a, r b) in
  {
    slot_list = List.sort compare (List.map r st.slot_list);
    adj = List.sort compare (List.map rp st.adj);
    common = List.sort compare (List.map rp st.common);
    tri = st.tri;
  }

let slots st = st.slot_list

let accepts st =
  assert (st.slot_list = []);
  not st.tri

let equal a b =
  a.slot_list = b.slot_list && a.adj = b.adj && a.common = b.common
  && a.tri = b.tri

let encode w st =
  Bitenc.varint w (List.length st.slot_list);
  List.iter (fun s -> Bitenc.varint w (abs s)) st.slot_list;
  let encode_pairs ps =
    Bitenc.varint w (List.length ps);
    List.iter
      (fun (a, b) ->
        Bitenc.varint w (abs a);
        Bitenc.varint w (abs b))
      ps
  in
  encode_pairs st.adj;
  encode_pairs st.common;
  Bitenc.bit w st.tri

(* inverse of [encode] for the nonnegative slot names the certification
   pipeline uses (host vertex ids), where [abs] is the identity *)
let decode r =
  (* decoding must read strictly left to right; List.init order is
     unspecified *)
  let rec read_n n f = if n <= 0 then [] else
    let x = f () in
    x :: read_n (n - 1) f
  in
  let read_list f = read_n (Bitenc.read_varint r) f in
  let slot_list = read_list (fun () -> Bitenc.read_varint r) in
  let read_pairs () =
    read_list (fun () ->
        let a = Bitenc.read_varint r in
        let b = Bitenc.read_varint r in
        (a, b))
  in
  let adj = read_pairs () in
  let common = read_pairs () in
  let tri = Bitenc.read_bit r in
  { slot_list; adj; common; tri }

let pp ppf st =
  Format.fprintf ppf "trifree(slots=%s; adj=%d common=%d tri=%b)"
    (String.concat "," (List.map string_of_int st.slot_list))
    (List.length st.adj) (List.length st.common) st.tri

let oracle g =
  let module Graph = Lcp_graph.Graph in
  not
    (Graph.fold_edges
       (fun (u, v) found ->
         found
         || List.exists
              (fun w -> Graph.mem_edge g v w)
              (Graph.neighbors g u))
       g false)
