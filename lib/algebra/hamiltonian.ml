(** Hamiltonicity algebras (Hamiltonian cycle / Hamiltonian path).

    A profile describes a partial edge subset F that could still grow into
    a Hamiltonian cycle (or path): each boundary vertex is an endpoint of an
    open F-segment (a trivial segment [(s,s)] means degree 0), or an
    interior (degree-2) vertex of a segment; segments record their two
    endpoints. Forgotten vertices must be interior — except, for the path
    variant, up to two dangling ends ([Gone]). The state is the set of
    achievable profiles. *)

module Bitenc = Lcp_util.Bitenc

type endp = Slot of int | Gone

type profile = {
  segs : (endp * endp) list; (* sorted, each pair ordered *)
  interior : int list; (* sorted *)
  closed : bool;
}

type variant = Cycle | Path

module Common (V : sig
  val variant : variant
end) =
struct
  type state = {
    slot_list : int list;
    profiles : profile list; (* sorted set *)
  }

  let norm_pair (a, b) = if a <= b then (a, b) else (b, a)

  let norm p =
    {
      segs = List.sort compare (List.map norm_pair p.segs);
      interior = List.sort compare p.interior;
      closed = p.closed;
    }

  let viable p =
    (* prune dead profiles *)
    let gone_gone = List.filter (fun s -> s = (Gone, Gone)) p.segs in
    (match V.variant with
    | Cycle -> gone_gone = [] && true
    | Path -> (not p.closed) && List.length gone_gone <= 1)
    && ((not p.closed) || V.variant = Cycle)

  let canonical ps =
    ps |> List.filter viable |> List.map norm |> List.sort_uniq compare

  let empty = { slot_list = []; profiles = [ { segs = []; interior = []; closed = false } ] }

  let introduce st s =
    if List.mem s st.slot_list then
      invalid_arg "Hamiltonian.introduce: slot exists";
    {
      slot_list = List.sort compare (s :: st.slot_list);
      profiles =
        canonical
          (List.map
             (fun p -> { p with segs = (Slot s, Slot s) :: p.segs })
             st.profiles);
    }

  (* the segment having [Slot s] as an endpoint, if any *)
  let seg_of p s =
    List.find_opt (fun (a, b) -> a = Slot s || b = Slot s) p.segs

  let is_trivial (a, b) = a = b

  let other_end (a, b) s = if a = Slot s then b else a

  (* use the host edge a-b as an F-edge, if legal *)
  let use_edge p a b =
    match (seg_of p a, seg_of p b) with
    | Some sa, Some sb when sa = sb && not (is_trivial sa) ->
        (* closing a cycle *)
        if p.closed || V.variant = Path then None
        else
          Some
            {
              segs = List.filter (fun s -> s <> sa) p.segs;
              interior = a :: b :: p.interior;
              closed = true;
            }
    | Some sa, Some sb when sa <> sb ->
        let oa = other_end sa a and ob = other_end sb b in
        let consumed_a = if is_trivial sa then [] else [ a ] in
        let consumed_b = if is_trivial sb then [] else [ b ] in
        let oa = if is_trivial sa then Slot a else oa in
        let ob = if is_trivial sb then Slot b else ob in
        Some
          {
            segs =
              norm_pair (oa, ob)
              :: List.filter (fun s -> s <> sa && s <> sb) p.segs;
            interior = consumed_a @ consumed_b @ p.interior;
            closed = p.closed;
          }
    | _ -> None (* an endpoint is interior, or a trivial self-pairing *)

  let add_edge st a b =
    {
      st with
      profiles =
        canonical
          (st.profiles
          @ List.filter_map (fun p -> use_edge p a b) st.profiles);
    }

  let forget st s =
    let forget_one p =
      if List.mem s p.interior then
        Some { p with interior = List.filter (fun x -> x <> s) p.interior }
      else
        match seg_of p s with
        | None -> invalid_arg "Hamiltonian.forget: unknown slot"
        | Some seg -> (
            match V.variant with
            | Cycle -> None (* the vertex would end with degree < 2 *)
            | Path ->
                let replace e = if e = Slot s then Gone else e in
                let (x, y) = seg in
                Some
                  {
                    p with
                    segs =
                      norm_pair (replace x, replace y)
                      :: List.filter (fun sg -> sg <> seg) p.segs;
                  })
    in
    {
      slot_list = List.filter (fun x -> x <> s) st.slot_list;
      profiles = canonical (List.filter_map forget_one st.profiles);
    }

  let union sa sb =
    if List.exists (fun s -> List.mem s sb.slot_list) sa.slot_list then
      invalid_arg "Hamiltonian.union: slot sets not disjoint";
    let combine pa pb =
      if pa.closed && pb.closed then None
      else
        Some
          {
            segs = pa.segs @ pb.segs;
            interior = pa.interior @ pb.interior;
            closed = pa.closed || pb.closed;
          }
    in
    {
      slot_list = List.sort compare (sa.slot_list @ sb.slot_list);
      profiles =
        canonical
          (List.concat_map
             (fun pa -> List.filter_map (combine pa) sb.profiles)
             sa.profiles);
    }

  let identify st ~keep ~drop =
    let merge p =
      let role s =
        if List.mem s p.interior then `Interior
        else
          match seg_of p s with
          | Some seg when is_trivial seg -> `Trivial seg
          | Some seg -> `End seg
          | None -> invalid_arg "Hamiltonian.identify: unknown slot"
      in
      let drop_seg seg p = { p with segs = List.filter (fun s -> s <> seg) p.segs } in
      let rename_slot p =
        let r e = if e = Slot drop then Slot keep else e in
        {
          p with
          segs = List.map (fun (a, b) -> norm_pair (r a, r b)) p.segs;
          interior =
            List.map (fun x -> if x = drop then keep else x) p.interior;
        }
      in
      match (role keep, role drop) with
      | `Trivial tk, `Trivial td ->
          (* degree 0 + 0: one isolated vertex *)
          ignore tk;
          Some (drop_seg td p)
      | `Trivial tk, (`End _ | `Interior) ->
          Some (rename_slot (drop_seg tk p))
      | (`End _ | `Interior), `Trivial td ->
          Some (drop_seg td p)
      | `End sk, `End sd when sk = sd ->
          (* the glued vertex closes its own segment into a cycle *)
          if p.closed || V.variant = Path then None
          else
            Some
              {
                segs = List.filter (fun s -> s <> sk) p.segs;
                interior = keep :: p.interior;
                closed = true;
              }
      | `End sk, `End sd ->
          let ok = other_end sk keep and od = other_end sd drop in
          Some
            {
              segs =
                norm_pair (ok, od)
                :: List.filter (fun s -> s <> sk && s <> sd) p.segs;
              interior = keep :: p.interior;
              closed = p.closed;
            }
      | `Interior, `Interior | `End _, `Interior | `Interior, `End _ ->
          None (* degree would exceed 2 *)
    in
    {
      slot_list = List.filter (fun x -> x <> drop) st.slot_list;
      profiles = canonical (List.filter_map merge st.profiles);
    }

  let rename st ~old_slot ~new_slot =
    if List.mem new_slot st.slot_list then
      invalid_arg "Hamiltonian.rename: slot exists";
    let re e = if e = Slot old_slot then Slot new_slot else e in
    {
      slot_list =
        List.sort compare
          (List.map (fun s -> if s = old_slot then new_slot else s) st.slot_list);
      profiles =
        canonical
          (List.map
             (fun p ->
               {
                 p with
                 segs = List.map (fun (a, b) -> norm_pair (re a, re b)) p.segs;
                 interior =
                   List.map
                     (fun x -> if x = old_slot then new_slot else x)
                     p.interior;
               })
             st.profiles);
    }

  let slots st = st.slot_list

  let accepts st =
    assert (st.slot_list = []);
    List.exists
      (fun p ->
        match V.variant with
        | Cycle -> p.closed && p.segs = [] && p.interior = []
        | Path ->
            (not p.closed) && p.interior = [] && p.segs = [ (Gone, Gone) ])
      st.profiles

  let equal a b = a.slot_list = b.slot_list && a.profiles = b.profiles

  let encode_endp w slot_list e =
    match e with
    | Gone -> Bitenc.varint w 0
    | Slot s ->
        let idx = ref 0 in
        List.iteri (fun i x -> if x = s then idx := i + 1) slot_list;
        Bitenc.varint w !idx

  let encode w st =
    Bitenc.varint w (List.length st.slot_list);
    List.iter (fun s -> Bitenc.varint w (abs s)) st.slot_list;
    Bitenc.varint w (List.length st.profiles);
    List.iter
      (fun p ->
        Bitenc.varint w (List.length p.segs);
        List.iter
          (fun (a, b) ->
            encode_endp w st.slot_list a;
            encode_endp w st.slot_list b)
          p.segs;
        List.iter (fun s -> Bitenc.bit w (List.mem s p.interior)) st.slot_list;
        Bitenc.bit w p.closed)
      st.profiles

  let pp ppf st =
    Format.fprintf ppf "ham(slots=%s; %d profiles)"
      (String.concat "," (List.map string_of_int st.slot_list))
      (List.length st.profiles)
end

module Cycle_alg = struct
  include Common (struct
    let variant = Cycle
  end)

  let name = "hamiltonian_cycle"
  let description = "the graph has a Hamiltonian cycle"

  let oracle g =
    let module Graph = Lcp_graph.Graph in
    let n = Graph.n g in
    if n < 3 then false
    else begin
      let seen = Array.make n false in
      let rec go v count =
        if count = n then Graph.mem_edge g v 0
        else
          List.exists
            (fun w ->
              (not seen.(w))
              && begin
                   seen.(w) <- true;
                   let ok = go w (count + 1) in
                   seen.(w) <- false;
                   ok
                 end)
            (Graph.neighbors g v)
      in
      seen.(0) <- true;
      go 0 1
    end
end

module Path_alg = struct
  include Common (struct
    let variant = Path
  end)

  let name = "hamiltonian_path"
  let description = "the graph has a Hamiltonian path"

  let oracle g =
    let module Graph = Lcp_graph.Graph in
    let n = Graph.n g in
    n > 0 && Lcp_graph.Traversal.longest_path_length g = n
end
