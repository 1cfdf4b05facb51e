module Bitenc = Lcp_util.Bitenc

module type PARAM = sig
  val d : int
end

module Make (P : PARAM) = struct
  let cap = P.d + 1 (* the "> d" class; all arithmetic saturates here *)

  type vector = (int * int) list (* slot ↦ distance, sorted by slot *)

  type state = {
    slot_list : int list;
    metric : ((int * int) * int) list;
        (* canonical slot pairs ↦ distance < cap; missing = cap; closed *)
    vectors : vector list; (* sorted set of forgotten-vertex classes *)
    multi : vector list; (* classes held by ≥ 2 vertices *)
    pending : ((vector * vector) * int) list;
        (* unordered class pairs ↦ best distance so far (≤ cap) *)
    bad : bool; (* final verdict, set when the last slot is forgotten *)
    sealed : bool; (* no slots remain; [bad] is final *)
  }

  let name = Printf.sprintf "diameter<=%d" P.d
  let description = Printf.sprintf "every two vertices are within distance %d" P.d

  let sat x y = min cap (x + y)
  let norm (a, b) = if a <= b then (a, b) else (b, a)

  let mdist st a b =
    if a = b then 0
    else match List.assoc_opt (norm (a, b)) st.metric with
      | Some x -> x
      | None -> cap

  let set_metric metric a b v =
    if v >= cap then List.remove_assoc (norm (a, b)) metric
    else ((norm (a, b)), v) :: List.remove_assoc (norm (a, b)) metric

  (* Floyd–Warshall closure over the (small) slot set *)
  let close st =
    let m = ref st.metric in
    let dist a b =
      if a = b then 0
      else match List.assoc_opt (norm (a, b)) !m with Some x -> x | None -> cap
    in
    List.iter
      (fun via ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if a < b then begin
                  let through = sat (dist a via) (dist via b) in
                  if through < dist a b then m := set_metric !m a b through
                end)
              st.slot_list)
          st.slot_list)
      st.slot_list;
    { st with metric = List.sort compare !m }

  let vec_get v s = match List.assoc_opt s v with Some x -> x | None -> cap

  (* refresh a vector through the closed metric *)
  let refresh_vector st v =
    List.map
      (fun s ->
        let best =
          List.fold_left
            (fun acc (s', x) -> min acc (sat x (mdist st s' s)))
            (vec_get v s) v
        in
        (s, best))
      (List.sort compare (List.map fst v))

  (* relax a pending pair through the current boundary *)
  let via_boundary st w w' =
    List.fold_left
      (fun acc (s, x) ->
        List.fold_left
          (fun acc (s', x') -> min acc (sat x (sat (mdist st s s') x')))
          acc w')
      cap w

  let pkey w w' = if w <= w' then (w, w') else (w', w)

  (* relaxation of one pair: distances only improve *)
  let pending_add pending key v =
    let cur = match List.assoc_opt key pending with Some x -> x | None -> cap in
    if v >= cur then pending
    else (key, v) :: List.remove_assoc key pending

  (* key collision from class merging: the entries describe DIFFERENT
     vertex pairs that have become indistinguishable; the verdict must
     hold for the worst of them, and the future relaxation term is the
     same for all, so keep the maximum *)
  let pending_merge pending key v =
    match List.assoc_opt key pending with
    | Some cur when cur >= v -> pending
    | Some _ -> (key, v) :: List.remove_assoc key pending
    | None -> (key, v) :: pending

  (* after any metric change or slot change: refresh vectors (classes may
     merge), remap and relax pending *)
  let refresh st =
    let st = close st in
    let renames =
      List.map (fun v -> (v, refresh_vector st v)) st.vectors
    in
    let lookup v = List.assoc v renames in
    let new_vectors = List.sort_uniq compare (List.map snd renames) in
    (* classes that merge, or that were already multi, are multi *)
    let multi =
      let from_old = List.map (fun v -> lookup v) st.multi in
      let collisions =
        List.filter
          (fun nv ->
            List.length (List.filter (fun (_, nv') -> nv' = nv) renames) >= 2)
          new_vectors
      in
      List.sort_uniq compare (from_old @ collisions)
    in
    let pending =
      List.fold_left
        (fun acc ((w, w'), dist) ->
          pending_merge acc
            (pkey (refresh_vector st w) (refresh_vector st w'))
            dist)
        [] st.pending
    in
    (* relax every pair (and multi self-pairs) through the boundary *)
    let pending =
      List.fold_left
        (fun acc w ->
          List.fold_left
            (fun acc w' ->
              if w < w' || (w = w' && List.mem w multi) then
                pending_add acc (pkey w w') (via_boundary st w w')
              else acc)
            acc new_vectors)
        pending new_vectors
    in
    { st with vectors = new_vectors; multi; pending = List.sort compare pending }

  let empty =
    {
      slot_list = [];
      metric = [];
      vectors = [];
      multi = [];
      pending = [];
      bad = false;
      sealed = false;
    }

  let introduce st s =
    if List.mem s st.slot_list then invalid_arg "Diameter.introduce: slot exists";
    if st.sealed then
      (* the sealed part had vertices and can never connect to the new
         one: the diameter is infinite *)
      { empty with slot_list = [ s ]; bad = true }
    else begin
      let extend v = List.sort compare ((s, cap) :: v) in
      refresh
        {
          st with
          slot_list = List.sort compare (s :: st.slot_list);
          vectors = List.map extend st.vectors;
          multi = List.map extend st.multi;
          pending =
            List.map
              (fun ((w, w'), x) -> (pkey (extend w) (extend w'), x))
              st.pending;
          sealed = false;
        }
    end

  let add_edge st a b =
    let m = if 1 < mdist st a b then set_metric st.metric a b 1 else st.metric in
    refresh { st with metric = m }

  let forget st s =
    let st = refresh st in
    let remaining = List.filter (fun x -> x <> s) st.slot_list in
    (* sealed distance from the vertex being forgotten to each class *)
    let dist_to_class w =
      List.fold_left
        (fun acc (x, dx) -> min acc (sat dx (mdist st x s)))
        cap w
    in
    if remaining = [] then begin
      (* the last slot: no edge can ever be added again, so every pair's
         verdict is final — judge BEFORE the keys collapse *)
      let bad =
        st.bad
        || List.exists (fun ((_, _), x) -> x > P.d) st.pending
        || List.exists (fun w -> dist_to_class w > P.d) st.vectors
      in
      {
        slot_list = [];
        metric = [];
        bad;
        sealed = true;
        vectors = [];
        multi = [];
        pending = [];
      }
    end
    else begin
      let v_full = List.map (fun x -> (x, mdist st s x)) st.slot_list in
      let drop_s v = List.filter (fun (x, _) -> x <> s) v in
      let v_new = drop_s (List.sort compare v_full) in
      (* pairs between the newly sealed vertex and every class *)
      let pending =
        List.fold_left
          (fun acc w ->
            pending_merge acc (pkey (drop_s w) v_new) (dist_to_class w))
          [] st.vectors
      in
      (* carry existing pairs, worst-of on key collisions *)
      let pending =
        List.fold_left
          (fun acc ((w, w'), x) ->
            pending_merge acc (pkey (drop_s w) (drop_s w')) x)
          pending st.pending
      in
      let collided = List.exists (fun w -> drop_s w = v_new) st.vectors in
      let dropped = List.map drop_s st.vectors in
      (* dropping the column can merge previously distinct classes *)
      let merged_multi =
        List.filter
          (fun v -> List.length (List.filter (fun v' -> v' = v) dropped) >= 2)
          (List.sort_uniq compare dropped)
      in
      let vectors = List.sort_uniq compare (v_new :: dropped) in
      let multi =
        List.sort_uniq compare
          ((if collided then [ v_new ] else [])
          @ merged_multi
          @ List.map drop_s st.multi)
      in
      refresh { st with slot_list = remaining; vectors; multi; pending }
    end

  let union a b =
    if List.exists (fun s -> List.mem s b.slot_list) a.slot_list then
      invalid_arg "Diameter.union: slot sets not disjoint";
    (* a sealed non-trivial side can never connect to the other side *)
    let side_has_vertices st =
      st.slot_list <> [] || st.vectors <> [] || st.sealed
    in
    let cross_bad =
      (a.sealed && side_has_vertices b && side_has_vertices a)
      || (b.sealed && side_has_vertices a && side_has_vertices b)
    in
    let extend other v =
      List.sort compare (v @ List.map (fun s -> (s, cap)) other.slot_list)
    in
    let va = List.map (extend b) a.vectors in
    let vb = List.map (extend a) b.vectors in
    let pending =
      List.fold_left
        (fun acc ((w, w'), x) ->
          pending_merge acc (pkey (extend b w) (extend b w')) x)
        [] a.pending
    in
    let pending =
      List.fold_left
        (fun acc ((w, w'), x) ->
          pending_merge acc (pkey (extend a w) (extend a w')) x)
        pending b.pending
    in
    (* cross pairs start unreachable *)
    let pending =
      List.fold_left
        (fun acc w ->
          List.fold_left
            (fun acc w' -> pending_merge acc (pkey w w') cap)
            acc vb)
        pending va
    in
    (* identical vectors across the two sides merge into one class with
       members on both sides *)
    let cross_multi = List.filter (fun w -> List.mem w vb) va in
    refresh
      {
        slot_list = List.sort compare (a.slot_list @ b.slot_list);
        metric = List.sort compare (a.metric @ b.metric);
        vectors = List.sort_uniq compare (va @ vb);
        multi =
          List.sort_uniq compare
            (cross_multi
            @ List.map (extend b) a.multi
            @ List.map (extend a) b.multi);
        pending = List.sort compare pending;
        bad = a.bad || b.bad || cross_bad;
        sealed = false;
      }

  let identify st ~keep ~drop =
    (* the two slots are the same vertex: distances merge by minimum *)
    let st = refresh st in
    let metric =
      List.fold_left
        (fun m x ->
          if x = keep || x = drop then m
          else
            let v = min (mdist st keep x) (mdist st drop x) in
            set_metric m keep x v)
        st.metric st.slot_list
    in
    let metric =
      List.filter (fun ((a, b), _) -> a <> drop && b <> drop) metric
    in
    let fold_vec v =
      let vk = min (vec_get v keep) (vec_get v drop) in
      List.sort compare
        ((keep, vk) :: List.filter (fun (x, _) -> x <> keep && x <> drop) v)
    in
    let folded = List.map fold_vec st.vectors in
    let merged_multi =
      List.filter
        (fun v -> List.length (List.filter (fun v' -> v' = v) folded) >= 2)
        (List.sort_uniq compare folded)
    in
    refresh
      {
        st with
        slot_list = List.filter (fun x -> x <> drop) st.slot_list;
        metric = List.sort compare metric;
        vectors = List.sort_uniq compare folded;
        multi =
          List.sort_uniq compare
            (merged_multi @ List.map fold_vec st.multi);
        pending =
          List.fold_left
            (fun acc ((w, w'), x) ->
              pending_merge acc (pkey (fold_vec w) (fold_vec w')) x)
            [] st.pending;
      }

  let rename st ~old_slot ~new_slot =
    if List.mem new_slot st.slot_list then
      invalid_arg "Diameter.rename: slot exists";
    let r x = if x = old_slot then new_slot else x in
    let rvec v = List.sort compare (List.map (fun (s, x) -> (r s, x)) v) in
    {
      st with
      slot_list = List.sort compare (List.map r st.slot_list);
      metric =
        List.sort compare
          (List.map (fun ((a, b), x) -> (norm (r a, r b), x)) st.metric);
      vectors = List.sort_uniq compare (List.map rvec st.vectors);
      multi = List.sort_uniq compare (List.map rvec st.multi);
      pending =
        List.sort compare
          (List.map (fun ((w, w'), x) -> (pkey (rvec w) (rvec w'), x)) st.pending);
    }

  let slots st = st.slot_list

  let accepts st =
    assert (st.slot_list = []);
    not st.bad

  let equal a b =
    a.slot_list = b.slot_list && a.metric = b.metric && a.vectors = b.vectors
    && a.multi = b.multi && a.pending = b.pending && a.bad = b.bad
    && a.sealed = b.sealed

  let encode w st =
    Bitenc.varint w (List.length st.slot_list);
    List.iter (fun s -> Bitenc.varint w (abs s)) st.slot_list;
    Bitenc.varint w (List.length st.metric);
    List.iter
      (fun ((a, b), x) ->
        Bitenc.varint w (abs a);
        Bitenc.varint w (abs b);
        Bitenc.varint w x)
      st.metric;
    let enc_vec v = List.iter (fun (_, x) -> Bitenc.varint w x) v in
    Bitenc.varint w (List.length st.vectors);
    List.iter enc_vec st.vectors;
    Bitenc.varint w (List.length st.multi);
    List.iter enc_vec st.multi;
    Bitenc.varint w (List.length st.pending);
    List.iter
      (fun ((v, v'), x) ->
        enc_vec v;
        enc_vec v';
        Bitenc.varint w x)
      st.pending;
    Bitenc.bit w st.bad;
    Bitenc.bit w st.sealed

  let pp ppf st =
    Format.fprintf ppf "diam<=%d(slots=%s; %d classes; %d pending; bad=%b)"
      P.d
      (String.concat "," (List.map string_of_int st.slot_list))
      (List.length st.vectors) (List.length st.pending) st.bad

  let oracle g =
    let module T = Lcp_graph.Traversal in
    let module Graph = Lcp_graph.Graph in
    Graph.n g = 0
    || (T.is_connected g && (Graph.n g = 1 || T.diameter g <= P.d))
end
