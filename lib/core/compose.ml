module Klane = Lcp_lanewidth.Klane

module Make (A : Lcp_algebra.Algebra_sig.S) = struct
  type iface = {
    lanes : int list;
    t_in : (int * int) list;
    t_out : (int * int) list;
  }

  let iface_of_klane ~vid (k : Klane.t) =
    {
      lanes = Klane.lanes k;
      t_in = List.map (fun (l, v) -> (l, vid v)) k.Klane.lane_in;
      t_out = List.map (fun (l, v) -> (l, vid v)) k.Klane.lane_out;
    }

  let iface_of_info (i : 'a Certificate.info) =
    {
      lanes = i.Certificate.lanes;
      t_in = i.Certificate.t_in;
      t_out = i.Certificate.t_out;
    }

  let terminals f =
    List.sort_uniq compare (List.map snd f.t_in @ List.map snd f.t_out)

  let forget_to st keep =
    List.fold_left
      (fun st s -> if List.mem s keep then st else A.forget st s)
      st (A.slots st)

  let forget_all st = forget_to st []
  let accepts st = A.accepts (forget_all st)

  let check cond msg = if not cond then invalid_arg ("Compose: " ^ msg)

  let assoc_lane name m l =
    match List.assoc_opt l m with
    | Some v -> v
    | None -> invalid_arg ("Compose: missing lane in " ^ name)

  (* allocation-free forms of the well-formedness predicates (this runs
     for every frame of every edge, so the old sort_uniq/map chains were
     a measurable slice of the verify allocation tax) *)
  let rec strictly_sorted = function
    | a :: (b :: _ as rest) -> a < b && strictly_sorted rest
    | _ -> true

  let rec lanes_match lanes pairs =
    match (lanes, pairs) with
    | [], [] -> true
    | l :: ls, (l', _) :: ps -> l = l' && lanes_match ls ps
    | _ -> false

  (* two-argument helper instead of List.exists so no closure is
     allocated per element *)
  let rec snd_mem v = function
    | [] -> false
    | (_, v') :: rest -> v' = v || snd_mem v rest

  let rec distinct_snd = function
    | [] -> true
    | (_, v) :: rest -> (not (snd_mem v rest)) && distinct_snd rest

  let well_formed f =
    check (f.lanes <> []) "empty lane set";
    check (strictly_sorted f.lanes) "lanes not sorted-unique";
    check (lanes_match f.lanes f.t_in) "t_in lanes mismatch";
    check (lanes_match f.lanes f.t_out) "t_out lanes mismatch";
    check (distinct_snd f.t_in) "t_in not injective";
    check (distinct_snd f.t_out) "t_out not injective"

  let v_state f =
    well_formed f;
    match (f.lanes, f.t_in, f.t_out) with
    | [ _ ], [ (_, v) ], [ (_, v') ] when v = v' -> A.introduce A.empty v
    | _ -> invalid_arg "Compose.v_state: not a V-node interface"

  let e_state f ~real =
    well_formed f;
    match (f.lanes, f.t_in, f.t_out) with
    | [ _ ], [ (_, a) ], [ (_, b) ] when a <> b ->
        let st = A.introduce (A.introduce A.empty a) b in
        if real then A.add_edge st a b else st
    | _ -> invalid_arg "Compose.e_state: not an E-node interface"

  let p_state f ~mask =
    well_formed f;
    check (f.t_in = f.t_out) "P-node: in and out terminals differ";
    let path = List.map snd f.t_in in
    check
      (List.length mask = max 0 (List.length path - 1))
      "P-node: wrong mask length";
    let st = List.fold_left A.introduce A.empty path in
    let rec go st vs mask =
      match (vs, mask) with
      | a :: (b :: _ as rest), real :: mask' ->
          go (if real then A.add_edge st a b else st) rest mask'
      | _, [] -> st
      | _ -> st
    in
    go st path mask

  let disjoint a b = List.for_all (fun x -> not (List.mem x b)) a

  let bridge (s1, f1) (s2, f2) ~i ~j ~real =
    well_formed f1;
    well_formed f2;
    check (disjoint f1.lanes f2.lanes) "bridge: lane sets intersect";
    check (List.mem i f1.lanes) "bridge: lane i not in left";
    check (List.mem j f2.lanes) "bridge: lane j not in right";
    let a = assoc_lane "left t_out" f1.t_out i in
    let b = assoc_lane "right t_out" f2.t_out j in
    let st = A.union s1 s2 in
    let st = if real then A.add_edge st a b else st in
    let f =
      {
        lanes = List.sort compare (f1.lanes @ f2.lanes);
        t_in = List.sort compare (f1.t_in @ f2.t_in);
        t_out = List.sort compare (f1.t_out @ f2.t_out);
      }
    in
    well_formed f;
    (st, f)

  let parent ~child:(sc, fc) ~parent:(sp, fp) =
    well_formed fc;
    well_formed fp;
    check
      (List.for_all (fun l -> List.mem l fp.lanes) fc.lanes)
      "parent: child lanes not a subset";
    let glued =
      List.map
        (fun l ->
          let tin = assoc_lane "child t_in" fc.t_in l in
          let tout = assoc_lane "parent t_out" fp.t_out l in
          check (tin = tout) "parent: child in-terminal <> parent out-terminal";
          tin)
        fc.lanes
    in
    let sc, temp_pairs =
      List.fold_left
        (fun (st, acc) s ->
          let tmp = -(s + 1) in
          (A.rename st ~old_slot:s ~new_slot:tmp, (s, tmp) :: acc))
        (sc, []) glued
    in
    let st =
      List.fold_left
        (fun st (s, tmp) -> A.identify st ~keep:s ~drop:tmp)
        (A.union sc sp) temp_pairs
    in
    let f =
      {
        lanes = fp.lanes;
        t_in = fp.t_in;
        t_out =
          List.map
            (fun l ->
              match List.assoc_opt l fc.t_out with
              | Some v -> (l, v)
              | None -> (l, assoc_lane "parent t_out" fp.t_out l))
            fp.lanes;
      }
    in
    well_formed f;
    (forget_to st (terminals f), f)
end
