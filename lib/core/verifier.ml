module Scheme = Lcp_pls.Scheme
module Spanning_tree = Lcp_pls.Spanning_tree
open Certificate

exception Reject of string

module Make (A : Lcp_algebra.Algebra_sig.S) = struct
  module C = Compose.Make (A)

  type item = {
    frames : A.state frame list;
    is_real : bool;
  }

  let fail fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt
  let info_equal (a : A.state info) (b : A.state info) =
    a == b
    || a.node_id = b.node_id && a.lanes = b.lanes && a.t_in = b.t_in
       && a.t_out = b.t_out
       && (a.state == b.state || A.equal a.state b.state)

  (* frame equality: T-frames fully; B-frames modulo per-edge fields *)
  let frames_equal f1 f2 =
    f1 == f2
    ||
    match (f1, f2) with
    | ( T_frame { member = m1, k1; merged = g1; is_tree_root = r1;
                  member_real = e1; children = c1 },
        T_frame { member = m2, k2; merged = g2; is_tree_root = r2;
                  member_real = e2; children = c2 } ) ->
        info_equal m1 m2 && k1 = k2 && info_equal g1 g2 && r1 = r2 && e1 = e2
        && List.length c1 = List.length c2
        && List.for_all2
             (fun (i1, a) (i2, b) -> i1 = i2 && info_equal a b)
             c1 c2
    | ( B_frame { bnode = b1; i = i1; j = j1; left = l1, lk1;
                  right = r1, rk1; bridge_real = br1;
                  left_root_member = lm1; right_root_member = rm1; _ },
        B_frame { bnode = b2; i = i2; j = j2; left = l2, lk2;
                  right = r2, rk2; bridge_real = br2;
                  left_root_member = lm2; right_root_member = rm2; _ } ) ->
        info_equal b1 b2 && i1 = i2 && j1 = j2 && info_equal l1 l2 && lk1 = lk2
        && info_equal r1 r2 && rk1 = rk2 && br1 = br2 && lm1 = lm2 && rm1 = rm2
    | _ -> false

  (* ---------------------------------------------------------------- *)
  (* virtual-edge transport (§6.2, certifying the embedding)           *)

  let check_transport ~my_id labels =
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (l : A.state label) ->
        List.iter
          (fun r ->
            let key = (r.vu, r.vv) in
            Hashtbl.replace groups key
              (r :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
          l.transported)
      labels;
    let virtual_items = ref [] in
    Hashtbl.iter
      (fun (vu, vv) records ->
        if vu = vv then fail "transport: degenerate virtual edge %d-%d" vu vv;
        (match records with
        | r0 :: rest ->
            List.iter
              (fun r ->
                if not (r.vframes == r0.vframes || r.vframes = r0.vframes) then fail
                  "transport: inconsistent payload for %d-%d" vu vv)
              rest
        | [] -> ());
        if my_id = vu || my_id = vv then begin
          match records with
          | [ r ] ->
              if not ((r.rank_fwd = 1 && vu = my_id)
                || (r.rank_bwd = 1 && vv = my_id)) then fail
                "transport: endpoint %d has wrong rank for %d-%d" my_id vu vv;
              virtual_items :=
                { frames = r.vframes; is_real = false } :: !virtual_items
          | rs ->
              fail "transport: endpoint %d sees %d records for %d-%d" my_id
                (List.length rs) vu vv
        end
        else begin
          match records with
          | [ r1; r2 ] ->
              if not (r1.rank_fwd + r1.rank_bwd = r2.rank_fwd + r2.rank_bwd) then fail
                "transport: rank sums differ for %d-%d" vu vv;
              if not (abs (r1.rank_fwd - r2.rank_fwd) = 1) then fail
                "transport: ranks not consecutive for %d-%d" vu vv;
              if not (r1.rank_fwd >= 1 && r2.rank_fwd >= 1 && r1.rank_bwd >= 1
               && r2.rank_bwd >= 1) then fail
                "transport: non-positive rank for %d-%d" vu vv
          | rs ->
              fail "transport: interior vertex sees %d records for %d-%d"
                (List.length rs) vu vv
        end)
      groups;
    !virtual_items

  (* ---------------------------------------------------------------- *)
  (* stack shape: alternating T/B frames, bounded depth, bounded lanes *)

  let check_stack ~max_lanes (it : item) =
    let frames = it.frames in
    if frames = [] then fail "stack: edge with empty frame stack";
    if not (List.length frames <= 2 * max_lanes) then fail
      "stack: deeper than 2k (Obs 5.5 violated)";
    let check_info (info : A.state info) =
      if info.lanes = [] then fail "stack: empty lane set";
      List.iter
        (fun l ->
          if not (l >= 0 && l < max_lanes) then fail "stack: lane %d out of range" l)
        info.lanes
    in
    let rec walk frames =
      match frames with
      | [] -> fail "stack: dangling branch"
      | T_frame { member = minfo, mkind; merged; _ } :: rest -> (
          check_info minfo;
          check_info merged;
          match mkind with
          | KE | KP ->
              if rest <> [] then fail "stack: frames below a leaf member"
          | KB -> (
              match rest with
              | B_frame { bnode; _ } :: _ ->
                  if not (bnode.node_id = minfo.node_id && info_equal bnode minfo) then fail
                    "stack: B-frame does not match its member";
                  walk rest
              | _ -> fail "stack: B member without B-frame")
          | KV | KT -> fail "stack: tree member of kind V or T")
      | B_frame { bnode; left = _, lkind; right = _, rkind; position; _ }
        :: rest -> (
          check_info bnode;
          if not (lkind = KV || lkind = KT) then fail
            "stack: B-node left part of invalid kind";
          if not (rkind = KV || rkind = KT) then fail
            "stack: B-node right part of invalid kind";
          match position with
          | `Bridge -> if rest <> [] then fail "stack: frames below a bridge edge"
          | `Left ->
              if lkind <> KT then fail "stack: edge inside a V-node part";
              (match rest with
              | T_frame _ :: _ -> walk rest
              | _ -> fail "stack: B side without inner tree frame")
          | `Right ->
              if rkind <> KT then fail "stack: edge inside a V-node part";
              (match rest with
              | T_frame _ :: _ -> walk rest
              | _ -> fail "stack: B side without inner tree frame"))
    in
    (* first frame must be a T-frame: the whole certificate is a T-node *)
    (match frames with
    | T_frame _ :: _ -> ()
    | _ -> fail "stack: top frame is not a T-frame");
    walk frames

  (* ---------------------------------------------------------------- *)
  (* grouping frames by hierarchy node                                 *)

  type t_group = {
    tg_level : int;
    tg_frame : A.state frame; (* representative T_frame *)
    mutable tg_items : item list; (* items whose stack carries it *)
  }

  type b_group = {
    bg_level : int;
    bg_frame : A.state frame;
    mutable bg_items : (item * [ `Bridge | `Left | `Right ]
                        * Spanning_tree.label option
                        * Spanning_tree.label option) list;
  }

  let collect_groups items =
    let tgroups : (int, t_group) Hashtbl.t = Hashtbl.create 16 in
    let bgroups : (int, b_group) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun it ->
        List.iteri
          (fun level frame ->
            match frame with
            | T_frame { member = minfo, _; _ } -> (
                match Hashtbl.find_opt tgroups minfo.node_id with
                | None ->
                    Hashtbl.replace tgroups minfo.node_id
                      { tg_level = level; tg_frame = frame; tg_items = [ it ] }
                | Some g ->
                    if g.tg_level <> level then fail
                      "group: node %d appears at two levels" minfo.node_id;
                    if not (frames_equal g.tg_frame frame) then fail
                      "group: inconsistent T-frames for node %d" minfo.node_id;
                    g.tg_items <- it :: g.tg_items)
            | B_frame { bnode; position; left_ptr; right_ptr; _ } -> (
                match Hashtbl.find_opt bgroups bnode.node_id with
                | None ->
                    Hashtbl.replace bgroups bnode.node_id
                      {
                        bg_level = level;
                        bg_frame = frame;
                        bg_items = [ (it, position, left_ptr, right_ptr) ];
                      }
                | Some g ->
                    if g.bg_level <> level then fail
                      "group: node %d appears at two levels" bnode.node_id;
                    if not (frames_equal g.bg_frame frame) then fail
                      "group: inconsistent B-frames for node %d" bnode.node_id;
                    g.bg_items <-
                      (it, position, left_ptr, right_ptr) :: g.bg_items))
          it.frames)
      items;
    (tgroups, bgroups)

  (* ---------------------------------------------------------------- *)

  let multiset_eq a b = List.sort compare a = List.sort compare b

  (* ---------------------------------------------------------------- *)
  (* group-check memo                                                  *)

  (* Run centrally, a hierarchy node is checked at every vertex that
     carries one of its edges. A group's checks are of two kinds. The
     pure sub-checks are functions of the frame's own fields: the E/P
     member class, the f_P fold and f_B with their interface compares,
     and the V-part classes. The per-vertex ones read [my_id] or the
     vertex's items. [passed] remembers, per instance, the frames of
     group checks that passed; a later check of the same frame skips
     its pure sub-checks in place, so the first failing check and its
     reason are the uncached verifier's. Failures are never remembered.
     A T-group matches on its frame by physical identity. A B-group's
     frames differ per edge, so it matches on its node, left and right
     infos by physical identity plus the glue fields f_B reads. Frames
     are immutable, so [==] implies equal fields. Buckets are node ids
     holding at most [max_cands] frames, newest first: a forgery that
     reuses one node id everywhere costs a constant per lookup. *)

  let max_cands = 4

  (* both memos' insert: newest first, at most [max_cands] a bucket, the
     table reset wholesale at the cap (checked before reading a bucket,
     as in [Compose]) *)
  let push tbl id x =
    if !Memo.enabled then begin
      if Hashtbl.length tbl >= Memo.max_entries then Hashtbl.reset tbl;
      let cs = Option.value ~default:[] (Hashtbl.find_opt tbl id) in
      Hashtbl.replace tbl id (x :: List.filteri (fun k _ -> k < max_cands - 1) cs)
    end

  (* bucket sizes, exposed for the bound tests *)
  let bucket_max tbl = Hashtbl.fold (fun _ cs m -> max m (List.length cs)) tbl 0

  let passed : (int, A.state frame list) Hashtbl.t = Hashtbl.create 64

  (* [c] is [f] as far as the pure sub-checks can tell *)
  let same_pure f c =
    f == c
    ||
    match (f, c) with
    | ( B_frame { bnode = b1; i = i1; j = j1; left = l1, lk1; right = r1, rk1;
                  bridge_real = br1; _ },
        B_frame { bnode = b2; i = i2; j = j2; left = l2, lk2; right = r2, rk2;
                  bridge_real = br2; _ } ) ->
        b1 == b2 && l1 == l2 && r1 == r2 && i1 = i2 && j1 = j2 && lk1 = lk2
        && rk1 = rk2 && br1 = br2
    | _ -> false

  let rec mem_pure f = function
    | [] -> false
    | c :: rest -> same_pure f c || mem_pure f rest

  let node_of = function
    | T_frame { member = minfo, _; _ } -> minfo.node_id
    | B_frame { bnode; _ } -> bnode.node_id

  let known f =
    !Memo.enabled
    &&
    let hit =
      match Hashtbl.find_opt passed (node_of f) with
      | Some cs -> mem_pure f cs
      | None -> false
    in
    incr (if hit then Memo.group_hits else Memo.group_misses);
    hit

  let remember f = push passed (node_of f) f
  let group_table_size () = Hashtbl.length passed
  let group_bucket_max () = bucket_max passed

  let check_t_group ~my_id ~accept_claim tgroups (g : t_group) =
    match g.tg_frame with
    | B_frame _ -> assert false
    | T_frame { member = minfo, mkind; merged; is_tree_root; member_real;
                children } ->
        let hit = known g.tg_frame in
        let iface = C.iface_of_info minfo in
        (* member-kind specific checks *)
        (match mkind with
        | KE ->
            if List.length member_real <> 1 then fail "E-member: bad realness mask";
            let real = List.hd member_real in
            if not hit then begin
              let st =
                try C.e_state iface ~real
                with Invalid_argument m -> fail "E-member: %s" m
              in
              if not (A.equal st minfo.state) then fail "E-member: wrong class"
            end;
            let a = snd (List.hd iface.C.t_in)
            and b = snd (List.hd iface.C.t_out) in
            if not (my_id = a || my_id = b) then fail
              "E-member: I carry an edge of an E-node I am not in";
            (match g.tg_items with
            | [ it ] ->
                if it.is_real <> real then fail "E-member: realness mismatch"
            | items ->
                fail "E-member: %d incident edges of a single-edge node"
                  (List.length items))
        | KP ->
            if not hit then begin
              let st =
                try C.p_state iface ~mask:member_real
                with Invalid_argument m -> fail "P-member: %s" m
              in
              if not (A.equal st minfo.state) then fail "P-member: wrong class"
            end;
            let path = List.map snd iface.C.t_in in
            let len = List.length path in
            let pos =
              match
                List.find_index (fun v -> v = my_id)
                  path
              with
              | Some p -> p
              | None -> fail "P-member: I carry an edge of a path I am not on"
            in
            let expected_flags =
              (if pos > 0 then [ List.nth member_real (pos - 1) ] else [])
              @
              if pos < len - 1 then [ List.nth member_real pos ] else []
            in
            if not (multiset_eq expected_flags
                 (List.map (fun it -> it.is_real) g.tg_items)) then fail
              "P-member: incident edges do not match the path"
        | KB ->
            if member_real <> [] then fail "B-member: unexpected realness mask"
            (* class and topology checked by the B-group *)
        | KV | KT -> fail "T-group: member of invalid kind");
        (* merged class = f_P fold of member and children *)
        if not hit then begin
          let merged_state, merged_iface =
            try
              List.fold_left
                (fun (sp, fp) ((_, cinfo) : int * A.state info) ->
                  C.parent
                    ~child:(cinfo.state, C.iface_of_info cinfo)
                    ~parent:(sp, fp))
                (minfo.state, iface) children
            with Invalid_argument m -> fail "Tree-merge: %s" m
          in
          if not (A.equal merged_state merged.state) then fail
            "Tree-merge: claimed class differs from f_P of the parts";
          if merged_iface <> C.iface_of_info merged then fail
            "Tree-merge: claimed terminals differ from the merge of the parts"
        end;
        (* junction: children claiming me as in-terminal must be visible *)
        List.iter
          (fun ((rid, cinfo) : int * A.state info) ->
            if List.exists (fun (_, v) -> v = my_id) cinfo.t_in then begin
              match Hashtbl.find_opt tgroups rid with
              | None ->
                  fail
                    "Tree-merge: a child attaching at me (node %d) is invisible"
                    rid
              | Some cg -> (
                  match cg.tg_frame with
                  | T_frame { merged = cmerged; is_tree_root = croot; _ } ->
                      if not (not croot) then fail
                        "Tree-merge: child root member claims to be tree root";
                      if cg.tg_level <> g.tg_level then fail
                        "Tree-merge: child member at wrong level";
                      if not (info_equal cmerged cinfo) then fail
                        "Tree-merge: child merged info mismatch"
                  | B_frame _ -> assert false)
            end)
          children;
        (* the root of the outermost tree carries the global class *)
        if is_tree_root && g.tg_level = 0 then begin
          let ok = try C.accepts merged.state with Invalid_argument m -> fail "root: %s" m in
          if ok <> accept_claim then fail
            "root: accept bit does not match the root class";
          if not (ok) then fail "root: the property does not hold"
        end;
        if not hit then remember g.tg_frame

  let check_b_group ~my_id tgroups (g : b_group) =
    match g.bg_frame with
    | T_frame _ -> assert false
    | B_frame { bnode; i; j; left = linfo, lkind; right = rinfo, rkind;
                bridge_real; left_root_member; right_root_member; _ } ->
        let hit = known g.bg_frame in
        (* recompute f_B *)
        if not hit then begin
          let lif = C.iface_of_info linfo and rif = C.iface_of_info rinfo in
          let st, iface =
            try C.bridge (linfo.state, lif) (rinfo.state, rif) ~i ~j
                  ~real:bridge_real
            with Invalid_argument m -> fail "Bridge-merge: %s" m
          in
          if not (A.equal st bnode.state) then fail
            "Bridge-merge: claimed class differs from f_B of the parts";
          if iface <> C.iface_of_info bnode then fail
            "Bridge-merge: claimed terminals differ from the merge"
        end;
        (* V-node parts: class recomputation + pointer certification *)
        let check_side side_info side_kind root_member get_ptr =
          match side_kind with
          | KV -> begin
              if not hit then begin
                let st =
                  try C.v_state (C.iface_of_info side_info)
                  with Invalid_argument m -> fail "V-part: %s" m
                in
                if not (A.equal st side_info.state) then fail
                  "V-part: wrong class"
              end;
              let target = snd (List.hd side_info.t_in) in
              let ptrs =
                List.map
                  (fun entry ->
                    match get_ptr entry with
                    | Some p -> p
                    | None -> fail "V-part: missing pointer sub-label")
                  g.bg_items
              in
              let view =
                {
                  Scheme.ev_id = my_id;
                  ev_degree = List.length ptrs;
                  ev_labels = ptrs;
                }
              in
              match Spanning_tree.verify ~target view with
              | Ok () -> ()
              | Error m -> fail "V-part: %s" m
            end
          | KT ->
              if root_member = None then fail
                "T-part: missing root member reference"
          | _ -> fail "B-node part of invalid kind"
        in
        check_side linfo lkind left_root_member (fun (_, _, lp, _) -> lp);
        check_side rinfo rkind right_root_member (fun (_, _, _, rp) -> rp);
        (* bridge edge endpoints *)
        let a =
          match List.assoc_opt i linfo.t_out with
          | Some v -> v
          | None -> fail "Bridge-merge: lane %d missing in left part" i
        in
        let b =
          match List.assoc_opt j rinfo.t_out with
          | Some v -> v
          | None -> fail "Bridge-merge: lane %d missing in right part" j
        in
        let bridge_items =
          List.filter (fun (_, p, _, _) -> p = `Bridge) g.bg_items
        in
        if my_id = a || my_id = b then begin
          match bridge_items with
          | [ (it, _, _, _) ] ->
              if it.is_real <> bridge_real then fail
                "Bridge-merge: bridge realness mismatch"
          | items ->
              fail "Bridge-merge: endpoint sees %d bridge edges"
                (List.length items)
        end
        else
          if bridge_items <> [] then fail
            "Bridge-merge: non-endpoint carries the bridge edge";
        (* side items link into the inner trees *)
        let check_side_items position side_info root_member =
          List.iter
            (fun (it, p, _, _) ->
              if p = position then begin
                (* locate the frame right below this B-frame in the stack *)
                let rec below = function
                  | B_frame { bnode = b'; _ } :: rest
                    when b'.node_id = bnode.node_id ->
                      rest
                  | _ :: rest -> below rest
                  | [] -> []
                in
                match below it.frames with
                | T_frame { member; merged; is_tree_root; _ } :: _ ->
                    if is_tree_root then begin
                      if not (Some (fst member).node_id = root_member) then fail
                        "B-part: inner tree root member mismatch";
                      if not (info_equal merged side_info) then fail
                        "B-part: inner tree class differs from the part info"
                    end
                    else
                      (* the declared root member cannot hide its
                         tree-rootness: a cleared bit would disable the
                         two checks above *)
                      if not (Some (fst member).node_id <> root_member) then fail
                        "B-part: root member does not claim tree-rootness"
                | _ -> fail "B-part: side edge without inner frame"
              end)
            g.bg_items
        in
        check_side_items `Left linfo left_root_member;
        check_side_items `Right rinfo right_root_member;
        (* tie to the enclosing tree: the root member of a side tree must
           be visible at the in-terminals *)
        ignore tgroups;
        if not hit then remember g.bg_frame

  (* ---------------------------------------------------------------- *)

  let check ~max_lanes (view : A.state label Scheme.edge_view) =
    try
      let my_id = view.Scheme.ev_id in
      match view.Scheme.ev_labels with
      | [] ->
          (* the whole (connected) network is this single vertex *)
          let st = A.introduce A.empty my_id in
          if C.accepts st then Ok ()
          else Error "singleton: the property does not hold"
      | labels ->
          (* consistent accept bit, required true *)
          let accept_claim = (List.hd labels).accept_state in
          List.iter
            (fun (l : A.state label) ->
              if l.accept_state <> accept_claim then fail
                "inconsistent accept bits")
            labels;
          if not (accept_claim) then fail "the prover admits the property fails";
          (* global pointer *)
          (match
             Spanning_tree.verify
               {
                 Scheme.ev_id = my_id;
                 ev_degree = view.Scheme.ev_degree;
                 ev_labels = List.map (fun l -> l.global_ptr) labels;
               }
           with
          | Ok () -> ()
          | Error m -> fail "global %s" m);
          (* virtual-edge transport *)
          let virtual_items = check_transport ~my_id labels in
          let items =
            List.map (fun (l : A.state label) ->
                { frames = l.frames; is_real = true })
              labels
            @ virtual_items
          in
          List.iter (check_stack ~max_lanes) items;
          let tgroups, bgroups = collect_groups items in
          (* the pointer's target must be a root-member vertex: if it is
             me, I must carry a root-member edge *)
          let ptr_target = (List.hd labels).global_ptr.Spanning_tree.target in
          if ptr_target = my_id then begin
            let has_root =
              Hashtbl.fold
                (fun _ g acc ->
                  acc
                  ||
                  match g.tg_frame with
                  | T_frame { is_tree_root; _ } ->
                      is_tree_root && g.tg_level = 0
                  | B_frame _ -> false)
                tgroups false
            in
            if not (has_root) then fail "pointer target is not in the root member"
          end;
          Hashtbl.iter
            (fun _ g -> check_t_group ~my_id ~accept_claim tgroups g)
            tgroups;
          Hashtbl.iter (fun _ g -> check_b_group ~my_id tgroups g) bgroups;
          Ok ()
    with Reject reason -> Error reason

  (* ---------------------------------------------------------------- *)
  (* view memo                                                         *)

  (* V is a function of the view alone: with [A] fixed, the verdict
     depends on [max_lanes], the id, the degree and the ordered labels,
     and nothing else. [views] remembers, per instance, the views it
     accepted, keyed by id; a later view with the same [max_lanes] and
     degree whose labels are, element by element, the very values
     ([==]) of a remembered one is answered [Ok ()] without a check.
     Labels are immutable, so [==] implies equal labels and the answer
     is the uncached verdict. Rejected views are never remembered. Such
     a hit needs the same label values twice in one instance: a delta
     session's memory-tier recall, which serves a labeling its own
     instance verified before; decoded bundles and fresh proofs bring
     new values and check in full. A bucket holds at most [max_cands]
     views, most recently used first, so the two labelings a toggling
     edit stream alternates between both stay resident. *)

  let views : (int, (int * A.state label Scheme.edge_view) list) Hashtbl.t =
    Hashtbl.create 64

  let rec same_labels a b =
    match (a, b) with
    | [], [] -> true
    | x :: a, y :: b -> x == y && same_labels a b
    | _ -> false

  let same_view ~max_lanes (view : _ Scheme.edge_view) (lanes, (v : _ Scheme.edge_view)) =
    lanes = max_lanes && v.Scheme.ev_degree = view.Scheme.ev_degree
    && same_labels v.Scheme.ev_labels view.Scheme.ev_labels

  (* the bucket with its first match moved to the front, if any *)
  let rec to_front ~max_lanes view seen = function
    | [] -> None
    | c :: rest ->
        if same_view ~max_lanes view c then Some (c :: List.rev_append seen rest)
        else to_front ~max_lanes view (c :: seen) rest

  let accepted_before ~max_lanes (view : _ Scheme.edge_view) =
    !Memo.enabled
    &&
    let id = view.Scheme.ev_id in
    let hit =
      match Hashtbl.find_opt views id with
      | Some (c :: _) when same_view ~max_lanes view c -> true
      | Some cs -> (
          match to_front ~max_lanes view [] cs with
          | Some cs -> Hashtbl.replace views id cs; true
          | None -> false)
      | None -> false
    in
    incr (if hit then Memo.view_hits else Memo.view_misses);
    hit

  let view_table_size () = Hashtbl.length views
  let view_bucket_max () = bucket_max views

  let verify ~max_lanes view =
    if accepted_before ~max_lanes view then Ok ()
    else
      match check ~max_lanes view with
      | Ok () -> push views view.Scheme.ev_id (max_lanes, view); Ok ()
      | Error _ as e -> e
end
