module Graph = Lcp_graph.Graph
module Traversal = Lcp_graph.Traversal
module Representation = Lcp_interval.Representation
module Lane_partition = Lcp_lanes.Lane_partition
module Completion = Lcp_lanes.Completion
module Embedding = Lcp_lanes.Embedding
module Low_congestion = Lcp_lanes.Low_congestion
module Bounds = Lcp_lanes.Bounds
module Klane = Lcp_lanewidth.Klane
module Hierarchy = Lcp_lanewidth.Hierarchy
module Prop52 = Lcp_lanewidth.Prop52
module Builder = Lcp_lanewidth.Builder
module Config = Lcp_pls.Config
module Scheme = Lcp_pls.Scheme
module Spanning_tree = Lcp_pls.Spanning_tree
open Certificate

type strategy = [ `Hybrid | `Prop46 | `Greedy ]

let lanes_fallback = ref 0

(* The Obs 4.3 partition, and shortest paths for the edges its
   completion adds *)
let greedy_lanes g rep =
  let p = Lane_partition.of_greedy_coloring rep in
  let edges = Completion.new_edges_full p in
  let embedding =
    List.filter_map
      (fun ((a, b), path) ->
        Option.map (fun path -> (Graph.canonical_edge a b, path)) path)
      (List.combine edges (Traversal.shortest_paths g edges))
  in
  (p, embedding)

let prop46_lanes rep =
  incr lanes_fallback;
  let r = Low_congestion.construct rep in
  (r.Low_congestion.partition, r.Low_congestion.full_embedding)

(* Theorem 1's size argument asks two things of the lane partition of a
   width-w representation: at most f(w) lanes, and an embedding of its
   completion with congestion at most h(w) (Prop 4.6 builds one). The
   scheme for pathwidth k caps the lanes at f(k+1), so w = k+1 there;
   without a cap, w is the representation's own width. The greedy
   partition has exactly as many lanes as the representation is wide,
   and it is kept only for a representation of width at most w: a wider
   one is left to Prop 4.6, as before, so the hybrid serves and declines
   exactly the jobs Prop 4.6 alone does. From w = 17 on, h(w) overflows
   a native int and bounds nothing. *)
let within_bounds ?max_lanes rep ~lanes ~congestion =
  let w =
    match max_lanes with
    | Some m -> Bounds.width_for_lanes m
    | None -> Representation.width rep
  in
  lanes <= w && (w >= 17 || congestion <= Bounds.h w)

module Make (A : Lcp_algebra.Algebra_sig.S) = struct
  module C = Compose.Make (A)

  type labeling = A.state Certificate.label Scheme.Edge_map.t

  type artifacts = {
    labels : labeling;
    completion : Graph.t;
    hierarchy : Hierarchy.t;
    lane_count : int;
    congestion : int;
    holds : bool;
  }

  let info_of ~fresh iface state =
    {
      node_id = fresh ();
      lanes = iface.C.lanes;
      t_in = iface.C.t_in;
      t_out = iface.C.t_out;
      state;
    }

  (* BFS pointer sub-labels inside a k-lane subgraph, targeting [root] *)
  let subgraph_pointer ~vid (k : Klane.t) root =
    let adj = Hashtbl.create 16 in
    List.iter
      (fun (u, v) ->
        Hashtbl.replace adj u
          (v :: Option.value ~default:[] (Hashtbl.find_opt adj u));
        Hashtbl.replace adj v
          (u :: Option.value ~default:[] (Hashtbl.find_opt adj v)))
      k.Klane.edges;
    let dist = Hashtbl.create 16 and parent = Hashtbl.create 16 in
    Hashtbl.replace dist root 0;
    let q = Queue.create () in
    Queue.push root q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun w ->
          if not (Hashtbl.mem dist w) then begin
            Hashtbl.replace dist w (Hashtbl.find dist u + 1);
            Hashtbl.replace parent w u;
            Queue.push w q
          end)
        (Option.value ~default:[] (Hashtbl.find_opt adj u))
    done;
    let target = vid root in
    List.map
      (fun (u, v) ->
        let lab =
          if Hashtbl.find_opt parent u = Some v then
            { Spanning_tree.target; parent = Some (Hashtbl.find dist u, vid u) }
          else if Hashtbl.find_opt parent v = Some u then
            { Spanning_tree.target; parent = Some (Hashtbl.find dist v, vid v) }
          else { Spanning_tree.target; parent = None }
        in
        ((u, v), lab))
      k.Klane.edges

  type node_result = {
    nr_info : A.state info;
    nr_kind : kind;
    nr_klane : Klane.t;
    nr_root_member : int option;
    nr_real_mask : bool list; (* for E/P nodes *)
  }

  (* the realness mask of a P-node, in lane order *)
  let p_mask ~is_real (k : Klane.t) =
    let path = List.map (fun l -> Klane.tau_in k l) (Klane.lanes k) in
    let rec go = function
      | a :: (b :: _ as rest) -> is_real a b :: go rest
      | [] | [ _ ] -> []
    in
    go path

  let annotate ~vid ~is_real ~fresh ~push hierarchy =
    let rec process (h : Hierarchy.t) : node_result =
      match h with
      | Hierarchy.V_node k ->
          let iface = C.iface_of_klane ~vid k in
          {
            nr_info = info_of ~fresh iface (C.v_state iface);
            nr_kind = KV;
            nr_klane = k;
            nr_root_member = None;
            nr_real_mask = [];
          }
      | Hierarchy.E_node k ->
          let iface = C.iface_of_klane ~vid k in
          let real =
            match k.Klane.edges with
            | [ (u, v) ] -> is_real u v
            | _ -> invalid_arg "Prover: malformed E-node"
          in
          {
            nr_info = info_of ~fresh iface (C.e_state iface ~real);
            nr_kind = KE;
            nr_klane = k;
            nr_root_member = None;
            nr_real_mask = [ real ];
          }
      | Hierarchy.P_node k ->
          let iface = C.iface_of_klane ~vid k in
          let mask = p_mask ~is_real k in
          {
            nr_info = info_of ~fresh iface (C.p_state iface ~mask);
            nr_kind = KP;
            nr_klane = k;
            nr_root_member = None;
            nr_real_mask = mask;
          }
      | Hierarchy.B_node { result; left; right; i; j } ->
          let lr = process left and rr = process right in
          let bridge_edge =
            Graph.canonical_edge
              (Klane.tau_out lr.nr_klane i)
              (Klane.tau_out rr.nr_klane j)
          in
          let bridge_real = is_real (fst bridge_edge) (snd bridge_edge) in
          let state, iface =
            C.bridge
              (lr.nr_info.state, C.iface_of_klane ~vid lr.nr_klane)
              (rr.nr_info.state, C.iface_of_klane ~vid rr.nr_klane)
              ~i ~j ~real:bridge_real
          in
          let binfo = info_of ~fresh iface state in
          let left_ptrs =
            match left with
            | Hierarchy.V_node vk ->
                Some (subgraph_pointer ~vid result (List.hd vk.Klane.vertices))
            | _ -> None
          in
          let right_ptrs =
            match right with
            | Hierarchy.V_node vk ->
                Some (subgraph_pointer ~vid result (List.hd vk.Klane.vertices))
            | _ -> None
          in
          let ptr_for ptrs e =
            Option.map
              (fun l -> List.assoc (Graph.canonical_edge (fst e) (snd e)) l)
              ptrs
          in
          let position e =
            if e = bridge_edge then `Bridge
            else if List.mem e lr.nr_klane.Klane.edges then `Left
            else `Right
          in
          List.iter
            (fun e ->
              push e
                (B_frame
                   {
                     bnode = binfo;
                     i;
                     j;
                     left = (lr.nr_info, lr.nr_kind);
                     right = (rr.nr_info, rr.nr_kind);
                     bridge_real;
                     left_root_member = lr.nr_root_member;
                     right_root_member = rr.nr_root_member;
                     position = position e;
                     left_ptr = ptr_for left_ptrs e;
                     right_ptr = ptr_for right_ptrs e;
                   }))
            result.Klane.edges;
          {
            nr_info = binfo;
            nr_kind = KB;
            nr_klane = result;
            nr_root_member = None;
            nr_real_mask = [];
          }
      | Hierarchy.T_node { t_result = _; tree } ->
          let merged_info, root_member, merged_klane =
            process_ttree ~is_root:true tree
          in
          {
            nr_info = merged_info;
            nr_kind = KT;
            nr_klane = merged_klane;
            nr_root_member = Some root_member;
            nr_real_mask = [];
          }
    and process_ttree ~is_root (t : Hierarchy.ttree) =
      let piece = process t.Hierarchy.piece in
      let children =
        List.map (fun c -> process_ttree ~is_root:false c) t.Hierarchy.children
      in
      let merged_state, merged_iface =
        List.fold_left
          (fun (sp, fp) (cinfo, _, _) ->
            C.parent
              ~child:(cinfo.state, C.iface_of_info cinfo)
              ~parent:(sp, fp))
          (piece.nr_info.state, C.iface_of_info piece.nr_info)
          children
      in
      (* the interface folded from the infos must agree with the one read
         off the merged k-lane graph; using the folded one guarantees the
         verifier's recomputation matches bit for bit *)
      assert (merged_iface = C.iface_of_klane ~vid t.Hierarchy.merged);
      let merged_info = info_of ~fresh merged_iface merged_state in
      let frame =
        T_frame
          {
            member = (piece.nr_info, piece.nr_kind);
            merged = merged_info;
            is_tree_root = is_root;
            member_real = piece.nr_real_mask;
            children =
              List.map (fun (cinfo, root_id, _) -> (root_id, cinfo)) children;
          }
      in
      List.iter (fun e -> push e frame) piece.nr_klane.Klane.edges;
      (merged_info, piece.nr_info.node_id, t.Hierarchy.merged)
    in
    process hierarchy

  (* ------------------------------------------------------------------ *)

  let prepare ?(strategy = `Hybrid) ?rep ?max_lanes cfg =
    let g = Config.graph cfg in
    if Graph.n g = 0 then Error "empty graph"
    else if not (Traversal.is_connected g) then Error "disconnected graph"
    else begin
      let rep =
        match rep with
        | Some r ->
            if
              Representation.graph r == g
              || Graph.equal (Representation.graph r) g
            then r
            else
              invalid_arg "Prover.prepare: representation of a different graph"
        | None -> Lcp_interval.Pathwidth.exact_interval_representation g
      in
      let with_congestion (p, embedding) =
        (p, embedding, Embedding.congestion g embedding)
      in
      let partition, embedding, congestion =
        match strategy with
        | `Prop46 -> with_congestion (prop46_lanes rep)
        | `Greedy -> with_congestion (greedy_lanes g rep)
        | `Hybrid ->
            let ((p, _, congestion) as greedy) =
              with_congestion (greedy_lanes g rep)
            in
            if
              within_bounds ?max_lanes rep
                ~lanes:(Lane_partition.lane_count p) ~congestion
            then greedy
            else with_congestion (prop46_lanes rep)
      in
      let lanes = Lane_partition.lane_count partition in
      if lanes > Option.value max_lanes ~default:max_int then
        Error (Printf.sprintf "lane partition has %d lanes, more than allowed" lanes)
      else
      let host = Completion.completion partition in
      let trace, to_host = Prop52.trace_of_partition partition in
      let hierarchy = Builder.of_trace_on ~host ~to_host trace in
      let vid v = Config.id cfg v in
      let is_real u v = Graph.mem_edge g u v in
      let fresh =
        let c = ref 0 in
        fun () ->
          incr c;
          !c
      in
      let stacks : (Graph.edge, A.state frame list) Hashtbl.t =
        Hashtbl.create (Graph.m host)
      in
      let push e frame =
        let e = Graph.canonical_edge (fst e) (snd e) in
        Hashtbl.replace stacks e
          (frame :: Option.value ~default:[] (Hashtbl.find_opt stacks e))
      in
      let root = annotate ~vid ~is_real ~fresh ~push hierarchy in
      let root_accepts = C.accepts root.nr_info.state in
      let root_member_vertex =
        match hierarchy with
        | Hierarchy.T_node { tree; _ } ->
            List.hd (Hierarchy.klane_of tree.Hierarchy.piece).Klane.vertices
        | _ -> 0
      in
      let ptr_labels =
        Spanning_tree.labels_for cfg ~root:root_member_vertex
          ~target:(vid root_member_vertex)
      in
      let transported : (Graph.edge, A.state vrecord list) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (fun ((a, b), path) ->
          let vframes =
            Option.value ~default:[]
              (Hashtbl.find_opt stacks (Graph.canonical_edge a b))
          in
          let len = List.length path - 1 in
          let arr = Array.of_list path in
          let arr =
            if arr.(0) = a then arr else Array.of_list (List.rev path)
          in
          for idx = 0 to len - 1 do
            let e = Graph.canonical_edge arr.(idx) arr.(idx + 1) in
            let record =
              {
                vu = vid a;
                vv = vid b;
                rank_fwd = idx + 1;
                rank_bwd = len - idx;
                vframes;
              }
            in
            Hashtbl.replace transported e
              (record
              :: Option.value ~default:[] (Hashtbl.find_opt transported e))
          done)
        embedding;
      let labels =
        Graph.fold_edges
          (fun e m ->
            let frames =
              Option.value ~default:[] (Hashtbl.find_opt stacks e)
            in
            let global_ptr =
              match Scheme.Edge_map.find ptr_labels e with
              | Some l -> l
              | None -> assert false
            in
            Scheme.Edge_map.add m e
              {
                frames;
                global_ptr;
                accept_state = root_accepts;
                transported =
                  Option.value ~default:[] (Hashtbl.find_opt transported e);
              })
          g Scheme.Edge_map.empty
      in
      Ok
        {
          labels;
          completion = host;
          hierarchy;
          lane_count = lanes;
          congestion;
          holds = root_accepts;
        }
    end

  let prove ?strategy ?rep ?max_lanes cfg =
    match prepare ?strategy ?rep ?max_lanes cfg with
    | Error _ as e -> e
    | Ok art ->
        if art.holds then Ok art.labels else Error "property does not hold"
end
