(* The verifier-memo differential suite (`dune build @packed`).

   [Memo.enabled] switches the two memos inside each [Verifier.Make]
   instance: the group-check memo (a hierarchy node whose pure
   sub-checks passed before is not checked again) and the view memo (a
   vertex view accepted before is answered with that verdict). Neither
   may change an outcome, so both families run the verifier with the
   memo off, on in a fresh instance and on in a warm one, and compare
   the outcomes reasons included:

   1. Group memo. Every registered property over random configurations,
      honest labelings and faulty ones (bundle bit flips through the
      sharing decoder, five [Fault] models); a corrupted frame that
      several vertices share; single-node-id forgeries, whose buckets
      stay bounded.

   2. View memo. Repeated labelings on one warm instance: a rejected
      view is never remembered, an accepted honest labeling comes back
      wholly from the memo, the key holds the lane bound and the degree,
      and the table stays under [Memo.max_entries].

   3. Instance cost. Applying [Theorem1.Make] builds the verifier's two
      memo tables and no other table, so it allocates under 1 KiB. *)

module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module PW = Lcp_interval.Pathwidth
module PLS = Lcp_pls
module S = PLS.Scheme
module Memo = Lcp_cert.Memo
module Registry = Lcp_service.Registry
module Bundle = Lcp_service.Bundle
module A = Lcp_algebra

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 500) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let arb_seed =
  QCheck.make ~print:string_of_int (fun st -> Random.State.int st 1_000_000)

let rep c =
  let g = PLS.Config.graph c in
  if G.n g <= 20 then Some (PW.exact_interval_representation g)
  else Some (PW.heuristic_interval_representation g)

(* ---------------------------------------------------------------- *)
(* the verifier's group-check memo: the uncached verifier's outcomes   *)

module Cert = Lcp_cert.Certificate
module Fault = PLS.Fault

(* the whole outcome, reasons included *)
let show_outcome = function
  | S.Accepted -> "accepted"
  | S.Rejected rs ->
      String.concat "; " (List.map (fun (v, r) -> Printf.sprintf "%d: %s" v r) rs)

let with_memo on f =
  Memo.enabled := on;
  Fun.protect ~finally:(fun () -> Memo.enabled := true) f

module Group_diff (P : Registry.PROPERTY) = struct
  (* one instance for the whole run: warm with every labeling the
     earlier cases verified, including their faulty ones *)
  module Warm = Lcp_cert.Theorem1.Make (P.A)

  let k = 2
  let warm = Warm.edge_scheme ~rep:Lcp_service.Engine.default_rep ~k ()

  let codec =
    {
      Fault.c_encode = warm.S.es_encode;
      c_decode = Cert.decode ~decode_state:P.decode_state;
    }

  (* a fresh instance per run, as every engine job gets one *)
  let fresh cfg labels =
    let module T = Lcp_cert.Theorem1.Make (P.A) in
    S.run_edge cfg (T.edge_scheme ~k ()) labels

  let graph rng =
    let n = 4 + Random.State.int rng 29 in
    if P.A.name = "perfect_matching" && Random.State.bool rng then
      Gen.ladder (n / 2)
    else fst (Gen.random_pathwidth rng ~n ~k:(1 + Random.State.int rng 2) ())

  (* memo off, then on in a fresh instance, then on in the warm one:
     three identical outcomes *)
  let agree cfg labels =
    let off = with_memo false (fun () -> fresh cfg labels) in
    let cold = fresh cfg labels in
    let warm = S.run_edge cfg warm labels in
    if off = cold && off = warm then true
    else
      QCheck.Test.fail_reportf "memo off: %s\ncold: %s\nwarm: %s"
        (show_outcome off) (show_outcome cold) (show_outcome warm)

  (* a random configuration's honest labels (whether or not the
     property holds: an honest structure over a false property must
     reject alike) and faulty variants of them: 8 bundle bit flips
     through the sharing decoder, then five [Fault] models *)
  let labelings seed =
    let rng = Random.State.make [| seed; 23 |] in
    let cfg = PLS.Config.random_ids rng (graph rng) in
    match
      Warm.P.prepare ?rep:(Lcp_service.Engine.default_rep cfg)
        ~max_lanes:(Warm.max_lanes_for ~k) cfg
    with
    | Error _ -> None
    | Ok art ->
        let honest = art.Warm.P.labels in
        let g = PLS.Config.graph cfg in
        let decode_label = Cert.decode ~decode_state:P.decode_state in
        let bundle =
          Result.get_ok (Bundle.encode ~encode_label:warm.S.es_encode g honest)
        in
        (* one flipped bit of the whole bundle, decoded by the sharing
           decoder: the labels around the flip come back as values that
           share the honest ones' records *)
        let flipped _ =
          let bytes = Bytes.copy bundle.Bundle.bytes in
          let i = Random.State.int rng bundle.Bundle.bits in
          Bytes.set bytes (i / 8)
            (Char.chr (Char.code (Bytes.get bytes (i / 8)) lxor (1 lsl (i mod 8))));
          Result.to_option (Bundle.decode ~decode_label g { bundle with Bundle.bytes })
        in
        let flips = List.filter_map flipped (List.init 8 Fun.id) in
        let faults =
          List.filter_map
            (fun spec ->
              Option.map
                (fun w -> w.Fault.ew_labels)
                (Fault.inject_edge ~rng ~codec cfg warm honest spec))
            [ Fault.Bit_flip 1; Fault.Bit_flip 3; Fault.Label_swap;
              Fault.Stale_replay; Fault.Label_duplicate ]
        in
        Some (cfg, honest, flips @ faults)

  let case seed =
    match labelings seed with
    | None -> true
    | Some (cfg, honest, faulty) ->
        agree cfg honest && List.for_all (agree cfg) faulty
end

let group_diff_case name =
  let (module P : Registry.PROPERTY) = Option.get (Registry.find name) in
  let module D = Group_diff (P) in
  qcheck ~count:30
    (Printf.sprintf "%s: run_edge memo on (cold, warm) = memo off, faults too"
       name)
    arb_seed D.case

(* the leaf member frame (an E- or P-node) at the bottom of some real
   edge's stack: it rides on every edge of that member, so each vertex
   of the member checks it *)
let leaf_member_frame labels =
  List.find_map
    (fun (_, (l : _ Cert.label)) ->
      match List.rev l.Cert.frames with
      | (Cert.T_frame { member = _, (Cert.KE | Cert.KP); _ } as f) :: _ -> Some f
      | _ -> None)
    (S.Edge_map.bindings labels)

(* a wrong member class on a frame several vertices share: a check that
   failed at the first of them is not remembered, so each one rejects
   with the same reason *)
let corrupt_shared_frame () =
  let module C = A.Connectivity in
  let module T1 = Lcp_cert.Theorem1.Make (C) in
  Memo.enabled := true;
  let scheme = T1.edge_scheme ~rep ~k:2 () in
  let g = fst (Gen.random_pathwidth (Random.State.make [| 11 |]) ~n:24 ~k:2 ()) in
  let cfg = PLS.Config.random_ids (Random.State.make [| 5 |]) g in
  let honest = Option.get (scheme.S.es_prove cfg) in
  let f = Option.get (leaf_member_frame honest) in
  let forged, reason =
    match f with
    | Cert.T_frame ({ member = minfo, kind; _ } as tf) ->
        (* a one-vertex class no member of two or more vertices has *)
        let wrong = C.introduce C.empty (-7) in
        ( Cert.T_frame { tf with member = ({ minfo with Cert.state = wrong }, kind) },
          if kind = Cert.KE then "E-member: wrong class" else "P-member: wrong class" )
    | Cert.B_frame _ -> assert false
  in
  (* the one forged value in place of [f], wherever [f] rides *)
  let swap = List.map (fun x -> if x == f then forged else x) in
  let labels =
    S.Edge_map.map
      (fun (l : _ Cert.label) ->
        { l with Cert.frames = swap l.Cert.frames;
                 transported =
                   List.map (fun r -> { r with Cert.vframes = swap r.Cert.vframes })
                     l.Cert.transported })
      honest
  in
  (* the honest labeling first, so the instance is warm *)
  check "honest labeling accepted" true (S.run_edge cfg scheme honest = S.Accepted);
  let on = S.run_edge cfg scheme labels in
  let off = with_memo false (fun () -> S.run_edge cfg scheme labels) in
  Alcotest.(check string) "memo off agrees" (show_outcome off) (show_outcome on);
  match on with
  | S.Accepted -> Alcotest.fail "the forged class was accepted"
  | S.Rejected rs ->
      check "at least two vertices share the frame" true (List.length rs >= 2);
      List.iter (fun (_, r) -> Alcotest.(check string) "the class check fails" reason r) rs

(* rename every hierarchy node of a labeling to [id] *)
let rename_nodes id (l : 'a Cert.label) =
  let info (i : 'a Cert.info) = { i with Cert.node_id = id } in
  let frame = function
    | Cert.T_frame ({ member = m, mk; merged; children; _ } as tf) ->
        Cert.T_frame
          { tf with member = (info m, mk); merged = info merged;
                    children = List.map (fun (_, c) -> (id, info c)) children }
    | Cert.B_frame ({ bnode; left = li, lk; right = ri, rk; left_root_member;
                      right_root_member; _ } as bf) ->
        Cert.B_frame
          { bf with bnode = info bnode; left = (info li, lk); right = (info ri, rk);
                    left_root_member = Option.map (fun _ -> id) left_root_member;
                    right_root_member = Option.map (fun _ -> id) right_root_member }
  in
  { l with Cert.frames = List.map frame l.Cert.frames;
           transported =
             List.map (fun r -> { r with Cert.vframes = List.map frame r.Cert.vframes })
               l.Cert.transported }

(* a forger that gives every node one id fills one bucket: it never
   holds more than four frames, and verdicts stay the uncached ones *)
let single_node_id_forgery () =
  let module C = A.Connectivity in
  let module T1 = Lcp_cert.Theorem1.Make (C) in
  Memo.enabled := true;
  Memo.reset_counters ();
  let scheme = T1.edge_scheme ~rep ~k:2 () in
  let remembered = ref 0 in
  let verify cfg labels =
    let misses = !Memo.group_misses in
    let on = S.run_edge cfg scheme labels in
    let off = with_memo false (fun () -> S.run_edge cfg scheme labels) in
    Alcotest.(check string) "memo off agrees" (show_outcome off) (show_outcome on);
    remembered := !remembered + (!Memo.group_misses - misses);
    check "at most four frames a bucket" true (T1.V.group_bucket_max () <= 4);
    on
  in
  (* single-edge certificates, all accepted: one remembered frame each *)
  for seed = 1 to 40 do
    let cfg = PLS.Config.random_ids (Random.State.make [| seed |]) (Gen.path 2) in
    let labels = Option.get (scheme.S.es_prove cfg) in
    check "a renamed single-edge certificate is accepted" true
      (verify cfg (S.Edge_map.map (rename_nodes 7) labels) = S.Accepted)
  done;
  check "the forgery missed in one bucket more than four times" true (!remembered > 4);
  check_int "one node id remembered" 1 (T1.V.group_table_size ());
  (* a larger certificate renamed the same way: rejected alike *)
  let g = fst (Gen.random_pathwidth (Random.State.make [| 3 |]) ~n:24 ~k:2 ()) in
  let cfg = PLS.Config.random_ids (Random.State.make [| 3 |]) g in
  ignore (verify cfg (S.Edge_map.map (rename_nodes 7) (Option.get (scheme.S.es_prove cfg))))

let suite_group =
  List.map group_diff_case (Registry.names ())
  @ [
      test "a corrupted frame several vertices share rejects at each"
        corrupt_shared_frame;
      test "single-node-id forgery: buckets stay at four" single_node_id_forgery;
    ]

(* ---------------------------------------------------------------- *)
(* the verifier's view memo: the uncached verifier's outcomes too      *)

module View_diff (P : Registry.PROPERTY) = struct
  include Group_diff (P)

  (* the warm instance meets every labeling again: the honest one, then
     each faulty one twice with the honest one in between. A repeated
     faulty labeling must reject as before, so no rejected view may be
     remembered, and no faulty view may pass for an honest one. An
     accepted honest labeling comes back wholly from the memo. *)
  let case seed =
    match labelings seed with
    | None -> true
    | Some (cfg, honest, faulty) ->
        let n = G.n (PLS.Config.graph cfg) in
        let accepted = with_memo false (fun () -> fresh cfg honest) = S.Accepted in
        let honest_again () =
          let hits = !Memo.view_hits in
          agree cfg honest
          && ((not accepted) || !Memo.view_hits - hits = n
             || QCheck.Test.fail_reportf "honest repeat: %d of %d views from the memo"
                  (!Memo.view_hits - hits) n)
        in
        agree cfg honest
        && List.for_all (fun w -> agree cfg w && agree cfg w && honest_again ()) faulty
end

let view_diff_case name =
  let (module P : Registry.PROPERTY) = Option.get (Registry.find name) in
  let module D = View_diff (P) in
  qcheck ~count:30
    (Printf.sprintf "%s: repeated labelings, view memo on = memo off" name)
    arb_seed D.case

(* many configurations over the same ids on one instance: an id keeps
   at most four views, and the table stays under the cap *)
let view_bounds () =
  let module C = A.Connectivity in
  let module T1 = Lcp_cert.Theorem1.Make (C) in
  Memo.enabled := true;
  let scheme = T1.edge_scheme ~rep ~k:2 () in
  for seed = 1 to 12 do
    let g = fst (Gen.random_pathwidth (Random.State.make [| seed |]) ~n:12 ~k:2 ()) in
    let cfg = PLS.Config.make g in
    let labels = Option.get (scheme.S.es_prove cfg) in
    check "accepted" true (S.run_edge cfg scheme labels = S.Accepted);
    check "at most four views an id" true (T1.V.view_bucket_max () <= 4)
  done;
  check_int "twelve configurations fill every bucket" 4 (T1.V.view_bucket_max ());
  (* one-vertex views of more distinct ids than the cap *)
  let max_lanes = T1.max_lanes_for ~k:2 in
  for id = 0 to Memo.max_entries + 99 do
    ignore (T1.V.verify ~max_lanes { S.ev_id = id; ev_degree = 0; ev_labels = [] });
    if id land 4095 = 0 then
      check "table within the cap" true (T1.V.view_table_size () <= Memo.max_entries)
  done;
  check "table dropped at the cap" true (T1.V.view_table_size () <= 100)

(* the key holds the lane bound and the degree: a k = 2 labeling the
   k = 1 scheme of the same instance rejects is still rejected after
   the k = 2 scheme accepted it, and the same labels under another
   degree are not answered from the memo *)
let view_key_lanes_degree () =
  let module C = A.Connectivity in
  let module T1 = Lcp_cert.Theorem1.Make (C) in
  Memo.enabled := true;
  let k2 = T1.edge_scheme ~rep ~k:2 () and k1 = T1.edge_scheme ~rep ~k:1 () in
  let found =
    List.find_map
      (fun seed ->
        let g = fst (Gen.random_pathwidth (Random.State.make [| seed |]) ~n:32 ~k:2 ()) in
        let cfg = PLS.Config.random_ids (Random.State.make [| seed |]) g in
        match k2.S.es_prove cfg with
        | Some labels
          when with_memo false (fun () -> S.run_edge cfg k1 labels) <> S.Accepted ->
            Some (cfg, labels)
        | _ -> None)
      (List.init 40 succ)
  in
  let cfg, labels = Option.get found in
  check "k = 2 accepts" true (S.run_edge cfg k2 labels = S.Accepted);
  let off = with_memo false (fun () -> S.run_edge cfg k1 labels) in
  Alcotest.(check string) "k = 1 after k = 2: memo off agrees" (show_outcome off)
    (show_outcome (S.run_edge cfg k1 labels));
  let g = PLS.Config.graph cfg in
  let v = 0 in
  let view =
    { S.ev_id = PLS.Config.id cfg v; ev_degree = G.degree g v;
      ev_labels = List.map (fun w -> Option.get (S.Edge_map.find labels (v, w))) (G.neighbors g v) }
  in
  let max_lanes = T1.max_lanes_for ~k:2 in
  let hits = !Memo.view_hits in
  check "the accepted view is answered" true (k2.S.es_verify view = Ok ());
  check_int "from the memo" (hits + 1) !Memo.view_hits;
  ignore (T1.V.verify ~max_lanes { view with S.ev_degree = view.S.ev_degree + 1 });
  check_int "another degree is not" (hits + 1) !Memo.view_hits

let suite_view =
  List.map view_diff_case (Registry.names ())
  @ [
      test "buckets stay at four, the table under the cap" view_bounds;
      test "the key holds the lane bound and the degree" view_key_lanes_degree;
    ]

(* every engine job applies [Theorem1.Make] once, so an application
   must stay cheap: it builds the verifier's two memo tables and no
   other table *)
let instance_cost () =
  let apply () =
    let module T = Lcp_cert.Theorem1.Make (Lcp_algebra.Connectivity) in
    ignore (Sys.opaque_identity (T.max_lanes_for ~k:2))
  in
  apply ();
  let b0 = Gc.allocated_bytes () in
  apply ();
  let bytes = Gc.allocated_bytes () -. b0 in
  if bytes >= 1024.0 then
    Alcotest.failf "Theorem1.Make allocated %.0f bytes (budget 1 KiB)" bytes

let suite_instance =
  [ test "a Theorem1 instance allocates under 1 KiB" instance_cost ]

let () =
  Alcotest.run "lcp-packed"
    [
      ("group-memo", suite_group);
      ("view-memo", suite_view);
      ("instance-alloc", suite_instance);
    ]
