(* Differential suite for the incremental re-certification subsystem
   (`dune build @incr`): unit and qcheck coverage of the edit-delta
   core (parse/print, normalize, apply, representation transplant,
   dirty windows), then the anchor the whole subsystem rests on —
   random edit streams over >= 3 graph families x >= 3 properties,
   >= 500 batches in total, where every incremental step must be
   judgement-equivalent to a forced from-scratch recompute of the same
   stream (byte-identical canonical JSONL, identical bundles where
   served), and every *served* bundle is independently re-verified by
   a whole-graph verifier pass built outside the delta machinery —
   zero unsound accepts, by construction of the test. *)

module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module PW = Lcp_interval.Pathwidth
module Rep = Lcp_interval.Representation
module Config = Lcp_pls.Config
module Scheme = Lcp_pls.Scheme
module Incr = Lcp_cert.Incremental
module Manifest = Lcp_service.Manifest
module Engine = Lcp_service.Engine
module Delta = Lcp_service.Delta
module Registry = Lcp_service.Registry
module Stats = Lcp_service.Stats
module Bundle = Lcp_service.Bundle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---------------------------------------------------------------- *)
(* delta core: textual form                                          *)

let arb_delta =
  let open QCheck in
  let gen st =
    let pair _ =
      (Random.State.int st 30, Random.State.int st 30)
    in
    {
      Incr.add = List.init (Random.State.int st 4) pair;
      del = List.init (Random.State.int st 4) pair;
    }
  in
  make ~print:Incr.print_delta gen

let parse_print_roundtrip =
  qcheck ~count:300 "parse_delta inverts print_delta" arb_delta (fun d ->
      Incr.parse_delta (Incr.print_delta d) = Ok d)

let parse_rejects_malformed () =
  let bad s =
    match Incr.parse_delta s with Ok _ -> false | Error _ -> true
  in
  check "unknown key" true (bad "frob=1-2");
  check "bare token" true (bad "add");
  check "pair without dash" true (bad "add=12");
  check "non-numeric endpoint" true (bad "add=1-x");
  check "negative endpoint" true (bad "add=3--1");
  check "trailing comma" true (bad "del=1-2,");
  check "empty string is the empty delta" true
    (Incr.parse_delta "" = Ok Incr.empty_delta);
  check "empty value is an empty part" true
    (Incr.parse_delta "add=" = Ok Incr.empty_delta);
  check "whitespace runs tolerated" true
    (Incr.parse_delta "  add=0-1   del=2-3 "
    = Ok { Incr.add = [ (0, 1) ]; del = [ (2, 3) ] })

(* ---------------------------------------------------------------- *)
(* delta core: normalize and apply                                   *)

let normalize_contracts () =
  let g = Gen.path 6 in
  let norm d = Incr.normalize g d in
  let bad d frag =
    match norm d with
    | Error e -> check ("rejects: " ^ frag) true (e <> "")
    | Ok _ -> Alcotest.failf "normalize accepted %s" (Incr.print_delta d)
  in
  bad { Incr.add = [ (2, 2) ]; del = [] } "self-loop add";
  bad { Incr.add = []; del = [ (3, 3) ] } "self-loop del";
  bad { Incr.add = [ (0, 9) ]; del = [] } "out-of-range add";
  bad { Incr.add = []; del = [ (-1, 2) ] } "out-of-range del";
  bad { Incr.add = [ (5, 0) ]; del = [ (0, 5) ] } "add/del conflict";
  (* no-op operations are dropped, orientation is canonicalized *)
  (match norm { Incr.add = [ (1, 0); (4, 0) ]; del = [ (0, 3); (5, 4) ] } with
  | Ok d ->
      check "present add dropped, orientation fixed" true
        (d.Incr.add = [ (0, 4) ]);
      check "absent del dropped, orientation fixed" true
        (d.Incr.del = [ (4, 5) ])
  | Error e -> Alcotest.fail e);
  match norm { Incr.add = []; del = [] } with
  | Ok d -> check "empty normalizes to empty" true (Incr.is_empty d)
  | Error e -> Alcotest.fail e

let arb_graph_and_delta =
  let open QCheck in
  let gen st =
    let n = 4 + Random.State.int st 16 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.int st 100 < 20 then edges := (u, v) :: !edges
      done
    done;
    let g = G.of_edges ~n !edges in
    let pair _ =
      let u = Random.State.int st n in
      let v = (u + 1 + Random.State.int st (n - 1)) mod n in
      (u, v)
    in
    let d =
      {
        Incr.add = List.init (Random.State.int st 4) pair;
        del = List.init (Random.State.int st 4) pair;
      }
    in
    (g, d)
  in
  make
    ~print:(fun (g, d) -> G.to_string g ^ " / " ^ Incr.print_delta d)
    gen

let apply_matches_reference =
  qcheck ~count:300 "apply = set reference on normalized deltas"
    arb_graph_and_delta (fun (g, d) ->
      match Incr.normalize g d with
      | Error _ -> QCheck.assume_fail () (* add/del conflict: rejected *)
      | Ok d ->
          let got = G.edges (Incr.apply g d) in
          let reference =
            List.sort_uniq compare
              (List.filter (fun e -> not (List.mem e d.Incr.del)) (G.edges g)
              @ d.Incr.add)
          in
          got = reference)

let normalize_idempotent =
  qcheck ~count:300 "normalize is idempotent" arb_graph_and_delta
    (fun (g, d) ->
      match Incr.normalize g d with
      | Error _ -> QCheck.assume_fail ()
      | Ok d1 -> Incr.normalize g d1 = Ok d1)

(* ---------------------------------------------------------------- *)
(* transplant and dirty windows                                      *)

let arb_caterpillar_del =
  let open QCheck in
  let gen st =
    let spine = 3 + Random.State.int st 6 in
    let g = Lcp_graph.Gen.caterpillar ~spine ~legs:2 in
    let edges = Array.of_list (G.edges g) in
    let e = edges.(Random.State.int st (Array.length edges)) in
    (g, e)
  in
  make ~print:(fun (g, (u, v)) -> Printf.sprintf "%s del %d-%d" (G.to_string g) u v) gen

let transplant_survives_removal =
  qcheck ~count:200 "removals never invalidate a representation"
    arb_caterpillar_del (fun (g, (u, v)) ->
      let rep = PW.heuristic_interval_representation g in
      let g' = G.remove_edge g u v in
      match Incr.transplant rep g' with
      | Error e -> QCheck.Test.fail_reportf "transplant failed: %s" e
      | Ok rep' ->
          (* same intervals: same width, so the verifier's lane bound
             is preserved across the edit *)
          Rep.width rep' = Rep.width rep
          && Rep.validate g' (Rep.intervals rep') = Ok ())

let transplant_rejects_resize () =
  let g = Gen.path 8 in
  let rep = PW.heuristic_interval_representation g in
  match Incr.transplant rep (Gen.path 9) with
  | Error e -> check "names the vertex count" true (e <> "")
  | Ok _ -> Alcotest.fail "transplant across a vertex-count change"

let transplant_covered_addition () =
  (* on a path's canonical representation consecutive vertices share a
     point, so re-adding a just-removed edge stays inside the windows *)
  let g = Gen.path 10 in
  let rep = PW.heuristic_interval_representation g in
  let g' = G.remove_edge g 4 5 in
  match Incr.transplant rep g' with
  | Error e -> Alcotest.fail e
  | Ok rep' -> (
      match Incr.transplant rep' (G.add_edges g' [ (4, 5) ]) with
      | Error e -> Alcotest.failf "covered addition refused: %s" e
      | Ok rep'' -> check_int "width preserved" (Rep.width rep) (Rep.width rep''))

let dirty_window_sanity () =
  let g = Gen.path 12 in
  let rep = PW.heuristic_interval_representation g in
  check_int "empty delta dirties nothing" 0 (Incr.dirty_count rep Incr.empty_delta);
  let d = { Incr.add = []; del = [ (5, 6) ] } in
  let marks = Incr.dirty_marks rep d in
  check "endpoints are in their own closure" true (marks.(5) && marks.(6));
  check "closure is not everything on a path" true
    (Incr.dirty_count rep d < G.n g)

(* ---------------------------------------------------------------- *)
(* the differential gate                                             *)

let families = [ "path"; "caterpillar"; "random" ]
let properties = [ "connected"; "acyclic"; "bipartite" ]

(* stream-wide coverage counters, asserted as floors at the end so the
   gate cannot pass vacuously (e.g. with every step declined or every
   step rebuilt from scratch) *)
let total_batches = ref 0
let served_batches = ref 0
let declined_batches = ref 0
let patched_batches = ref 0
let cached_batches = ref 0
let input_error_batches = ref 0

let served r =
  match r.Stats.r_status with
  | Stats.Served_fresh | Stats.Served_cached | Stats.Served_degraded -> true
  | _ -> false

(* An independent whole-graph verifier for served bundles, built from
   the registry exactly as a fresh engine run would — sharing nothing
   with the session's localized verification path. *)
let make_checker ~property ~k ~seed g_base =
  match Registry.find property with
  | None -> Alcotest.failf "unknown property %s" property
  | Some p ->
      let (module Pr : Registry.PROPERTY) = p in
      let module T1 = Lcp_cert.Theorem1.Make (Pr.A) in
      let scheme = T1.edge_scheme ~k () in
      let decode_label =
        Lcp_cert.Certificate.decode ~decode_state:Pr.decode_state
      in
      let cfg0 = Config.random_ids (Random.State.make [| seed |]) g_base in
      let ids = Array.init (G.n g_base) (Config.id cfg0) in
      fun g bundle ->
        let cfg = Config.make ~ids g in
        match Bundle.decode ~decode_label g bundle with
        | Error e -> Alcotest.failf "served bundle does not decode: %s" e
        | Ok labels -> (
            match Scheme.run_edge cfg scheme labels with
            | Scheme.Accepted -> ()
            | Scheme.Rejected rs ->
                Alcotest.failf "UNSOUND ACCEPT: %d local rejections on %s"
                  (List.length rs) (G.to_string g))

(* Random edit batches biased toward oscillation: delete, then restore
   what was deleted (most-recent first, and restores outweigh
   deletions) so streams keep returning to connected, previously
   certified territory — the prover declines any disconnected graph,
   and splices, memo hits, and cache hits all live on the connected
   side. Occasional multi-op bursts and pure random adds keep the
   exploration honest; batches that normalize to errors (an add/del
   conflict) stay in — both sessions must agree on those too. *)
let gen_ops rng removed g =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let canon (u, v) = if u < v then (u, v) else (v, u) in
  let random_add () =
    let u = Random.State.int rng (G.n g)
    and v = Random.State.int rng (G.n g) in
    if u = v then "" else Incr.print_delta { Incr.add = [ (u, v) ]; del = [] }
  in
  match Random.State.int rng 20 with
  | 0 -> "" (* explicit no-op batch *)
  | 1 | 2 ->
      (* a burst of several operations at once *)
      let nops = 2 + Random.State.int rng 2 in
      let adds = ref [] and dels = ref [] in
      for _ = 1 to nops do
        let edges = G.edges g in
        match Random.State.int rng 3 with
        | 0 when edges <> [] ->
            let e = pick edges in
            removed := e :: !removed;
            dels := e :: !dels
        | 1 when !removed <> [] -> adds := pick !removed :: !adds
        | _ ->
            let u = Random.State.int rng (G.n g)
            and v = Random.State.int rng (G.n g) in
            if u <> v then adds := (u, v) :: !adds
      done;
      (* keep same-batch add/del collisions rare but not impossible *)
      let adds =
        if Random.State.int rng 8 = 0 then !adds
        else
          List.filter
            (fun e -> not (List.mem (canon e) (List.map canon !dels)))
            !adds
      in
      Incr.print_delta { Incr.add = adds; del = !dels }
  | r -> (
      let op =
        if !removed = [] then if r < 14 && G.edges g <> [] then `Del else `Add
        else if r < 9 && G.edges g <> [] then `Del
        else if r < 17 then `Restore
        else `Add
      in
      match op with
      | `Del ->
          let e = pick (G.edges g) in
          removed := e :: !removed;
          Incr.print_delta { Incr.add = []; del = [ e ] }
      | `Restore ->
          let e = List.hd !removed in
          removed := List.tl !removed;
          Incr.print_delta { Incr.add = [ e ]; del = [] }
      | `Add -> random_add ())

let open_session ?(engine = Engine.create ()) line =
  let job =
    match Manifest.parse line with
    | Ok [ j ] -> j
    | Ok _ -> Alcotest.failf "expected one job in %S" line
    | Error e -> Alcotest.fail e
  in
  match Delta.create engine job with
  | Ok (s, r, i) -> (s, r, i)
  | Error (r, _) ->
      Alcotest.failf "open failed: %s" (Stats.to_canonical_json r)

let run_stream ~family ~property ~n ~k ~seed ~steps =
  let line =
    Printf.sprintf
      "id=%s-%s-s%d gen=%s n=%d gseed=%d property=%s k=%d seed=%d" family
      property seed family n seed property k seed
  in
  let s_inc, r0i, i0 = open_session line in
  let s_full, r0f, _ = open_session line in
  check_str "open canonical identical"
    (Stats.to_canonical_json r0f)
    (Stats.to_canonical_json r0i);
  check_str "open mode" "open" i0.Delta.pi_mode;
  let verify_served =
    make_checker ~property ~k ~seed (Delta.graph s_inc)
  in
  if served r0i then
    (match Delta.bundle s_inc with
    | Some b -> verify_served (Delta.graph s_inc) b
    | None -> Alcotest.fail "served open without a bundle");
  let rng = Random.State.make [| seed; Hashtbl.hash (family, property) |] in
  let removed = ref [] in
  for _ = 1 to steps do
    let ops = gen_ops rng removed (Delta.graph s_inc) in
    let r_i, info = Delta.step s_inc ~full:false ops in
    let r_f, _ = Delta.step s_full ~full:true ops in
    incr total_batches;
    check_str
      (Printf.sprintf "canonical identical after %S" ops)
      (Stats.to_canonical_json r_f)
      (Stats.to_canonical_json r_i);
    check "sessions evolve the same graph" true
      (G.equal (Delta.graph s_inc) (Delta.graph s_full));
    (match info.Delta.pi_mode with
    | "patched" -> incr patched_batches
    | "cached" -> incr cached_batches
    | _ -> ());
    if served r_i then begin
      incr served_batches;
      match (Delta.bundle s_inc, Delta.bundle s_full) with
      | Some b, Some bf ->
          verify_served (Delta.graph s_inc) b;
          check "bundle identical to from-scratch recompute" true
            (Bundle.equal b bf)
      | _ -> Alcotest.fail "served step without a bundle"
    end
    else
      match r_i.Stats.r_status with
      | Stats.Declined -> incr declined_batches
      | Stats.Input_error _ -> incr input_error_batches
      | _ -> ()
  done

let stream_tests =
  List.concat_map
    (fun family ->
      List.map
        (fun property ->
          test
            (Printf.sprintf "differential stream: %s / %s" family property)
            (fun () ->
              List.iter
                (fun (seed, n) ->
                  run_stream ~family ~property ~n ~k:2 ~seed ~steps:30)
                [ (1, 24); (2, 14) ]))
        properties)
    families

(* A session step is an engine job: the open step equals
   [Engine.run_job] on a fresh engine for the same job, and a step whose
   transplant fails (so the session, like the engine, builds a fresh
   representation) equals [Engine.run_job] on the edited graph written
   out as a [file=] job with the same seed — same n, so the same ids. *)
module Store = Lcp_service.Cert_store
module Graph_io = Lcp_service.Graph_io
module Traversal = Lcp_graph.Traversal

let engine_run (job : Manifest.job) =
  let e = Engine.create () in
  let r = Engine.run_job e job in
  let g =
    match Engine.graph_of_source ~base_dir:"." ~k:job.k job.source with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let bundle =
    Option.map
      (fun en -> en.Store.e_bundle)
      (Store.find (Engine.store e) (Store.key ~property:job.property ~k:job.k g))
  in
  (r, bundle)

let canonical_sans_id r = Stats.to_canonical_json { r with Stats.r_id = "" }

let same_bundle what a b =
  check what true
    (match (a, b) with
    | Some a, Some b -> Bundle.equal a b
    | None, None -> true
    | _ -> false)

let session_step_is_engine_job () =
  let edited_served = ref 0 in
  List.iter
    (fun property ->
      let line =
        Printf.sprintf "id=eq-%s gen=random n=24 gseed=5 property=%s k=2 seed=9"
          property property
      in
      let s, r_open, _ = open_session line in
      let job = Delta.base_job s in
      let r_eng, b_eng = engine_run job in
      check_str (property ^ ": open report = engine job") (canonical_sans_id r_eng)
        (canonical_sans_id r_open);
      same_bundle (property ^ ": open bundle = engine bundle") (Delta.bundle s) b_eng;
      (* prune to a BFS spanning tree (removals always transplant), so
         all three properties hold *)
      let g0 = Delta.graph s in
      let tree = Traversal.spanning_tree g0 ~root:0 in
      let extra = List.filter (fun e -> not (List.mem e tree)) (G.edges g0) in
      ignore (Delta.step s ~full:false (Incr.print_delta { Incr.add = []; del = extra }));
      (* swap a tree edge for a chord outside the windows of the
         session's representation: still a spanning tree, but the
         transplant must fail *)
      let t = Delta.graph s in
      let rep0 = Delta.fresh_rep g0 in
      let escapes (u, v) =
        (not (G.mem_edge t u v))
        && Result.is_error (Incr.transplant rep0 (G.add_edges t [ (u, v) ]))
      in
      let chord =
        let n = G.n t in
        List.find escapes
          (List.concat_map (fun u -> List.init (n - u - 1) (fun i -> (u, u + i + 1)))
             (List.init n Fun.id))
      in
      let u, v = chord in
      let p1 =
        match Traversal.shortest_path t u v with
        | Some (_ :: p1 :: _) -> p1
        | _ -> Alcotest.fail "tree path missing"
      in
      let r_step, info =
        Delta.step s ~full:false
          (Incr.print_delta { Incr.add = [ chord ]; del = [ (u, p1) ] })
      in
      check_str (property ^ ": the transplant failed") "rebuilt" info.Delta.pi_mode;
      let file =
        Filename.temp_file (Printf.sprintf "lcp_incr_eq_%s_" property) ".dimacs"
      in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          (match Graph_io.save_file file (Delta.graph s) with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          let r_file, b_file =
            engine_run
              { job with Manifest.job_id = r_step.Stats.r_id; source = Manifest.File file }
          in
          if served r_step then incr edited_served;
          check_str (property ^ ": edited report = engine job")
            (canonical_sans_id r_file) (canonical_sans_id r_step);
          check_int (property ^ ": edited label bits = engine job")
            r_file.Stats.r_label_bits r_step.Stats.r_label_bits;
          same_bundle (property ^ ": edited bundle = engine bundle") (Delta.bundle s)
            b_file))
    properties;
  check_int "every edited tree was served" (List.length properties) !edited_served

(* a malformed edit is an input error both sessions must render
   identically, without advancing either graph *)
let malformed_edit_agreement () =
  let line = "id=mf gen=path n=12 gseed=1 property=connected k=2 seed=3" in
  let s_inc, _, _ = open_session line in
  let s_full, _, _ = open_session line in
  let g_before = Delta.graph s_inc in
  List.iter
    (fun ops ->
      let r_i, _ = Delta.step s_inc ~full:false ops in
      let r_f, _ = Delta.step s_full ~full:true ops in
      check "malformed edit is an input error" true
        (match r_i.Stats.r_status with Stats.Input_error _ -> true | _ -> false);
      check_str "identical error rendering"
        (Stats.to_canonical_json r_f)
        (Stats.to_canonical_json r_i))
    [ "add=0-0"; "add=0-99"; "frob=1-2"; "add=2-3 del=3-2" ];
  check "graph untouched by bad edits" true (Delta.graph s_inc == g_before);
  (* the session still works afterwards *)
  let r, _ = Delta.step s_inc ~full:false "del=4-5" in
  check "session survives" true
    (match r.Stats.r_status with Stats.Input_error _ -> false | _ -> true)

(* A toggling stream revisits two graphs, so every step after the
   first edit is a memory-tier hit on a bundle this process accepted
   under the session's ids when it served it before: each such step is
   served from the store's accepted marker, with no decode and no
   verifier view looked up at all. With the memo off every hit decodes
   and verifies in full, and the canonical JSONL is the same. *)
module Memo = Lcp_cert.Memo

let toggle_session () =
  let line = "id=tg gen=random n=24 gseed=5 property=connected k=2 seed=9" in
  let run () =
    let engine = Engine.create () in
    let s, r0, _ = open_session ~engine line in
    let g = Delta.graph s in
    let n = G.n g in
    let chord =
      List.find
        (fun (u, v) -> u <> v && not (G.mem_edge g u v))
        (List.init n (fun v -> (0, v)))
    in
    let cached = ref 0 in
    let lines =
      List.init 12 (fun i ->
          let ops =
            Incr.print_delta
              (if i mod 2 = 0 then { Incr.add = [ chord ]; del = [] }
               else { Incr.add = []; del = [ chord ] })
          in
          let views = !Memo.view_hits + !Memo.view_misses in
          let known = engine.Engine.hit_known in
          let r, info = Delta.step s ~full:false ops in
          if info.Delta.pi_mode = "cached" then begin
            incr cached;
            if !Memo.enabled then begin
              check_int "a cached step: no view looked up" views
                (!Memo.view_hits + !Memo.view_misses);
              check_int "a cached step: one known hit" (known + 1)
                engine.Engine.hit_known
            end
            else
              check_int "memo off: no known hit" known engine.Engine.hit_known
          end;
          Stats.to_canonical_json r)
    in
    check_int "every step after the first edit is cached" 11 !cached;
    Stats.to_canonical_json r0 :: lines
  in
  let on = run () in
  Memo.enabled := false;
  let off = Fun.protect ~finally:(fun () -> Memo.enabled := true) run in
  check "served" true (List.for_all (fun l -> l <> "") on);
  Alcotest.(check (list string)) "canonical JSONL: memo on = memo off" off on

let coverage_floors () =
  Printf.printf
    "incr gate: %d batches (%d served, %d declined, %d input_error, %d \
     patched, %d cached)\n%!"
    !total_batches !served_batches !declined_batches !input_error_batches
    !patched_batches !cached_batches;
  check "gate saw >= 500 batches" true (!total_batches >= 500);
  check "streams actually served" true (!served_batches >= 50);
  check "streams actually declined" true (!declined_batches >= 50);
  check "transplant path exercised (patched >= 20)" true (!patched_batches >= 20)

let suite =
  ( "incremental",
    [
      parse_print_roundtrip;
      test "parse rejects malformed edit lines" parse_rejects_malformed;
      test "normalize contracts" normalize_contracts;
      apply_matches_reference;
      normalize_idempotent;
      transplant_survives_removal;
      test "transplant rejects a vertex-count change" transplant_rejects_resize;
      test "covered addition keeps the representation" transplant_covered_addition;
      test "dirty-window sanity" dirty_window_sanity;
    ]
    @ stream_tests
    @ [
        test "malformed edits: identical errors, graph untouched"
          malformed_edit_agreement;
        test "a session step equals an engine job" session_step_is_engine_job;
        test "a toggling session is answered from the accepted marker"
          toggle_session;
        test "coverage floors (anti-vacuity)" coverage_floors;
      ] )

let () = Alcotest.run "lcp-incr" [ suite ]
