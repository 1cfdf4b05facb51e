(* The hot-path equivalence suite behind the CSR graph backend and the
   verifier memos (`dune build @graphcore`).

   Two families of properties:

   1. Backend equivalence. [Lcp_graph.Graph] (CSR) must agree with
      [Lcp_graph.Graph_ref] (the pre-CSR list implementation, kept
      verbatim as an oracle) on every observable operation — n/m,
      neighbors, degree, mem_edge over all vertex pairs, edges order,
      induced subgraphs, incremental add_edges and remove_edge — over
      random graphs including duplicates-in-input, near-empty and
      near-complete cases. Plus a wall-clock regression bound on the
      10k-edge add/remove path that the old quadratic rebuild cannot
      meet.

   2. Memo soundness. Proving and verifying with [Memo.enabled] off and
      on must produce identical certificate bundles (byte-level, via the
      canonical bundle encoding) and identical verifier outcomes across
      every property in the service registry. The switch reaches only
      the verifier's group-check and view memos, whose on/off
      differentials over honest and faulty labelings live in
      test_packed.ml (`dune build @packed`). *)

module G = Lcp_graph.Graph
module Gref = Lcp_graph.Graph_ref
module Gen = Lcp_graph.Gen
module PW = Lcp_interval.Pathwidth
module PLS = Lcp_pls
module S = PLS.Scheme
module Memo = Lcp_cert.Memo
module Registry = Lcp_service.Registry
module Bundle = Lcp_service.Bundle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* random (n, edge list) with duplicates and both orientations allowed —
   exercising of_edges' canonicalization, not just clean inputs *)
let arb_raw_graph =
  let open QCheck in
  let gen st =
    let n = 1 + Random.State.int st 40 in
    let m = Random.State.int st (3 * n) in
    let edges =
      List.init m (fun _ ->
          let u = Random.State.int st n in
          let v = Random.State.int st n in
          (u, v))
      |> List.filter (fun (u, v) -> u <> v)
    in
    (n, edges)
  in
  let print (n, es) =
    Printf.sprintf "n=%d edges=[%s]" n
      (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) es))
  in
  make ~print gen

let agree (n, edges) =
  let g = G.of_edges ~n edges and r = Gref.of_edges ~n edges in
  G.n g = Gref.n r && G.m g = Gref.m r
  && G.edges g = Gref.edges r
  && List.for_all
       (fun v -> G.neighbors g v = Gref.neighbors r v
                 && G.degree g v = Gref.degree r v)
       (List.init n (fun v -> v))
  (* all pairs incl. out-of-range probes *)
  && List.for_all
       (fun u ->
         List.for_all
           (fun v -> G.mem_edge g u v = Gref.mem_edge r u v)
           (List.init (n + 2) (fun v -> v - 1)))
       (List.init (n + 2) (fun u -> u - 1))

let suite_equiv =
  [
    qcheck ~count:300 "CSR = ref on n/m/neighbors/degree/mem_edge/edges"
      arb_raw_graph agree;
    qcheck ~count:200 "CSR = ref on induced subgraphs" arb_raw_graph
      (fun (n, edges) ->
        let g = G.of_edges ~n edges and r = Gref.of_edges ~n edges in
        let vs = List.filteri (fun i _ -> i mod 2 = 0) (List.init n (fun v -> v)) in
        let gi, gb = G.induced g vs and ri, rb = Gref.induced r vs in
        gb = rb && G.edges gi = Gref.edges ri);
    qcheck ~count:200 "CSR = ref on add_edges" arb_raw_graph
      (fun (n, edges) ->
        let split = List.length edges / 2 in
        let base = List.filteri (fun i _ -> i < split) edges in
        let extra = List.filteri (fun i _ -> i >= split) edges in
        let g = G.add_edges (G.of_edges ~n base) extra in
        let r = Gref.add_edges (Gref.of_edges ~n base) extra in
        G.edges g = Gref.edges r
        && G.m g = Gref.m r
        && G.equal g (G.of_edges ~n edges));
    qcheck ~count:200 "CSR = ref on remove_edge (edges and non-edges)"
      arb_raw_graph
      (fun (n, edges) ->
        let g = G.of_edges ~n edges and r = Gref.of_edges ~n edges in
        if n < 2 then true
        else begin
          (* one present edge (if any) and one arbitrary pair *)
          let pairs =
            (match edges with e :: _ -> [ e ] | [] -> [])
            @ [ (0, n - 1) ]
          in
          List.for_all
            (fun (u, v) ->
              G.edges (G.remove_edge g u v) = Gref.edges (Gref.remove_edge r u v))
            pairs
        end);
    test "add_edges returns the same graph when nothing is new" (fun () ->
        let g = G.of_edges ~n:5 [ (0, 1); (1, 2) ] in
        check "physically equal" true (G.add_edges g [ (1, 2); (2, 1) ] == g));
    test "remove_edge of a non-edge returns the same graph" (fun () ->
        let g = G.of_edges ~n:5 [ (0, 1); (1, 2) ] in
        check "physically equal" true (G.remove_edge g 0 4 == g));
    (* the documented edit contracts, property-style: no-op edits share
       physically (==), duplicates collapse, self-loops raise — each
       checked against the reference implementation's edge sets *)
    qcheck ~count:200 "add_edges of present edges is physically the same graph"
      arb_raw_graph
      (fun (n, edges) ->
        let g = G.of_edges ~n edges in
        (* any subset of existing edges, both orientations, duplicated *)
        let present =
          List.filteri (fun i _ -> i mod 2 = 0) (G.edges g)
          |> List.concat_map (fun (u, v) -> [ (u, v); (v, u); (u, v) ])
        in
        G.add_edges g present == g && G.add_edges g [] == g);
    qcheck ~count:200 "remove_edge of a non-edge is physically the same graph"
      arb_raw_graph
      (fun (n, edges) ->
        let g = G.of_edges ~n edges in
        let non_edges =
          List.concat_map
            (fun u ->
              List.filter_map
                (fun v ->
                  if u <> v && not (G.mem_edge g u v) then Some (u, v) else None)
                (List.init (min n 8) (fun v -> v)))
            (List.init (min n 8) (fun u -> u))
        in
        List.for_all (fun (u, v) -> G.remove_edge g u v == g) non_edges);
    qcheck ~count:200 "add_edges collapses duplicates (CSR = ref = of_edges)"
      arb_raw_graph
      (fun (n, edges) ->
        let g0 = G.of_edges ~n [] and r0 = Gref.of_edges ~n [] in
        let doubled = List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) edges in
        let g = G.add_edges g0 doubled and r = Gref.add_edges r0 doubled in
        G.edges g = Gref.edges r
        && G.m g = Gref.m r
        && G.equal g (G.of_edges ~n edges));
    test "add_edges and remove_edge reject self-loops" (fun () ->
        let g = G.of_edges ~n:4 [ (0, 1) ] in
        let raises f =
          match f () with
          | exception Invalid_argument _ -> true
          | (_ : G.t) -> false
        in
        check "add self-loop raises" true (raises (fun () -> G.add_edges g [ (2, 2) ]));
        check "remove self-loop raises" true (raises (fun () -> G.remove_edge g 2 2));
        check "add out-of-range raises" true
          (raises (fun () -> G.add_edges g [ (0, 9) ]));
        (* a raising call never touched the (immutable) original *)
        check "original intact" true (G.m g = 1 && G.mem_edge g 0 1));
    test "iter/fold_neighbors match neighbors" (fun () ->
        let g = G.of_edges ~n:6 [ (0, 3); (0, 1); (3, 5); (2, 3) ] in
        for v = 0 to 5 do
          let l = ref [] in
          G.iter_neighbors g v (fun w -> l := w :: !l);
          check_int "iter" (List.length (G.neighbors g v)) (List.length !l);
          check "iter order" true (List.rev !l = G.neighbors g v);
          check "fold order" true
            (List.rev (G.fold_neighbors g v (fun acc w -> w :: acc) [])
            = G.neighbors g v)
        done);
  ]

(* ---------------------------------------------------------------- *)
(* the 10k-edge incremental rebuild regression (satellite: the seed
   add_edges/remove_edge rebuilt the whole graph through the full edge
   list; the incremental path must stay well under a second) *)

let suite_10k =
  [
    test "10k-edge graph: 1500 add/remove ops under 10 s" (fun () ->
        let rng = Random.State.make [| 11 |] in
        let n = 2000 in
        let edges =
          let seen = Hashtbl.create 20011 in
          while Hashtbl.length seen < 10_000 do
            let u = Random.State.int rng n and v = Random.State.int rng n in
            if u <> v then Hashtbl.replace seen (min u v, max u v) ()
          done;
          Hashtbl.fold (fun e () acc -> e :: acc) seen []
        in
        let g0 = G.of_edges ~n edges in
        check_int "m" 10_000 (G.m g0);
        let t0 = Unix.gettimeofday () in
        let g = ref g0 in
        for i = 0 to 1499 do
          let u = Random.State.int rng n and v = Random.State.int rng n in
          if u <> v then
            if G.mem_edge !g u v then begin
              g := G.remove_edge !g u v;
              ignore i
            end
            else g := G.add_edges !g [ (u, v) ]
        done;
        let dt = Unix.gettimeofday () -. t0 in
        check "edge count stayed sane" true (abs (G.m !g - 10_000) <= 1500);
        if dt > 10.0 then
          Alcotest.failf "1500 incremental ops took %.1f s (budget 10 s)" dt);
  ]

(* ---------------------------------------------------------------- *)
(* memo-on vs memo-off: identical certificate bundles across every
   registered property *)

let families =
  [
    ("path10", Gen.path 10);
    ("cycle12", Gen.cycle 12);
    ("even_path8", Gen.path 8);
    ( "pw2_24",
      fst (Gen.random_pathwidth (Random.State.make [| 7 |]) ~n:24 ~k:2 ()) );
  ]

let rep c =
  let g = PLS.Config.graph c in
  if G.n g <= 20 then Some (PW.exact_interval_representation g)
  else Some (PW.heuristic_interval_representation g)

let prove_bundle (module P : Registry.PROPERTY) g =
  let module T1 = Lcp_cert.Theorem1.Make (P.A) in
  let scheme = T1.edge_scheme ~rep ~k:2 () in
  let cfg = PLS.Config.random_ids (Random.State.make [| 42 |]) g in
  match scheme.S.es_prove cfg with
  | None -> None
  | Some labels ->
      let bundle =
        match Bundle.encode ~encode_label:scheme.S.es_encode g labels with
        | Ok b -> b
        | Error e -> Alcotest.failf "bundle encode failed: %s" e
      in
      let outcome = S.run_edge cfg scheme labels in
      Some (bundle, outcome = S.Accepted)

(* lookups in the verifier's group-check and view memos *)
let verifier_memo_traffic () =
  !Memo.group_hits + !Memo.group_misses + !Memo.view_hits + !Memo.view_misses

let memo_equality () =
  let on_traffic = ref 0 in
  List.iter
    (fun (pname, prop) ->
      List.iter
        (fun (fname, g) ->
          Memo.enabled := false;
          Memo.reset_counters ();
          let off = prove_bundle prop g in
          check_int (pname ^ "/" ^ fname ^ ": no memo traffic when disabled")
            0
            (verifier_memo_traffic ());
          Memo.enabled := true;
          let on = prove_bundle prop g in
          on_traffic := !on_traffic + verifier_memo_traffic ();
          (match (off, on) with
          | None, None -> ()
          | Some (b_off, ok_off), Some (b_on, ok_on) ->
              check (pname ^ "/" ^ fname ^ ": bundle bytes identical") true
                (Bundle.equal b_off b_on);
              check (pname ^ "/" ^ fname ^ ": verdicts identical") true
                (ok_off = ok_on)
          | _ ->
              Alcotest.failf "%s/%s: memo changed the prover's decision" pname
                fname))
        families)
    (List.map
       (fun name -> (name, Option.get (Registry.find name)))
       (Registry.names ()));
  (* the memo-on passes must actually exercise the tables *)
  check "memo saw traffic when enabled" true (!on_traffic > 0)

let suite_memo =
  [
    test "memo on/off: identical bundles across all 5 properties"
      memo_equality;
  ]

(* ---------------------------------------------------------------- *)
(* label bits from the encode pass: the engine and delta miss paths
   take a job's largest label from [Bundle.encode_sized]'s one pass;
   it must equal the re-encoding oracle [Scheme.max_edge_label_bits]
   exactly *)

module Engine = Lcp_service.Engine
module Delta = Lcp_service.Delta
module Manifest = Lcp_service.Manifest
module Stats = Lcp_service.Stats

let property_names = Registry.names ()

(* the n = 128 instances of [prop_pw2_128_label_bits] *)
let graph_128 property rng =
  match property with
  | "connected" -> fst (Gen.random_pathwidth rng ~n:128 ~k:2 ())
  | "perfect_matching" -> Gen.ladder 64
  | _ -> fst (Gen.random_pathwidth rng ~n:128 ~k:1 ())

let oracle_scheme name ~k =
  let (module P : Registry.PROPERTY) = Option.get (Registry.find name) in
  let module T1 = Lcp_cert.Theorem1.Make (P.A) in
  let scheme = T1.edge_scheme ~rep:Engine.default_rep ~k () in
  let decode_label = Lcp_cert.Certificate.decode ~decode_state:P.decode_state in
  (* erase the state type: the checks only need bit counts *)
  ( (fun cfg ->
      Option.map
        (fun labels ->
          let g = PLS.Config.graph cfg in
          ( S.max_edge_label_bits scheme labels,
            Bundle.encode ~encode_label:scheme.S.es_encode g labels,
            Bundle.encode_sized ~encode_label:scheme.S.es_encode g labels ))
        (scheme.S.es_prove cfg)),
    fun g bundle ->
      match Bundle.decode ~decode_label g bundle with
      | Ok labels -> S.max_edge_label_bits scheme labels
      | Error e -> Alcotest.failf "stored bundle does not decode: %s" e )

(* the one-pass figure equals the oracle, and the sized encode writes
   the same bundle as [Bundle.encode] *)
let one_pass_agrees (oracle, plain, sized) =
  match (plain, sized) with
  | Ok b, Ok (b', bits) -> bits = oracle && Bundle.equal b b'
  | _ -> false

(* light-mix jobs (n <= 8) through the engine's miss path: the report's
   label bits against the oracle run on the same graph and ids *)
let prop_engine_label_bits =
  let families = [ "random"; "path"; "tree"; "cycle" ] in
  qcheck ~count:150 "engine miss path: one-pass label bits = oracle (n <= 8)"
    QCheck.(
      quad
        (int_bound (List.length property_names - 1))
        (int_bound (List.length families - 1))
        (int_range 3 8) (pair (int_range 1 2) (int_bound 10_000)))
    (fun (pi, fi, n, (k, seed)) ->
      let property = List.nth property_names pi in
      let source =
        Manifest.Generated { family = List.nth families fi; n; gen_seed = seed }
      in
      let job = { Manifest.job_id = "lb"; source; property; k; seed } in
      let report = Engine.run_job (Engine.create ()) job in
      match report.Stats.r_status with
      | Stats.Served_fresh -> (
          let g =
            Result.get_ok (Engine.graph_of_source ~base_dir:"." ~k source)
          in
          let cfg = PLS.Config.random_ids (Random.State.make [| seed |]) g in
          match fst (oracle_scheme property ~k) cfg with
          | Some ((oracle, _, _) as r) ->
              one_pass_agrees r && report.Stats.r_label_bits = oracle
          | None -> false)
      | _ -> true)

(* n = 128: random pathwidth-2 graphs for connectivity; the properties
   these graphs almost never have run on random pathwidth-1 graphs
   (trees) and on the ladder, whose ids are still random *)
let prop_pw2_128_label_bits =
  qcheck ~count:15 "one-pass label bits = oracle on n=128, pathwidth <= 2"
    QCheck.(pair (int_bound (List.length property_names - 1)) (int_bound 10_000))
    (fun (pi, seed) ->
      let property = List.nth property_names pi in
      let rng = Random.State.make [| seed |] in
      let g =
        match property with
        | "connected" -> fst (Gen.random_pathwidth rng ~n:128 ~k:2 ())
        | "perfect_matching" -> Gen.ladder 64
        | _ -> fst (Gen.random_pathwidth rng ~n:128 ~k:1 ())
      in
      let cfg = PLS.Config.random_ids rng g in
      match fst (oracle_scheme property ~k:2) cfg with
      | Some r -> one_pass_agrees r
      | None -> Alcotest.failf "%s declined a graph it holds on" property)

(* delta sessions on a 20-vertex path: every fresh (miss-path) step's
   reported label bits against the oracle on the bundle it served. Each
   edit yields a graph the session has not seen, so steps miss: chords
   of length 2 (connected, pathwidth 2) or 3 (bipartite, pathwidth 3),
   or deletions (acyclic). *)
let delta_label_bits () =
  let checked = ref 0 in
  List.iter
    (fun (property, k, edit) ->
      let line =
        Printf.sprintf "id=lb gen=path n=20 gseed=3 property=%s k=%d seed=5"
          property k
      in
      let job =
        match Manifest.parse line with
        | Ok [ j ] -> j
        | _ -> Alcotest.failf "bad job line %S" line
      in
      let s =
        match Delta.create (Engine.create ()) job with
        | Ok (s, _, _) -> s
        | Error _ -> Alcotest.failf "session did not open: %s" line
      in
      let label_bits_of = snd (oracle_scheme property ~k) in
      let starts = Array.init 16 Fun.id in
      let rng = Random.State.make [| 11 |] in
      for i = 15 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = starts.(i) in
        starts.(i) <- starts.(j);
        starts.(j) <- x
      done;
      Array.iteri
        (fun step u ->
          if step < 10 then begin
            let ops = edit u in
            let r, _ = Delta.step s ~full:false ops in
            if r.Stats.r_status = Stats.Served_fresh then begin
              incr checked;
              check_int
                (Printf.sprintf "%s after %s: label bits" property ops)
                (label_bits_of (Delta.graph s) (Option.get (Delta.bundle s)))
                r.Stats.r_label_bits
            end
          end)
        starts)
    [
      ("connected", 2, fun u -> Printf.sprintf "add=%d-%d" u (u + 2));
      ("bipartite", 3, fun u -> Printf.sprintf "add=%d-%d" u (u + 3));
      ("acyclic", 2, fun u -> Printf.sprintf "del=%d-%d" u (u + 1));
    ];
  check "delta miss path exercised" true (!checked >= 20)


(* An oracle that shares nothing with the encoder under test: the
   figures above come from [es_encode], which is the sharing
   [Certificate.encode]; here every one is also taken with
   [Certificate.encode_plain], the encoder that writes each record where
   it occurs. The bundle (bytes and size), the one-pass label bits and
   [Scheme.max_edge_label_bits] must all agree. *)

module Plain = struct
  type figures = { bundle : Bundle.t; label_bits : int; max_bits : int }

  (* the figures of [labels] under the sharing and the plain encoder *)
  let figures (type s) (module P : Registry.PROPERTY with type A.state = s)
      (scheme : s Lcp_cert.Certificate.label S.edge_scheme) g labels =
    let plain =
      {
        scheme with
        S.es_encode = Lcp_cert.Certificate.encode_plain ~encode_state:P.A.encode;
      }
    in
    let of_scheme sch =
      match Bundle.encode_sized ~encode_label:sch.S.es_encode g labels with
      | Ok (bundle, label_bits) ->
          { bundle; label_bits; max_bits = S.max_edge_label_bits sch labels }
      | Error e -> Alcotest.failf "bundle: %s" e
    in
    (of_scheme scheme, of_scheme plain)

  let agree ctx (sharing, plain) =
    check (ctx ^ ": bundle bytes") true (Bundle.equal sharing.bundle plain.bundle);
    check_int (ctx ^ ": bundle bits") plain.bundle.Bundle.bits
      sharing.bundle.Bundle.bits;
    check_int (ctx ^ ": one-pass label bits") plain.label_bits sharing.label_bits;
    check_int (ctx ^ ": max_edge_label_bits") plain.max_bits sharing.max_bits;
    check_int (ctx ^ ": one pass = re-encoding") plain.max_bits plain.label_bits

  (* prove [name] on [cfg] and compare; [None] when the prover declines *)
  let prove_and_compare ctx name ~k cfg =
    let (module P : Registry.PROPERTY) = Option.get (Registry.find name) in
    let module T1 = Lcp_cert.Theorem1.Make (P.A) in
    let scheme = T1.edge_scheme ~rep:Engine.default_rep ~k () in
    Option.map
      (fun labels ->
        let ((_, plain) as fs) =
          figures (module P) scheme (PLS.Config.graph cfg) labels
        in
        agree ctx fs;
        plain)
      (scheme.S.es_prove cfg)
end

(* every registered property on small jobs (n <= 8), through the
   engine's miss path too: its report's label and bundle bits *)
let plain_oracle_small () =
  let served = ref 0 in
  List.iter
    (fun property ->
      List.iter
        (fun family ->
          List.iter
            (fun (n, k, seed) ->
              let source = Manifest.Generated { family; n; gen_seed = seed } in
              let ctx = Printf.sprintf "%s %s n=%d k=%d" property family n k in
              match Engine.graph_of_source ~base_dir:"." ~k source with
              | Error _ -> ()
              | Ok g -> (
                  let cfg =
                    PLS.Config.random_ids (Random.State.make [| seed |]) g
                  in
                  match Plain.prove_and_compare ctx property ~k cfg with
                  | None -> ()
                  | Some plain ->
                      let job =
                        { Manifest.job_id = "po"; source; property; k; seed }
                      in
                      let r = Engine.run_job (Engine.create ()) job in
                      if r.Stats.r_status = Stats.Served_fresh then begin
                        incr served;
                        check_int (ctx ^ ": engine label bits") plain.Plain.max_bits
                          r.Stats.r_label_bits;
                        check_int (ctx ^ ": engine bundle bits")
                          plain.Plain.bundle.Bundle.bits r.Stats.r_bundle_bits
                      end))
            [ (3, 1, 11); (5, 2, 12); (8, 1, 13); (8, 2, 14) ])
        [ "random"; "path"; "tree"; "cycle" ])
    property_names;
  check "every property served some job" true (!served >= 20)

let plain_oracle_128 () =
  List.iter
    (fun (property, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = graph_128 property rng in
      let cfg = PLS.Config.random_ids rng g in
      match
        Plain.prove_and_compare (Printf.sprintf "%s n=128" property) property
          ~k:2 cfg
      with
      | Some _ -> ()
      | None -> Alcotest.failf "%s declined a graph it holds on" property)
    (List.mapi (fun i p -> (p, 40 + i)) property_names @ [ ("connected", 77) ])

(* 30 delta-session steps (10 edits per property, as in
   [delta_label_bits], on a 24-vertex path): every served step's bundle is the plain encoding
   of the labeling it decodes to, and its label bits that labeling's
   plain maximum *)
let plain_oracle_delta () =
  let served = ref 0 and fresh = ref 0 in
  List.iter
    (fun (property, k, edit) ->
      let (module P : Registry.PROPERTY) = Option.get (Registry.find property) in
      let line =
        Printf.sprintf "id=po gen=path n=24 gseed=4 property=%s k=%d seed=6"
          property k
      in
      let job =
        match Manifest.parse line with
        | Ok [ j ] -> j
        | _ -> Alcotest.failf "bad job line %S" line
      in
      let s =
        match Delta.create (Engine.create ()) job with
        | Ok (s, _, _) -> s
        | Error _ -> Alcotest.failf "session did not open: %s" line
      in
      let plain = Lcp_cert.Certificate.encode_plain ~encode_state:P.A.encode in
      let decode_label =
        Lcp_cert.Certificate.decode ~decode_state:P.decode_state
      in
      for step = 0 to 9 do
        let ops = edit (1 + (step * 17 mod 16)) in
        let r, _ = Delta.step s ~full:false ops in
        match Delta.bundle s with
        | Some b when r.Stats.r_status = Stats.Served_fresh
                      || r.Stats.r_status = Stats.Served_cached ->
            incr served;
            if r.Stats.r_status = Stats.Served_fresh then incr fresh;
            let g = Delta.graph s in
            let ctx = Printf.sprintf "%s after %s" property ops in
            let labels =
              match Bundle.decode ~decode_label g b with
              | Ok l -> l
              | Error e -> Alcotest.failf "%s: %s" ctx e
            in
            let re, bits =
              Result.get_ok (Bundle.encode_sized ~encode_label:plain g labels)
            in
            check (ctx ^ ": bundle = plain re-encoding") true (Bundle.equal b re);
            check_int (ctx ^ ": bundle bits") re.Bundle.bits r.Stats.r_bundle_bits;
            check_int (ctx ^ ": label bits") bits r.Stats.r_label_bits
        | _ -> ()
      done)
    [
      ("connected", 2, fun u -> Printf.sprintf "add=%d-%d" u (u + 2));
      ("bipartite", 3, fun u -> Printf.sprintf "add=%d-%d" u (u + 3));
      ("acyclic", 2, fun u -> Printf.sprintf "del=%d-%d" u (u + 1));
    ];
  check "delta steps served" true (!served >= 20);
  check "most of them fresh (the sharing encoder's bundles)" true (!fresh >= 20)

(* Prop 2.1's vertex labels carry several edge labels each, encoded
   with the edge scheme's [es_encode] *)
let plain_oracle_vertex () =
  List.iter
    (fun (property, n, seed) ->
      let (module P : Registry.PROPERTY) = Option.get (Registry.find property) in
      let module T1 = Lcp_cert.Theorem1.Make (P.A) in
      let k = 2 in
      let rng = Random.State.make [| seed |] in
      let g =
        if n = 128 then graph_128 property rng
        else if property = "perfect_matching" then Gen.ladder (n / 2)
        else fst (Gen.random_pathwidth rng ~n ~k:1 ())
      in
      let cfg = PLS.Config.random_ids rng g in
      let vs = T1.vertex_scheme ~rep:Engine.default_rep ~k () in
      let plain_vs =
        S.edge_to_vertex ~d:(k + 1)
          {
            (T1.edge_scheme ~rep:Engine.default_rep ~k ()) with
            S.es_encode =
              Lcp_cert.Certificate.encode_plain ~encode_state:P.A.encode;
          }
      in
      match vs.S.vs_prove cfg with
      | None -> Alcotest.failf "%s declined n=%d" property n
      | Some labels ->
          check_int
            (Printf.sprintf "%s n=%d: max_vertex_label_bits" property n)
            (S.max_vertex_label_bits plain_vs labels)
            (S.max_vertex_label_bits vs labels))
    (List.concat_map
       (fun p -> [ (p, 8, 3); (p, 20, 4) ])
       property_names
    @ [ ("connected", 128, 5) ])

let suite_label_bits =
  [
    prop_engine_label_bits;
    prop_pw2_128_label_bits;
    test "delta miss path: one-pass label bits = oracle" delta_label_bits;
    test "sharing = plain encode: 5 properties, n <= 8" plain_oracle_small;
    test "sharing = plain encode: n=128" plain_oracle_128;
    test "sharing = plain encode: 30 delta steps" plain_oracle_delta;
    test "sharing = plain encode: vertex label bits" plain_oracle_vertex;
  ]

(* ---------------------------------------------------------------- *)
(* the sharing decoder: a partially applied [Certificate.decode] decodes
   each repeated record of a stream once and hands out shared values.
   Every label must still be exactly what a fresh decoder reads from
   that label's bits alone, and the sharing must be complete on honest
   bundles: one physical value per distinct info and frame. *)

module Cert = Lcp_cert.Certificate
module Bitenc = Lcp_util.Bitenc

(* prove [name] on [cfg]; decode the bundle with one sharing decoder
   and every label alone with a fresh one; true when the prover
   declines *)
let sharing_matches_fresh name ~k cfg =
  let (module P : Registry.PROPERTY) = Option.get (Registry.find name) in
  let module T1 = Lcp_cert.Theorem1.Make (P.A) in
  let scheme = T1.edge_scheme ~rep:Engine.default_rep ~k () in
  match scheme.S.es_prove cfg with
  | None -> true
  | Some labels -> (
      let g = PLS.Config.graph cfg in
      let bundle =
        Result.get_ok (Bundle.encode ~encode_label:scheme.S.es_encode g labels)
      in
      let decode_label = Cert.decode ~decode_state:P.decode_state in
      match Bundle.decode ~decode_label g bundle with
      | Error e -> Alcotest.failf "%s: bundle does not decode: %s" name e
      | Ok decoded ->
          List.for_all
            (fun (e, l) ->
              let w = Bitenc.writer () in
              scheme.S.es_encode w l;
              let alone =
                Cert.decode ~decode_state:P.decode_state
                  (Bitenc.reader_of_writer w)
              in
              S.Edge_map.find decoded e = Some alone)
            (S.Edge_map.bindings labels))

let prop_sharing_small =
  let families = [ "random"; "path"; "tree"; "cycle" ] in
  qcheck ~count:150 "sharing decode = label-alone decode (n <= 10)"
    QCheck.(
      quad
        (int_bound (List.length property_names - 1))
        (int_bound (List.length families - 1))
        (int_range 2 10) (pair (int_range 1 2) (int_bound 10_000)))
    (fun (pi, fi, n, (k, seed)) ->
      let source =
        Manifest.Generated { family = List.nth families fi; n; gen_seed = seed }
      in
      match Engine.graph_of_source ~base_dir:"." ~k source with
      | Error _ -> true
      | Ok g ->
          sharing_matches_fresh (List.nth property_names pi) ~k
            (PLS.Config.random_ids (Random.State.make [| seed |]) g))

let prop_sharing_128 =
  qcheck ~count:10 "sharing decode = label-alone decode (n = 128, pw <= 2)"
    QCheck.(pair (int_bound (List.length property_names - 1)) (int_bound 10_000))
    (fun (pi, seed) ->
      let property = List.nth property_names pi in
      let rng = Random.State.make [| seed |] in
      let g = graph_128 property rng in
      sharing_matches_fresh property ~k:2 (PLS.Config.random_ids rng g))

module Conn = Lcp_algebra.Connectivity
module T1c = Lcp_cert.Theorem1.Make (Conn)

let conn_bundle ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let g = fst (Gen.random_pathwidth rng ~n ~k:2 ()) in
  let cfg = PLS.Config.random_ids rng g in
  let scheme = T1c.edge_scheme ~rep:Engine.default_rep ~k:2 () in
  let labels = Option.get (scheme.S.es_prove cfg) in
  (g, Result.get_ok (Bundle.encode ~encode_label:scheme.S.es_encode g labels))

(* a decoder that shares nothing across labels: a new one per label *)
let unshared r = Cert.decode ~decode_state:Conn.decode r

(* all labels of a bundle read from [r] by [decode], after the header;
   the exception a corrupt stream raises, as a value *)
let read_all decode r m =
  match
    ignore (Bitenc.read_varint r : int);
    ignore (Bitenc.read_varint r : int);
    let rec go i acc = if i = m then List.rev acc else go (i + 1) (decode r :: acc) in
    go 0 []
  with
  | labels -> Ok labels
  | exception Invalid_argument e -> Error e

let decoder_reuse () =
  let shared = Cert.decode ~decode_state:Conn.decode in
  let b1 = conn_bundle ~n:128 ~seed:1 and b2 = conn_bundle ~n:40 ~seed:2 in
  List.iteri
    (fun i (g, b) ->
      let got = Bundle.decode ~decode_label:shared g b in
      let want = Bundle.decode ~decode_label:unshared g b in
      check
        (Printf.sprintf "bundle %d: one decoder over several bundles" i)
        true
        (Result.map S.Edge_map.bindings got = Result.map S.Edge_map.bindings want))
    [ b1; b2; b1; b2 ];
  (* one reader repointed at a buffer that changes in place between
     reads: every read must see the current bits only *)
  let g, b = b2 in
  let m = G.m g in
  let bytes = Bytes.copy b.Bundle.bytes in
  let r = Bitenc.reader bytes in
  let clean = read_all shared r m in
  check "clean stream decodes" true (Result.is_ok clean);
  let total = 8 * Bytes.length bytes in
  for i = 0 to 59 do
    let pos = i * 7919 mod total in
    Bitenc.flip_bit bytes pos;
    Bitenc.reset_reader r bytes;
    let got = read_all shared r m in
    let want = read_all unshared (Bitenc.reader bytes) m in
    check (Printf.sprintf "bit %d flipped in place" pos) true (got = want);
    Bitenc.flip_bit bytes pos;
    Bitenc.reset_reader r bytes;
    check (Printf.sprintf "bit %d flipped back" pos) true (read_all shared r m = clean)
  done

let infos_of_frame = function
  | Cert.T_frame { member = m, _; merged; children; _ } ->
      m :: merged :: List.map snd children
  | Cert.B_frame { bnode; left = l, _; right = r, _; _ } -> [ bnode; l; r ]

(* (physically distinct, structurally distinct) values of [xs] *)
let distinct xs =
  let buckets = Hashtbl.create 1024 in
  let phys = ref 0 and structural = ref 0 in
  List.iter
    (fun x ->
      let h = Hashtbl.hash x in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt buckets h) in
      if not (List.memq x bucket) then begin
        incr phys;
        if not (List.mem x bucket) then incr structural;
        Hashtbl.replace buckets h (x :: bucket)
      end)
    xs;
  (!phys, !structural)

let sharing_is_complete () =
  let g, b = conn_bundle ~n:128 ~seed:7 in
  let labels =
    List.map snd
      (S.Edge_map.bindings
         (Result.get_ok
            (Bundle.decode ~decode_label:(Cert.decode ~decode_state:Conn.decode) g b)))
  in
  let stacks =
    List.concat_map
      (fun (l : Conn.state Cert.label) ->
        l.Cert.frames :: List.map (fun v -> v.Cert.vframes) l.Cert.transported)
      labels
  in
  let frames = List.concat stacks in
  let infos = List.concat_map infos_of_frame frames in
  let pi, si = distinct infos and pf, sf = distinct frames in
  let ps, ss = distinct stacks in
  check "many repeated infos" true (List.length infos > 4 * si);
  check_int "one physical info per distinct info" si pi;
  check_int "one physical frame per distinct frame" sf pf;
  check_int "one physical stack per distinct stack" ss ps;
  (* the records of one virtual edge, on the edges of its path *)
  let by_edge = Hashtbl.create 256 in
  List.iter
    (fun (l : Conn.state Cert.label) ->
      List.iter
        (fun v ->
          Hashtbl.replace by_edge (v.Cert.vu, v.Cert.vv)
            (v :: Option.value ~default:[] (Hashtbl.find_opt by_edge (v.Cert.vu, v.Cert.vv))))
        l.Cert.transported)
    labels;
  let longest = ref 0 in
  Hashtbl.iter
    (fun _ (records : Conn.state Cert.vrecord list) ->
      longest := max !longest (List.length records);
      match records with
      | r0 :: rest ->
          check "one virtual edge, one vframes value" true
            (List.for_all (fun r -> r.Cert.vframes == r0.Cert.vframes) rest)
      | [] -> ())
    by_edge;
  check "some virtual edge rides several edges" true (!longest >= 2)

(* Every info below with node id [id] starts with the same 48 bits
   (node id, a count of ten lanes, nine fixed lanes; x comes next), so
   all of them land in one bucket
   per id, which holds only a few candidates: the rest are decoded each
   time and still equal. A label names one info per id, so the
   collisions are across labels: each label picks its own x per id. *)
let crafted_prefix_collisions () =
  let st =
    let w = Bitenc.writer () in
    Conn.encode w (Conn.add_edge (Conn.introduce (Conn.introduce Conn.empty 0) 1) 0 1);
    Conn.decode (Bitenc.reader_of_writer w)
  in
  let info id x =
    {
      Cert.node_id = id;
      lanes = [ 0; 1; 2; 3; 4; 5; 6; 7; 1; x ];
      t_in = [ (0, x) ];
      t_out = [];
      state = st;
    }
  in
  let bits i =
    let w = Bitenc.writer () in
    Bitenc.varint w i.Cert.node_id;
    Bitenc.varint w (List.length i.Cert.lanes);
    List.iter (Bitenc.varint w) i.Cert.lanes;
    (Bitenc.length_bits w, Bitenc.to_bytes w)
  in
  let shared_prefix a b =
    let (la, ba), (lb, bb) = (bits a, bits b) in
    let rec go k =
      if k < la && k < lb && Bitenc.get_bit ba k = Bitenc.get_bit bb k then go (k + 1)
      else k
    in
    go 0
  in
  check_int "same id, other x: 48 shared bits" 48 (shared_prefix (info 1 4) (info 1 23));
  check_int "same id, other x: 48 shared bits (2)" 48 (shared_prefix (info 3 5) (info 3 9));
  let rng = Random.State.make [| 48 |] in
  let label () =
    let pick id = info id (4 + Random.State.int rng 20) in
    let member = pick 1 and merged = pick 2 and child = pick 3 in
    let frame () =
      Cert.T_frame
        {
          member = (member, Cert.KV);
          merged;
          is_tree_root = false;
          member_real = [ true ];
          children = [ (7, child) ];
        }
    in
    let stack () = List.init (1 + Random.State.int rng 5) (fun _ -> frame ()) in
    let frames = stack () in
    let vframes = stack () in
    {
      Cert.frames;
      global_ptr = { PLS.Spanning_tree.target = 3; parent = None };
      accept_state = true;
      transported = [ { Cert.vu = 1; vv = 2; rank_fwd = 1; rank_bwd = 1; vframes } ];
    }
  in
  let labels = List.init 12 (fun _ -> label ()) in
  let w = Bitenc.writer () in
  List.iter (Cert.encode ~encode_state:Conn.encode w) labels;
  let r = Bitenc.reader_of_writer w in
  let decode = Cert.decode ~decode_state:Conn.decode in
  List.iteri
    (fun i l ->
      let got = decode r in
      let alone =
        let w = Bitenc.writer () in
        Cert.encode ~encode_state:Conn.encode w l;
        unshared (Bitenc.reader_of_writer w)
      in
      check (Printf.sprintf "label %d = its encoded value" i) true (got = l);
      check (Printf.sprintf "label %d = label-alone decode" i) true (got = alone))
    labels;
  check_int "stream fully consumed" 0 (Bitenc.bits_remaining r)


(* ---------------------------------------------------------------- *)
(* the sharing encoder against the tables it keeps: a decoded labeling
   (maximally shared) re-encodes to its bundle, and no span remembered
   from an earlier stream of the same writer is ever copied *)

let plain_conn = Cert.encode_plain ~encode_state:Conn.encode

let decoded_reencodes () =
  List.iter
    (fun (n, seed) ->
      let g, b = conn_bundle ~n ~seed in
      let decoded =
        Result.get_ok
          (Bundle.decode ~decode_label:(Cert.decode ~decode_state:Conn.decode) g b)
      in
      let sharing = Cert.encode ~encode_state:Conn.encode in
      List.iter
        (fun (what, encode_label) ->
          match Bundle.encode_sized ~encode_label g decoded with
          | Ok (b', _) ->
              check
                (Printf.sprintf "n=%d: %s re-encoding = stored bundle" n what)
                true (Bundle.equal b b')
          | Error e -> Alcotest.failf "%s" e)
        [ ("sharing", sharing); ("plain", plain_conn); ("sharing again", sharing) ])
    [ (128, 3); (40, 4); (8, 5) ]

let small_conn_labels () =
  let rng = Random.State.make [| 21 |] in
  let g = fst (Gen.random_pathwidth rng ~n:24 ~k:2 ()) in
  let cfg = PLS.Config.random_ids rng g in
  let scheme = T1c.edge_scheme ~rep:Engine.default_rep ~k:2 () in
  List.map snd (S.Edge_map.bindings (Option.get (scheme.S.es_prove cfg)))

(* [raw] bits of filler, then [labels] *)
let filler_then encode w raw labels =
  for i = 0 to raw - 1 do
    Bitenc.bit w (i mod 3 <> 1)
  done;
  List.iter (encode w) labels

let stale_tables () =
  let labels = small_conn_labels () in
  let encode = Cert.encode ~encode_state:Conn.encode in
  let w = Bitenc.writer () in
  List.iter (encode w) labels;
  let high = Bitenc.length_bits w in
  (* the same writer, reset and refilled past the old high-water mark:
     every span the encoder remembers now holds filler bits, and the
     labels share their infos and stacks with the ones written before *)
  Bitenc.reset w;
  filler_then encode w (high + 100) labels;
  let wp = Bitenc.writer () in
  filler_then plain_conn wp (high + 100) labels;
  check "after reset and refill = plain" true
    (Bitenc.length_bits w = Bitenc.length_bits wp
    && Bytes.equal (Bitenc.to_bytes w) (Bitenc.to_bytes wp));
  (* one encoder, two writers taking turns *)
  let w1 = Bitenc.writer () and w2 = Bitenc.writer () in
  filler_then encode w2 13 [];
  List.iter
    (fun l ->
      encode w1 l;
      encode w2 l)
    labels;
  let p1 = Bitenc.writer () and p2 = Bitenc.writer () in
  filler_then plain_conn p2 13 [];
  List.iter
    (fun l ->
      plain_conn p1 l;
      plain_conn p2 l)
    labels;
  check "two writers in turn = plain" true
    (Bytes.equal (Bitenc.to_bytes w1) (Bitenc.to_bytes p1)
    && Bytes.equal (Bitenc.to_bytes w2) (Bitenc.to_bytes p2))

let suite_sharing =
  [
    prop_sharing_small;
    prop_sharing_128;
    test "one decoder across bundles and in-place flips" decoder_reuse;
    test "n=128: one physical value per distinct record" sharing_is_complete;
    test "infos sharing their first 48 bits" crafted_prefix_collisions;
    test "a decoded labeling re-encodes to its bundle" decoded_reencodes;
    test "no stale span after reset or another writer" stale_tables;
  ]

(* ---------------------------------------------------------------- *)
(* the label codec: each label opens with a table of the infos it
   mentions, in increasing node id, and its frames name infos by id *)

let infos_of_label (l : _ Cert.label) =
  List.concat_map infos_of_frame
    (l.Cert.frames @ List.concat_map (fun v -> v.Cert.vframes) l.Cert.transported)

(* the form the codec represents: one node id names one info *)
let one_info_per_id l =
  let by_id = Hashtbl.create 16 in
  List.for_all
    (fun (i : _ Cert.info) ->
      match Hashtbl.find_opt by_id i.Cert.node_id with
      | Some j -> j == i || j = i
      | None ->
          Hashtbl.add by_id i.Cert.node_id i;
          true)
    (infos_of_label l)

(* [l] with every state replaced by [f] of it *)
let map_states f (l : _ Cert.label) =
  let info (i : _ Cert.info) = { i with Cert.state = f i.Cert.state } in
  let frame = function
    | Cert.T_frame t ->
        Cert.T_frame
          {
            t with
            member = (info (fst t.member), snd t.member);
            merged = info t.merged;
            children = List.map (fun (nid, c) -> (nid, info c)) t.children;
          }
    | Cert.B_frame b ->
        Cert.B_frame
          {
            b with
            bnode = info b.bnode;
            left = (info (fst b.left), snd b.left);
            right = (info (fst b.right), snd b.right);
          }
  in
  {
    l with
    Cert.frames = List.map frame l.Cert.frames;
    transported =
      List.map
        (fun v -> { v with Cert.vframes = List.map frame v.Cert.vframes })
        l.Cert.transported;
  }

(* prove [name] under [strategy] on [cfg]: every label is of the
   codec's form and decodes to itself (states up to their own encoding:
   an algebra's decoder may rebuild a map of another shape), the sharing and the plain
   encoder write the same bundle, the bundle decodes to the labeling,
   and its one-pass label bits equal [max_edge_label_bits]; true when
   the prover declines *)
let codec_roundtrip name ~strategy ~k cfg =
  let (module P : Registry.PROPERTY) = Option.get (Registry.find name) in
  let module T1 = Lcp_cert.Theorem1.Make (P.A) in
  let scheme = T1.edge_scheme ~strategy ~rep:Engine.default_rep ~k () in
  match scheme.S.es_prove cfg with
  | None -> true
  | Some labels ->
      let g = PLS.Config.graph cfg in
      let plain = Cert.encode_plain ~encode_state:P.A.encode in
      let decode_label = Cert.decode ~decode_state:P.decode_state in
      let bundle, bits =
        Result.get_ok (Bundle.encode_sized ~encode_label:scheme.S.es_encode g labels)
      in
      let canon l =
        map_states
          (fun st ->
            let w = Bitenc.writer () in
            P.A.encode w st;
            Bytes.to_string (Bitenc.to_bytes w))
          l
      in
      let same a b = List.equal (fun (e, x) (e', y) -> e = e' && canon x = canon y) a b in
      List.for_all
        (fun (_, l) ->
          one_info_per_id l
          &&
          let w = Bitenc.writer () in
          plain w l;
          canon (Cert.decode ~decode_state:P.decode_state (Bitenc.reader_of_writer w))
          = canon l)
        (S.Edge_map.bindings labels)
      && Bundle.equal bundle
           (Result.get_ok (Bundle.encode ~encode_label:plain g labels))
      && bits = S.max_edge_label_bits scheme labels
      &&
      match Bundle.decode ~decode_label g bundle with
      | Ok decoded -> same (S.Edge_map.bindings decoded) (S.Edge_map.bindings labels)
      | Error _ -> false

let prop_codec_roundtrip =
  let families = [ "random"; "path"; "tree"; "cycle" ] in
  qcheck ~count:120
    "codec: decode (encode l) = l, sharing = plain, one pass = max bits"
    QCheck.(
      quad
        (pair (int_bound (List.length property_names - 1)) bool)
        (int_bound (List.length families - 1))
        (int_range 2 24) (pair (int_range 1 2) (int_bound 10_000)))
    (fun ((pi, prop46), fi, n, (k, seed)) ->
      let source =
        Manifest.Generated { family = List.nth families fi; n; gen_seed = seed }
      in
      (* the shrinker can step out of the ranges above *)
      k < 1 || n < 2
      ||
      match Engine.graph_of_source ~base_dir:"." ~k source with
      | Error _ -> true
      | Ok g ->
          codec_roundtrip (List.nth property_names pi)
            ~strategy:(if prop46 then `Prop46 else `Hybrid)
            ~k
            (PLS.Config.random_ids (Random.State.make [| seed |]) g))

let codec_roundtrip_128 () =
  List.iteri
    (fun i property ->
      List.iter
        (fun strategy ->
          let rng = Random.State.make [| 60 + i |] in
          let g = graph_128 property rng in
          check
            (Printf.sprintf "%s n=128 %s" property
               (if strategy = `Prop46 then "prop46" else "hybrid"))
            true
            (codec_roundtrip property ~strategy ~k:2 (PLS.Config.random_ids rng g)))
        [ `Hybrid; `Prop46 ])
    property_names

(* Hand-written bundles for the one-edge graph 0-1: a label with the
   table [ids], whose one frame names [refs] (member, merged), behind a
   table count of [count]. *)
let crafted_bundle ?count ids (member, merged) =
  let st = Conn.introduce Conn.empty 0 in
  let w = Bitenc.writer () in
  Bitenc.varint w 2;
  Bitenc.varint w 1;
  Bitenc.varint w (Option.value count ~default:(List.length ids));
  List.iter
    (fun id ->
      Bitenc.varint w id;
      Bitenc.varint w 1;
      Bitenc.varint w 0;
      Bitenc.varint w 0;
      Bitenc.varint w 0;
      Conn.encode w st)
    ids;
  (* own stack: one T frame *)
  Bitenc.varint w 1;
  Bitenc.bit w false;
  Bitenc.varint w member;
  Bitenc.bits w ~width:3 (Cert.kind_code Cert.KE);
  Bitenc.varint w merged;
  Bitenc.bit w true;
  Bitenc.varint w 0;
  Bitenc.varint w 0;
  (* pointer, accept bit, no transported records *)
  Bitenc.varint w 0;
  Bitenc.bit w false;
  Bitenc.bit w true;
  Bitenc.varint w 0;
  { Bundle.bytes = Bitenc.to_bytes w; bits = Bitenc.length_bits w }

let malformed_tables () =
  let g = Gen.path 2 in
  let decode b =
    match Bundle.decode ~decode_label:(Cert.decode ~decode_state:Conn.decode) g b with
    | r -> r
    | exception e -> Alcotest.failf "Bundle.decode raised %s" (Printexc.to_string e)
  in
  (match decode (crafted_bundle [ 3; 5 ] (3, 5)) with
  | Ok labels ->
      let l = Option.get (S.Edge_map.find labels (0, 1)) in
      check "the well-formed control decodes to its two infos" true
        (List.map (fun (i : _ Cert.info) -> i.Cert.node_id) (infos_of_label l) = [ 3; 5 ])
  | Error e -> Alcotest.failf "well-formed control: %s" e);
  List.iter
    (fun (what, b) ->
      check (what ^ " is an Error") true (Result.is_error (decode b)))
    [
      ("a table out of order", crafted_bundle [ 5; 3 ] (3, 5));
      ("a repeated id", crafted_bundle [ 3; 3 ] (3, 3));
      ("a reference to an absent id", crafted_bundle [ 3; 5 ] (3, 9));
      ("a count past the remaining bits", crafted_bundle ~count:1_000_000 [ 3; 5 ] (3, 5));
      ("a count one past the entries", crafted_bundle ~count:3 [ 3; 5 ] (3, 5));
    ]

(* two infos under one node id: neither encoder writes such a label *)
let two_infos_one_id () =
  let st = Conn.introduce Conn.empty 0 in
  let info lanes =
    { Cert.node_id = 4; lanes; t_in = []; t_out = []; state = st }
  in
  let label =
    {
      Cert.frames =
        [
          Cert.T_frame
            {
              member = (info [ 0 ], Cert.KE);
              merged = info [ 1 ];
              is_tree_root = true;
              member_real = [];
              children = [];
            };
        ];
      global_ptr = { PLS.Spanning_tree.target = 0; parent = None };
      accept_state = true;
      transported = [];
    }
  in
  List.iter
    (fun (what, encode) ->
      check what true
        (match encode (Bitenc.writer ()) label with
        | () -> false
        | exception Invalid_argument _ -> true))
    [
      ("the sharing encoder raises", Cert.encode ~encode_state:Conn.encode);
      ("the plain encoder raises", Cert.encode_plain ~encode_state:Conn.encode);
    ];
  (* the same info twice, as two equal values, is one entry *)
  let same =
    { label with
      Cert.frames =
        [
          Cert.T_frame
            {
              member = (info [ 0 ], Cert.KE);
              merged = info [ 0 ];
              is_tree_root = true;
              member_real = [];
              children = [];
            };
        ];
    }
  in
  let w = Bitenc.writer () in
  Cert.encode ~encode_state:Conn.encode w same;
  check "equal infos under one id decode back" true
    (Cert.decode ~decode_state:Conn.decode (Bitenc.reader_of_writer w) = same)

let suite_codec =
  [
    prop_codec_roundtrip;
    test "n=128: round trips under both strategies" codec_roundtrip_128;
    test "malformed tables decode to an Error" malformed_tables;
    test "two infos under one id are refused" two_infos_one_id;
  ]

let () =
  Alcotest.run "lcp-graphcore"
    [
      ("csr-vs-ref", suite_equiv);
      ("10k-regression", suite_10k);
      ("memo", suite_memo);
      ("label-bits", suite_label_bits);
      ("sharing", suite_sharing);
      ("codec", suite_codec);
    ]
