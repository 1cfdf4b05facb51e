(* The packed-state differential suite (`dune build @packed`).

   The flat packed representation (Algebra_sig.S.pack/unpack over
   Packed_state arenas) replaced Marshal images as the composition
   memo's key format; the seed record representation stays in place as
   the oracle. Four families of properties:

   1. Round-trip. [unpack (pack st) = st] (up to [A.equal]) for >= 500
      random reachable states of every registered algebra, built by
      random introduce/add_edge/forget/rename/identify/union
      interleavings. Also: a pack parses back consuming exactly the
      words it wrote (what makes concatenated keys unambiguous), and
      re-packing the unpacked state is word-identical (pack is a
      function of the state's class, not of construction history).

   2. Packed-memo vs reference compose. bridge / glue / forget through
      the packed-key memo (Memo.enabled = true) must agree with the
      direct recomputation path (Memo.enabled = false) — same class
      ([A.equal]), same interface, byte-identical [A.encode] — over
      random composition instances of every registered algebra.

   3. Hash audit. The word-wise FNV-1a bucket hash never certifies a
      hit on its own: the memo compares keys word for word. The audit
      checks the corpus of packed images for hash collisions between
      distinct word sequences (none expected at these sizes) and that
      word-equality implies hash-equality by construction.

   4. Memo semantics. The 2^16 cap actually evicts (live set stays
      bounded); hit/miss/intern counters are exact over a scripted
      composition sequence; compute exceptions are never cached; a
      raising [pack] falls back to uncached compute and counts as
      [memo_key_fallback]; [Memo.enabled = false] produces zero memo
      traffic while the certificate bundles stay byte-identical. *)

module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module PW = Lcp_interval.Pathwidth
module PLS = Lcp_pls
module S = PLS.Scheme
module Memo = Lcp_cert.Memo
module Registry = Lcp_service.Registry
module Bundle = Lcp_service.Bundle
module Bitenc = Lcp_util.Bitenc
module Packed = Lcp_util.Packed_state
module A = Lcp_algebra

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 500) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---------------------------------------------------------------- *)
(* random reachable states of an arbitrary algebra                   *)

module Rand_state (Alg : A.Algebra_sig.S) = struct
  (* a bounded random walk over the algebra's own operations; slots are
     drawn from a fresh counter so introduce never collides. Ops that
     reject their inputs (some algebras refuse e.g. matching a matched
     slot) are skipped, keeping the walk total over every algebra. *)
  let build rng ~base ~steps =
    let st = ref Alg.empty and live = ref [] and next = ref base in
    let fresh () =
      let s = !next in
      incr next;
      s
    in
    let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
    for _ = 1 to steps do
      match Random.State.int rng 8 with
      | 0 | 1 | 2 when List.length !live < 5 -> (
          let s = fresh () in
          match Alg.introduce !st s with
          | exception Invalid_argument _ -> ()
          | st' ->
              st := st';
              live := s :: !live)
      | 3 | 4 -> (
          match !live with
          | a :: rest when rest <> [] -> (
              let b = pick rest in
              match Alg.add_edge !st a b with
              | exception Invalid_argument _ -> ()
              | st' -> st := st')
          | _ -> ())
      | 5 -> (
          match !live with
          | s :: rest -> (
              match Alg.forget !st s with
              | exception Invalid_argument _ -> ()
              | st' ->
                  st := st';
                  live := rest)
          | [] -> ())
      | 6 -> (
          match !live with
          | s :: rest -> (
              let s' = fresh () in
              match Alg.rename !st ~old_slot:s ~new_slot:s' with
              | exception Invalid_argument _ -> ()
              | st' ->
                  st := st';
                  live := s' :: rest)
          | [] -> ())
      | _ -> (
          match !live with
          | keep :: rest when rest <> [] -> (
              let drop = pick rest in
              match Alg.identify !st ~keep ~drop with
              | exception Invalid_argument _ -> ()
              | st' ->
                  st := st';
                  live := List.filter (fun s -> s <> drop) !live)
          | _ -> ())
    done;
    (!st, !live)

  let gen rng =
    let st, _ = build rng ~base:0 ~steps:(3 + Random.State.int rng 15) in
    if Random.State.bool rng then st
    else
      (* exercise union: a second walk over a disjoint slot range *)
      let st2, _ = build rng ~base:100 ~steps:(2 + Random.State.int rng 8) in
      match Alg.union st st2 with
      | exception Invalid_argument _ -> st
      | u -> u

  let pack_words st =
    let buf = Packed.Buf.create 64 in
    Alg.pack buf st;
    Packed.Buf.contents buf

  let roundtrip st =
    let words = pack_words st in
    let c = Packed.cursor words in
    let st' = Alg.unpack c in
    (* exact consumption: concatenated packs must parse unambiguously *)
    c.Packed.pos = Array.length words
    && Alg.equal st st'
    (* re-packing the parsed state is word-identical *)
    && pack_words st' = words
end

let arb_seed =
  QCheck.make ~print:string_of_int (fun st -> Random.State.int st 1_000_000)

let roundtrip_case name (module Alg : A.Algebra_sig.S) ?(count = 500) () =
  let module R = Rand_state (Alg) in
  qcheck ~count
    (Printf.sprintf "%s: unpack (pack st) = st over random states" name)
    arb_seed
    (fun seed -> R.roundtrip (R.gen (Random.State.make [| seed; 77 |])))

module VC3 = A.Vertex_cover.Make (struct
  let budget = 3
end)

let suite_roundtrip =
  [
    roundtrip_case "connected" (module A.Connectivity) ();
    roundtrip_case "acyclic" (module A.Acyclicity) ();
    roundtrip_case "bipartite" (module A.Bipartite) ();
    roundtrip_case "triangle_free" (module A.Triangle_free) ();
    roundtrip_case "perfect_matching" (module A.Matching) ();
    (* combinator (Pair/And) and table-shaped coverage beyond the
       registered five *)
    roundtrip_case "is_path_graph" (module A.Combinators.Is_path_graph)
      ~count:300 ();
    roundtrip_case "vertex_cover<=3" (module VC3) ~count:300 ();
  ]

(* ---------------------------------------------------------------- *)
(* packed-memo compose vs the reference recomputation path           *)

module Compose_diff (Alg : A.Algebra_sig.S) = struct
  module C = Lcp_cert.Compose.Make (Alg)

  let enc st =
    let w = Bitenc.writer ~capacity:1024 () in
    Alg.encode w st;
    Bitenc.to_bytes w

  (* a random valid P-node interface over [lanes], terminals drawn from
     [vids] (distinct) *)
  let p_iface lanes vids =
    let t = List.map2 (fun l v -> (l, v)) lanes vids in
    { C.lanes; t_in = t; t_out = t }

  let rand_mask rng n = List.init n (fun _ -> Random.State.bool rng)

  let distinct_vids rng ~lo n =
    (* n distinct ids in increasing random gaps starting at lo *)
    let rec go acc v n =
      if n = 0 then List.rev acc
      else
        let v = v + 1 + Random.State.int rng 5 in
        go (v :: acc) v (n - 1)
    in
    go [] lo n

  (* one random parent (glue+forget) instance: the child's lanes are a
     subset of the parent's, child in-terminals equal the parent
     out-terminals on shared lanes *)
  let random_parent rng =
    let np = 1 + Random.State.int rng 4 in
    let plane = List.init np (fun i -> i) in
    let pvids = distinct_vids rng ~lo:0 np in
    let fp = p_iface plane pvids in
    let sp = C.p_state fp ~mask:(rand_mask rng (np - 1)) in
    let clane = List.filter (fun _ -> Random.State.bool rng) plane in
    let clane = if clane = [] then [ List.hd plane ] else clane in
    let cvids = List.map (fun l -> List.assoc l fp.C.t_out) clane in
    let fc = p_iface clane cvids in
    let sc = C.p_state fc ~mask:(rand_mask rng (List.length clane - 1)) in
    C.parent ~child:(sc, fc) ~parent:(sp, fp)

  (* one random bridge instance over disjoint lanes and vertex ids *)
  let random_bridge rng =
    let n1 = 1 + Random.State.int rng 3 and n2 = 1 + Random.State.int rng 3 in
    let l1 = List.init n1 (fun i -> i) in
    let l2 = List.init n2 (fun i -> n1 + i) in
    let v1 = distinct_vids rng ~lo:0 n1 in
    let v2 = distinct_vids rng ~lo:50 n2 in
    let f1 = p_iface l1 v1 and f2 = p_iface l2 v2 in
    let s1 = C.p_state f1 ~mask:(rand_mask rng (n1 - 1)) in
    let s2 = C.p_state f2 ~mask:(rand_mask rng (n2 - 1)) in
    let i = List.nth l1 (Random.State.int rng n1) in
    let j = List.nth l2 (Random.State.int rng n2) in
    C.bridge (s1, f1) (s2, f2) ~i ~j ~real:(Random.State.bool rng)

  let agree seed =
    let run on f =
      Memo.enabled := on;
      let r = f (Random.State.make [| seed; 13 |]) in
      Memo.enabled := true;
      r
    in
    let eq (st_on, f_on) (st_off, f_off) =
      Alg.equal st_on st_off && f_on = f_off && enc st_on = enc st_off
    in
    eq (run true random_parent) (run false random_parent)
    && eq (run true random_bridge) (run false random_bridge)
end

let compose_case name (module Alg : A.Algebra_sig.S) =
  let module D = Compose_diff (Alg) in
  qcheck ~count:500
    (Printf.sprintf "%s: memoized bridge/glue/forget = reference" name)
    arb_seed D.agree

let suite_compose =
  [
    compose_case "connected" (module A.Connectivity);
    compose_case "acyclic" (module A.Acyclicity);
    compose_case "bipartite" (module A.Bipartite);
    compose_case "triangle_free" (module A.Triangle_free);
    compose_case "perfect_matching" (module A.Matching);
  ]

(* ---------------------------------------------------------------- *)
(* hash audit: hash-equal must mean word-equal on the test corpus     *)

let hash_audit () =
  let seen : (int, int array) Hashtbl.t = Hashtbl.create 4096 in
  let collisions = ref 0 and keys = ref 0 in
  let audit (type s) (module Alg : A.Algebra_sig.S with type state = s) =
    let module R = Rand_state (Alg) in
    let rng = Random.State.make [| 2025; 8 |] in
    for _ = 1 to 1000 do
      let words = R.pack_words (R.gen rng) in
      let h = Packed.hash_words words ~len:(Array.length words) in
      incr keys;
      match Hashtbl.find_opt seen h with
      | None -> Hashtbl.replace seen h words
      | Some w' -> if w' <> words then incr collisions
    done
  in
  audit (module A.Connectivity);
  audit (module A.Acyclicity);
  audit (module A.Bipartite);
  audit (module A.Triangle_free);
  audit (module A.Matching);
  check "corpus is non-trivial" true (!keys = 5000);
  (* a 63-bit FNV over <= a few thousand keys: any collision between
     distinct word sequences would be astonishing — and harmless for
     soundness (the memo compares words), so this is a canary, not a
     soundness condition *)
  check_int "no distinct-word hash collisions in corpus" 0 !collisions;
  (* word-equal => hash-equal, and the arena hash matches the array
     hash (Buf.data exposes a larger backing array; len must bound it) *)
  let module R = Rand_state (A.Connectivity) in
  let rng = Random.State.make [| 4; 4 |] in
  for _ = 1 to 100 do
    let st = R.gen rng in
    let words = R.pack_words st in
    let buf = Packed.Buf.create 4 in
    A.Connectivity.pack buf st;
    check "Buf hash = contents hash" true
      (Packed.hash buf = Packed.hash_words words ~len:(Array.length words))
  done

(* ---------------------------------------------------------------- *)
(* memo semantics                                                    *)

let cap_eviction () =
  let module C = Lcp_cert.Compose.Make (A.Connectivity) in
  Memo.enabled := true;
  Memo.reset_counters ();
  let rounds = Memo.max_entries + 2048 in
  let max_seen = ref 0 in
  for i = 0 to rounds - 1 do
    let a = 2 * i and b = (2 * i) + 1 in
    let fa = { C.lanes = [ 0 ]; t_in = [ (0, a) ]; t_out = [ (0, a) ] } in
    let fb = { C.lanes = [ 1 ]; t_in = [ (1, b) ]; t_out = [ (1, b) ] } in
    let sa = C.v_state fa and sb = C.v_state fb in
    ignore (C.bridge (sa, fa) (sb, fb) ~i:0 ~j:1 ~real:true);
    let sz = C.memo_table_size () in
    if sz > !max_seen then max_seen := sz
  done;
  (* the live set stayed bounded by the cap the whole time *)
  check "memo live set bounded by cap" true (!max_seen <= Memo.max_entries);
  (* and the cap actually evicted: more distinct keys were inserted
     than the table ever held, and the survivor set is the post-reset
     remainder, not the full history *)
  check_int "every distinct bridge missed" rounds !Memo.misses;
  check "eviction happened" true (C.memo_table_size () < rounds);
  check_int "post-reset remainder" (rounds - Memo.max_entries)
    (C.memo_table_size ());
  check "intern table bounded too" true
    (C.intern_table_size () <= Memo.max_entries)

let scripted_counters () =
  let module C = Lcp_cert.Compose.Make (A.Connectivity) in
  Memo.enabled := true;
  Memo.reset_counters ();
  let fa = { C.lanes = [ 0 ]; t_in = [ (0, 10) ]; t_out = [ (0, 10) ] } in
  let fe = { C.lanes = [ 1 ]; t_in = [ (1, 1) ]; t_out = [ (1, 2) ] } in
  let sa = C.v_state fa in (* intern miss 1 *)
  let sa' = C.v_state fa in (* intern hit 1 *)
  check "intern returns the cached representative" true (sa == sa');
  let se = C.e_state fe ~real:true in (* intern miss 2 *)
  let b1 = C.bridge (sa, fa) (se, fe) ~i:0 ~j:1 ~real:false in
  (* memo miss 1 (bridge) *)
  let b2 = C.bridge (sa, fa) (se, fe) ~i:0 ~j:1 ~real:false in
  (* memo hit 1; cached state is physically shared *)
  check "bridge hit is physically shared" true (fst b1 == fst b2);
  let fc = snd b1 in
  let fp =
    {
      C.lanes = [ 0; 1 ];
      t_in = [ (0, 10); (1, 2) ];
      t_out = [ (0, 10); (1, 2) ];
    }
  in
  let sp = C.p_state fp ~mask:[ false ] in (* intern miss 3 *)
  let p1 = C.parent ~child:(sp, fp) ~parent:(fst b1, fc) in
  (* memo miss 2 (glue) + miss 3 (forget) *)
  let p2 = C.parent ~child:(sp, fp) ~parent:(fst b1, fc) in
  (* memo hits 2 and 3 *)
  check "parent hit is physically shared" true (fst p1 == fst p2);
  let expect =
    [
      ("memo_hit", 3);
      ("memo_miss", 3);
      ("intern_hit", 1);
      ("intern_miss", 3);
      ("memo_key_fallback", 0);
    ]
  in
  List.iter
    (fun (name, v) ->
      check_int ("scripted sequence: " ^ name) v
        (List.assoc name (Memo.counters ())))
    expect

let exceptions_never_cached () =
  let module C = Lcp_cert.Compose.Make (A.Connectivity) in
  Memo.enabled := true;
  Memo.reset_counters ();
  (* both parts claim vertex 5: the ifaces pass the lane checks, but
     A.union inside the memoized compute raises on the slot clash *)
  let f1 = { C.lanes = [ 0 ]; t_in = [ (0, 5) ]; t_out = [ (0, 5) ] } in
  let f2 = { C.lanes = [ 1 ]; t_in = [ (1, 5) ]; t_out = [ (1, 5) ] } in
  let s = C.v_state f1 in
  let boom () =
    match C.bridge (s, f1) (s, f2) ~i:0 ~j:1 ~real:false with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check "first compute raises" true (boom ());
  check "second compute raises again (not cached)" true (boom ());
  check_int "both were misses" 2 !Memo.misses;
  check_int "no hits" 0 !Memo.hits

(* a deliberately broken algebra: pack always raises. The memo must
   fall back to uncached computes, count them, and stay correct. *)
module Broken : A.Algebra_sig.S with type state = A.Connectivity.state = struct
  include A.Connectivity

  let pack _ _ = failwith "broken pack"
end

let key_fallback_counted () =
  let module C = Lcp_cert.Compose.Make (Broken) in
  Memo.enabled := true;
  Memo.reset_counters ();
  let fa = { C.lanes = [ 0 ]; t_in = [ (0, 3) ]; t_out = [ (0, 3) ] } in
  let fb = { C.lanes = [ 1 ]; t_in = [ (1, 4) ]; t_out = [ (1, 4) ] } in
  let sa = C.v_state fa and sb = C.v_state fb in
  let st1, _ = C.bridge (sa, fa) (sb, fb) ~i:0 ~j:1 ~real:true in
  let st2, _ = C.bridge (sa, fa) (sb, fb) ~i:0 ~j:1 ~real:true in
  check "fallback still computes the right class" true
    (Broken.equal st1 st2);
  (* 2 v_state interns + 2 bridges, all key-fallback; no memo traffic *)
  check_int "fallbacks counted" 4 (List.assoc "memo_key_fallback" (Memo.counters ()));
  check_int "no memo hits" 0 !Memo.hits;
  check_int "no memo misses" 0 !Memo.misses;
  check_int "fallback exported name" 4
    (List.assoc "memo_key_fallback" (Memo.counters ()))

(* ---------------------------------------------------------------- *)
(* memo on/off: byte-identical bundles for all registered properties *)

let families =
  [
    ("path10", Gen.path 10);
    ("cycle12", Gen.cycle 12);
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
      Some (bundle, S.run_edge cfg scheme labels = S.Accepted)

let bundles_identical () =
  List.iter
    (fun name ->
      let prop = Option.get (Registry.find name) in
      List.iter
        (fun (fname, g) ->
          Memo.enabled := false;
          Memo.reset_counters ();
          let off = prove_bundle prop g in
          check_int
            (name ^ "/" ^ fname ^ ": zero memo traffic when disabled")
            0
            (!Memo.hits + !Memo.misses + !Memo.intern_hits
           + !Memo.intern_misses);
          Memo.enabled := true;
          let on = prove_bundle prop g in
          match (off, on) with
          | None, None -> ()
          | Some (b_off, ok_off), Some (b_on, ok_on) ->
              check (name ^ "/" ^ fname ^ ": bundles byte-identical") true
                (Bundle.equal b_off b_on);
              check (name ^ "/" ^ fname ^ ": verdicts identical") true
                (ok_off = ok_on)
          | _ ->
              Alcotest.failf "%s/%s: memo changed the prover's decision" name
                fname)
        families)
    (Registry.names ())

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

let suite_memo =
  [
    test "cap eviction at 2^16 keeps the live set bounded" cap_eviction;
    test "scripted sequence: exact hit/miss/intern counters"
      scripted_counters;
    test "compute exceptions are never cached" exceptions_never_cached;
    test "raising pack falls back uncached and is counted"
      key_fallback_counted;
    test "memo on/off: byte-identical bundles, all registered properties"
      bundles_identical;
  ]

let () =
  Alcotest.run "lcp-packed"
    [
      ("roundtrip", suite_roundtrip);
      ("compose-diff", suite_compose);
      ("hash-audit", [ test "hash-equal => word-equal over corpus" hash_audit ]);
      ("memo-semantics", suite_memo);
      ("group-memo", suite_group);
      ("view-memo", suite_view);
    ]
