(* The experiment harness: regenerates every quantitative claim of the
   paper (see EXPERIMENTS.md for the claim-by-claim index).

     E1  label size vs n      — Theorem 1 O(log n) vs FMR O(log² n) vs the
                                universal scheme (Θ((n+m) log n))
     E2  Prop 4.6 bounds      — lanes ≤ f(w), congestion ≤ g/h(w)
     E3  Obs 5.5 bounds       — hierarchy depth and edge congestion ≤ 2k
     E5  soundness            — mutation detection rates
     E6  property catalogue   — certify + verify across MSO₂ properties
     E7  ablation             — Prop 4.6 partition vs greedy Obs 4.3
     E8 (service)             — batch throughput through the certification
                                service: cold vs warm certificate cache
     E9 (recovery)            — crash-safety campaign against the storage
                                layer: torn writes at every byte offset of
                                every record, bit rot, ENOSPC degradation,
                                and crash points with reopen-and-recover
     timing                   — bechamel micro-benchmarks (prover, verifier,
                                baseline; one Test.make per reported table)

     E12 (chaos)              — the persistent daemon under concurrent
                                fault-injected clients: admission
                                backpressure, worker crash/respawn,
                                degraded-mode serving, clean SIGTERM drain

     E13 (incr)               — incremental re-certification of edit
                                streams (transplant + store hits + view
                                memo) vs full reproof per step

   Usage: main.exe [e1|e2|e3|e5|e6|e7|faults|service|recovery|chaos|timing|incr|all]
   (default: all; `chaos quick` / `scale quick` / `incr quick` shrink for CI). *)

module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module Rep = Lcp_interval.Representation
module PW = Lcp_interval.Pathwidth
module B = Lcp_lanes.Bounds
module LC = Lcp_lanes.Low_congestion
module H = Lcp_lanewidth.Hierarchy
module Tr = Lcp_lanewidth.Trace
module Bld = Lcp_lanewidth.Builder
module PLS = Lcp_pls
module S = PLS.Scheme
module EM = S.Edge_map
module A = Lcp_algebra
module Cert = Lcp_cert.Certificate

module T1conn = Lcp_cert.Theorem1.Make (A.Connectivity)
module T1acy = Lcp_cert.Theorem1.Make (A.Acyclicity)
module T1bip = Lcp_cert.Theorem1.Make (A.Bipartite)
module T1path = Lcp_cert.Theorem1.Make (A.Combinators.Is_path_graph)
module T1cyc = Lcp_cert.Theorem1.Make (A.Combinators.Is_cycle_graph)
module T1tri = Lcp_cert.Theorem1.Make (A.Triangle_free)
module T1pm = Lcp_cert.Theorem1.Make (A.Matching)
module T1ham = Lcp_cert.Theorem1.Make (A.Hamiltonian.Path_alg)
module Fconn = Lcp_cert.Baseline_fmr.Make (A.Connectivity)

let rng = Random.State.make [| 20250705 |]
let log2 x = log (float_of_int x) /. log 2.0
let line () = print_endline (String.make 78 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* E1: label size as a function of n                                    *)

let e1 () =
  header
    "E1  Proof size vs n  (Theorem 1 claim: O(log n); FMR+24 baseline: \
     O(log^2 n))";
  Printf.printf
    "family=path (pw 1), property=connectivity; bits = max label length\n\n";
  Printf.printf "%8s %12s %14s %12s %14s %12s\n" "n" "T1 bits" "T1/log2(n)"
    "FMR bits" "FMR/log2^2(n)" "universal";
  let universal =
    PLS.Universal.scheme ~name:"universal" ~property:(fun _ -> true)
  in
  let heur c =
    Some (PW.heuristic_interval_representation (PLS.Config.graph c))
  in
  List.iter
    (fun n ->
      let g = Gen.path n in
      let cfg = PLS.Config.make g in
      let t1 = T1conn.edge_scheme ~rep:heur ~k:1 () in
      let t1_bits = S.max_edge_label_bits t1 (Option.get (t1.S.es_prove cfg)) in
      let fmr = Fconn.scheme ~rep:heur ~k:1 () in
      let fmr_bits =
        S.max_vertex_label_bits fmr (Option.get (fmr.S.vs_prove cfg))
      in
      let uni_bits =
        S.max_vertex_label_bits universal
          (Option.get (universal.S.vs_prove cfg))
      in
      Printf.printf "%8d %12d %14.1f %12d %14.1f %12d\n" n t1_bits
        (float_of_int t1_bits /. log2 n)
        fmr_bits
        (float_of_int fmr_bits /. (log2 n *. log2 n))
        uni_bits)
    [ 16; 32; 64; 128; 256; 512; 1024; 2048 ];
  Printf.printf
    "\nShape check: T1/log2(n) must flatten (O(log n)); FMR/log2^2(n) must\n\
     flatten (O(log^2 n)); the universal column grows superlinearly.\n\n";
  Printf.printf "family=cycle (pw 2), property=connectivity\n\n";
  Printf.printf "%8s %12s %14s %12s %14s\n" "n" "T1 bits" "T1/log2(n)"
    "FMR bits" "FMR/log2^2(n)";
  List.iter
    (fun n ->
      let g = Gen.cycle n in
      let cfg = PLS.Config.make g in
      let t1 = T1conn.edge_scheme ~rep:heur ~k:2 () in
      let t1_bits = S.max_edge_label_bits t1 (Option.get (t1.S.es_prove cfg)) in
      let fmr = Fconn.scheme ~rep:heur ~k:2 () in
      let fmr_bits =
        S.max_vertex_label_bits fmr (Option.get (fmr.S.vs_prove cfg))
      in
      Printf.printf "%8d %12d %14.1f %12d %14.1f\n" n t1_bits
        (float_of_int t1_bits /. log2 n)
        fmr_bits
        (float_of_int fmr_bits /. (log2 n *. log2 n)))
    [ 16; 32; 64; 128; 256; 512 ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E2: the Prop 4.6 bounds                                              *)

let e2 () =
  header "E2  Prop 4.6: lanes <= f(w), congestion <= g(w)/h(w)";
  Printf.printf "%4s %6s | %10s %8s | %10s %8s | %10s %8s\n" "k" "width"
    "lanes(max)" "f(w)" "weak(max)" "g(w)" "full(max)" "h(w)";
  List.iter
    (fun k ->
      let trials = 40 in
      let max_lanes = ref 0 and max_weak = ref 0 and max_full = ref 0 in
      let max_w = ref 0 in
      for _ = 1 to trials do
        let n = 60 + Random.State.int rng 120 in
        let g, ivs = Gen.random_pathwidth rng ~n ~k () in
        let rep = Rep.of_pairs g ivs in
        let w = Rep.width rep in
        max_w := max !max_w w;
        let r = LC.construct rep in
        max_lanes := max !max_lanes (LC.lane_count r);
        max_weak := max !max_weak (LC.congestion_weak r);
        max_full := max !max_full (LC.congestion_full r)
      done;
      let w = !max_w in
      Printf.printf "%4d %6d | %10d %8d | %10d %8d | %10d %8d\n" k w !max_lanes
        (B.f w) !max_weak (B.g w) !max_full (B.h w))
    [ 1; 2; 3; 4 ];
  Printf.printf
    "\nEvery measured column must stay within its bound column (the paper\n\
     proves worst cases; measured values are typically far below).\n\n"

(* ------------------------------------------------------------------ *)
(* E3: Obs 5.5                                                          *)

let e3 () =
  header "E3  Obs 5.5: hierarchical decompositions have depth <= 2k";
  Printf.printf "%4s | %10s %8s | %12s %8s\n" "k" "depth(max)" "2k"
    "edge-cong." "2k";
  List.iter
    (fun k ->
      let max_depth = ref 0 and max_cong = ref 0 in
      for _ = 1 to 60 do
        let tr = Tr.random rng ~k ~ops:(40 + Random.State.int rng 80) in
        let h = Bld.of_trace tr in
        max_depth := max !max_depth (H.depth h);
        max_cong := max !max_cong (H.edge_congestion h)
      done;
      Printf.printf "%4d | %10d %8d | %12d %8d\n" k !max_depth (2 * k)
        !max_cong (2 * k))
    [ 1; 2; 3; 4; 5; 6 ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E5: soundness under mutation                                         *)

let e5 () =
  header "E5  Soundness: corrupted certificates must be rejected somewhere";
  let kinds =
    [ "stack swap"; "transport drop"; "rank shift"; "pointer"; "truncate" ]
  in
  let attempts = Hashtbl.create 8 and caught = Hashtbl.create 8 in
  List.iter
    (fun k ->
      Hashtbl.replace attempts k 0;
      Hashtbl.replace caught k 0)
    kinds;
  let bump tbl k = Hashtbl.replace tbl k (Hashtbl.find tbl k + 1) in
  for _ = 1 to 25 do
    let k = 1 + Random.State.int rng 2 in
    let n = 8 + Random.State.int rng 30 in
    let g, ivs = Gen.random_pathwidth rng ~n ~k () in
    let cfg = PLS.Config.random_ids rng g in
    let rep = Rep.of_pairs g ivs in
    let scheme = T1conn.edge_scheme ~rep:(fun _ -> Some rep) ~k () in
    match scheme.S.es_prove cfg with
    | None -> ()
    | Some labels ->
        let edges = List.map fst (EM.bindings labels) in
        let pick () =
          List.nth edges (Random.State.int rng (List.length edges))
        in
        let try_mut kind forged =
          bump attempts kind;
          if not (S.accepted (S.run_edge cfg scheme forged)) then
            bump caught kind
        in
        let e1 = pick () and e2 = pick () in
        let l1 = Option.get (EM.find labels e1) in
        let l2 = Option.get (EM.find labels e2) in
        if e1 <> e2 && l1.Cert.frames <> l2.Cert.frames then
          try_mut "stack swap"
            (EM.add
               (EM.add labels e1 { l1 with Cert.frames = l2.Cert.frames })
               e2
               { l2 with Cert.frames = l1.Cert.frames });
        let e = pick () in
        let l = Option.get (EM.find labels e) in
        if l.Cert.transported <> [] then
          try_mut "transport drop"
            (EM.add labels e { l with Cert.transported = [] });
        let e = pick () in
        let l = Option.get (EM.find labels e) in
        (match l.Cert.transported with
        | r :: rest ->
            try_mut "rank shift"
              (EM.add labels e
                 {
                   l with
                   Cert.transported =
                     { r with Cert.rank_fwd = r.Cert.rank_fwd + 1 } :: rest;
                 })
        | [] -> ());
        let e = pick () in
        let l = Option.get (EM.find labels e) in
        try_mut "pointer"
          (EM.add labels e
             {
               l with
               Cert.global_ptr =
                 {
                   l.Cert.global_ptr with
                   PLS.Spanning_tree.target =
                     l.Cert.global_ptr.PLS.Spanning_tree.target + 1;
                 };
             });
        let e = pick () in
        let l = Option.get (EM.find labels e) in
        (match l.Cert.frames with
        | _ :: (_ :: _ as rest) ->
            try_mut "truncate" (EM.add labels e { l with Cert.frames = rest })
        | _ -> ())
  done;
  Printf.printf "%-16s %10s %10s %10s\n" "mutation" "attempts" "caught" "rate";
  List.iter
    (fun k ->
      let a = Hashtbl.find attempts k and c = Hashtbl.find caught k in
      Printf.printf "%-16s %10d %10d %9.0f%%\n" k a c
        (if a = 0 then 100.0 else 100.0 *. float_of_int c /. float_of_int a))
    kinds;
  (* bit-level corruption: flip one bit of a real encoded label *)
  let module B = Lcp_util.Bitenc in
  let dfail = ref 0 and rej = ref 0 and acc = ref 0 in
  for _ = 1 to 15 do
    let k = 1 + Random.State.int rng 2 in
    let n = 8 + Random.State.int rng 25 in
    let g, ivs = Gen.random_pathwidth rng ~n ~k () in
    let cfg = PLS.Config.random_ids rng g in
    let rep = Rep.of_pairs g ivs in
    let scheme = T1conn.edge_scheme ~rep:(fun _ -> Some rep) ~k () in
    match scheme.S.es_prove cfg with
    | None -> ()
    | Some labels ->
        let edges = List.map fst (EM.bindings labels) in
        for _ = 1 to 4 do
          let e = List.nth edges (Random.State.int rng (List.length edges)) in
          let l = Option.get (EM.find labels e) in
          let w = B.writer () in
          Cert.encode ~encode_state:A.Connectivity.encode w l;
          let bits = B.length_bits w in
          let bytes = B.to_bytes w in
          B.flip_bit bytes (Random.State.int rng bits);
          match
            try
              Some
                (Cert.decode ~decode_state:A.Connectivity.decode
                   (B.reader bytes))
            with _ -> None
          with
          | None -> incr dfail
          | Some l' when l' = l -> ()
          | Some l' -> (
              match S.run_edge cfg scheme (EM.add labels e l') with
              | S.Accepted -> incr acc
              | S.Rejected _ -> incr rej)
        done
  done;
  Printf.printf "%-16s %10d %10d %9.0f%%   (+%d broke decoding)\n" "bit flip"
    (!dfail + !rej + !acc)
    (!dfail + !rej)
    (100.0
    *. float_of_int (!dfail + !rej)
    /. float_of_int (max 1 (!dfail + !rej + !acc)))
    !dfail;
  Printf.printf "\nEvery rate must be 100%% (soundness).\n\n"

(* ------------------------------------------------------------------ *)
(* E6: the property catalogue                                           *)

let e6 () =
  header
    "E6  MSO2 catalogue: certify positive instances, decline negative ones";
  Printf.printf "%-18s %-16s %-10s %-10s %10s\n" "property" "instance"
    "expected" "outcome" "bits";
  let row name scheme g expected =
    let cfg = PLS.Config.random_ids rng g in
    match scheme.S.es_prove cfg with
    | None ->
        Printf.printf "%-18s %-16s %-10s %-10s %10s\n" name
          (Printf.sprintf "n=%d m=%d" (G.n g) (G.m g))
          expected "declined" "-"
    | Some labels ->
        let ok = S.accepted (S.run_edge cfg scheme labels) in
        Printf.printf "%-18s %-16s %-10s %-10s %10d\n" name
          (Printf.sprintf "n=%d m=%d" (G.n g) (G.m g))
          expected
          (if ok then "accepted" else "REJECTED")
          (S.max_edge_label_bits scheme labels)
  in
  row "connected" (T1conn.edge_scheme ~k:2 ()) (Gen.cycle 16) "accepted";
  row "acyclic" (T1acy.edge_scheme ~k:1 ()) (Gen.caterpillar ~spine:5 ~legs:2)
    "accepted";
  row "acyclic" (T1acy.edge_scheme ~k:2 ()) (Gen.cycle 12) "declined";
  row "bipartite" (T1bip.edge_scheme ~k:2 ()) (Gen.cycle 12) "accepted";
  row "bipartite" (T1bip.edge_scheme ~k:2 ()) (Gen.cycle 11) "declined";
  row "is_path" (T1path.edge_scheme ~k:1 ()) (Gen.path 16) "accepted";
  row "is_path" (T1path.edge_scheme ~k:2 ()) (Gen.cycle 16) "declined";
  row "is_cycle" (T1cyc.edge_scheme ~k:2 ()) (Gen.cycle 16) "accepted";
  row "is_cycle" (T1cyc.edge_scheme ~k:1 ()) (Gen.path 16) "declined";
  row "triangle_free" (T1tri.edge_scheme ~k:2 ()) (Gen.cycle 14) "accepted";
  row "triangle_free" (T1tri.edge_scheme ~k:3 ()) (Gen.complete 4) "declined";
  row "perfect_matching" (T1pm.edge_scheme ~k:1 ()) (Gen.path 12) "accepted";
  row "perfect_matching" (T1pm.edge_scheme ~k:1 ()) (Gen.path 11) "declined";
  row "hamiltonian_path" (T1ham.edge_scheme ~k:2 ()) (Gen.cycle 10) "accepted";
  row "hamiltonian_path" (T1ham.edge_scheme ~k:1 ()) (Gen.star 5) "declined";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* FAULTS: the adversarial soundness campaign (the systematic version of
   E5's spot checks — see lib/core/faultsim.ml and EXPERIMENTS.md §E5)   *)

let faults () =
  header
    "FAULTS  adversarial soundness campaign (scheme x fault model, seeded)";
  let report = Lcp_cert.Faultsim.run ~seed:20250806 ~trials:30 () in
  Lcp_cert.Faultsim.print_matrix report;
  print_newline ();
  if report.Lcp_cert.Faultsim.total_escapes > 0 then begin
    Printf.eprintf "FAULTS: %d soundness escape(s) — see the matrix above\n"
      report.Lcp_cert.Faultsim.total_escapes;
    exit 1
  end
  else Printf.printf "No soundness escapes: every effective fault detected.\n\n"

(* ------------------------------------------------------------------ *)
(* E7: ablation — Prop 4.6 vs greedy lane partition                     *)

let e7 () =
  header
    "E7  Ablation: Prop 4.6 partition (guaranteed congestion) vs greedy \
     Obs 4.3 partition";
  Printf.printf "%4s | %10s %10s | %12s %12s | %12s %12s\n" "k" "lanes(46)"
    "lanes(gr)" "cong(46)" "cong(gr)" "bits(46)" "bits(gr)";
  List.iter
    (fun k ->
      let lanes46 = ref 0 and lanesgr = ref 0 in
      let cong46 = ref 0 and conggr = ref 0 in
      let bits46 = ref 0 and bitsgr = ref 0 in
      for _ = 1 to 12 do
        let n = 80 + Random.State.int rng 60 in
        let g, ivs = Gen.random_pathwidth rng ~n ~k () in
        let cfg = PLS.Config.random_ids rng g in
        let rep = Rep.of_pairs g ivs in
        List.iter
          (fun (strategy, lanes, cong, bits) ->
            match T1conn.P.prepare ~strategy ~rep cfg with
            | Error _ -> ()
            | Ok art ->
                lanes := max !lanes art.T1conn.P.lane_count;
                cong := max !cong art.T1conn.P.congestion;
                let scheme = T1conn.edge_scheme ~k () in
                bits :=
                  max !bits (S.max_edge_label_bits scheme art.T1conn.P.labels))
          [
            (`Prop46, lanes46, cong46, bits46);
            (`Greedy, lanesgr, conggr, bitsgr);
          ]
      done;
      Printf.printf "%4d | %10d %10d | %12d %12d | %12d %12d\n" k !lanes46
        !lanesgr !cong46 !conggr !bits46 !bitsgr)
    [ 1; 2; 3 ];
  Printf.printf
    "\nGreedy uses fewer lanes (cheaper DP states, smaller labels) but its\n\
     congestion is unbounded in theory; Prop 4.6 trades label size for the\n\
     worst-case guarantee the O(log n) proof needs.\n\n"

(* ------------------------------------------------------------------ *)
(* SERVICE: batch throughput through the certification service          *)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* an empty scratch directory lcp_<name>_<pid> in the temp dir *)
let fresh_dir name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp_%s_%d" name (Unix.getpid ()))
  in
  rm_rf d;
  Sys.mkdir d 0o755;
  d

(* [f] over a fresh_dir, removed however [f] returns *)
let with_dir name f =
  let d = fresh_dir name in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* the shared service workload: [size] (graph, property, k) instances
   with distinct generator seeds, sized so that proving runs the exact
   interval-representation DP (n <= 20) — the expensive stage a warm
   cache skips. Trees are the workhorse positive instance for acyclic /
   bipartite / triangle_free, and three jobs come from real graph files
   so the sweep also exercises the I/O layer. Two seeds may still
   produce the same graph; content addressing detects that as a
   cold-pass hit. Writes the graph files and the manifest into [dir]
   (also the manifest base dir) and returns the parsed jobs. Used by
   both [service] (cold/warm sweep) and [scale] (E10 pool sweep). *)
let build_corpus ~size dir =
  let module Svc = Lcp_service in
  let file name fmt g =
    match Svc.Graph_io.save_file (Filename.concat dir name) g with
    | Ok () -> ignore fmt
    | Error e -> failwith e
  in
  file "c14.g6" `G6 (Gen.cycle 14);
  file "p16.dimacs" `Dimacs (Gen.path 16);
  file "l8.adj" `Adj (Gen.ladder 8);
  (* band boundaries scale with [size] so any corpus size keeps the
     same property mix as the canonical 200-job corpus *)
  let at frac = frac * size / 200 in
  let jobs =
    List.init size (fun i ->
        let n = 14 + (i mod 7) in
        match i with
        | i when i = at 50 -> "id=f50 file=c14.g6 property=connected k=2"
        | i when i = at 100 ->
            "id=f100 file=p16.dimacs property=perfect_matching k=1"
        | i when i = at 150 -> "id=f150 file=l8.adj property=bipartite k=2"
        | i when i < at 60 || i >= at 198 ->
            Printf.sprintf
              "id=g%d gen=random n=%d gseed=%d property=connected k=%d" i n i
              (1 + (i mod 2))
        | i when i < at 110 ->
            Printf.sprintf "id=g%d gen=tree n=%d gseed=%d property=acyclic k=3"
              i n i
        | i when i < at 150 ->
            Printf.sprintf
              "id=g%d gen=tree n=%d gseed=%d property=bipartite k=3" i n
              (1000 + i)
        | i when i < at 190 ->
            Printf.sprintf
              "id=g%d gen=tree n=%d gseed=%d property=triangle_free k=3" i n
              (2000 + i)
        | i ->
            Printf.sprintf
              "id=g%d gen=path n=%d property=perfect_matching k=%d" i
              (10 + (2 * ((i - at 190) mod 4)))
              (1 + ((i - at 190) / 4)))
  in
  let manifest_path = Filename.concat dir "corpus.manifest" in
  let oc = open_out manifest_path in
  List.iter (fun l -> output_string oc (l ^ "\n")) jobs;
  close_out oc;
  match Svc.Manifest.load_file manifest_path with
  | Ok jobs -> jobs
  | Error e -> failwith e

let service () =
  header
    "SERVICE  batch throughput: cold vs warm certificate cache (200-job \
     corpus)";
  let module Svc = Lcp_service in
  let fail =
    with_dir "service_bench" @@ fun dir ->
    let jobs = build_corpus ~size:200 dir in
    let engine = Svc.Engine.create ~cache_cap:1024 ~base_dir:dir () in
    let pass name =
      let reports, summary = Svc.Engine.run_jobs engine jobs in
      Printf.printf "%s pass:\n" name;
      Format.printf "  %a@." Svc.Stats.pp_summary summary;
      (reports, summary)
    in
    let _, cold = pass "cold" in
    let _, warm = pass "warm" in
    Format.printf "store: %a@." Svc.Cert_store.pp_stats
      (Svc.Cert_store.stats (Svc.Engine.store engine));
    let speedup = cold.Svc.Stats.s_total_ms /. warm.Svc.Stats.s_total_ms in
    Printf.printf
      "\nthroughput: cold %.1f jobs/sec, warm %.1f jobs/sec  (speedup %.1fx)\n"
      cold.Svc.Stats.s_jobs_per_sec warm.Svc.Stats.s_jobs_per_sec speedup;
    let fail = ref [] in
    let check cond msg = if not cond then fail := msg :: !fail in
    check
      (cold.Svc.Stats.s_served = cold.Svc.Stats.s_jobs)
      "cold pass: not every job was served";
    check
      (cold.Svc.Stats.s_unsound = 0 && warm.Svc.Stats.s_unsound = 0)
      "a served bundle failed local re-verification";
    check
      (warm.Svc.Stats.s_cached = warm.Svc.Stats.s_served
      && warm.Svc.Stats.s_served = warm.Svc.Stats.s_jobs)
      "warm pass: cache hit rate below 100%";
    check (speedup >= 5.0) "warm-cache speedup below 5x";
    !fail
  in
  if fail <> [] then begin
    List.iter (fun m -> Printf.eprintf "SERVICE: FAIL — %s\n" m) fail;
    exit 1
  end
  else
    Printf.printf
      "All checks hold: 100%% warm hit rate, every served bundle locally \
       re-verified, speedup >= 5x.\n\n"

(* ------------------------------------------------------------------ *)
(* SCALE: E10 — sharded pool speedup + determinism sweep over --jobs N  *)

(* `bench scale` sweeps the pool over N workers on the service corpus
   and holds two different kinds of result to two different standards:
   - determinism is asserted unconditionally and hard: every N must
     produce byte-identical canonical stats and an identical disk-tier
     snapshot. A violation is a sharding bug, never an artifact of the
     host.
   - speedup is asserted only when the host can physically provide it:
     on a box with < 4 cores the N=4 wall-clock target is unreachable
     by construction (fork adds overhead, removes no work), so the
     sweep records the honest numbers and says why the assertion was
     skipped rather than encoding a vacuously green or always-red
     check. `scale quick` shrinks the corpus and the sweep for CI. *)
(* ------------------------------------------------------------------ *)
(* SCALE E16: million-job streaming corpus                             *)

(* peak resident set (kB) from the kernel's accounting; None off-Linux *)
let read_vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> None
            | l -> (
                match Scanf.sscanf_opt l "VmHWM: %d kB" (fun k -> k) with
                | Some k -> Some k
                | None -> go ())
          in
          go ())

let parse_scale_baseline file =
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let key = "\"jobs_per_sec\":" in
      let klen = String.length key in
      let rec find i =
        if i + klen > String.length s then None
        else if String.sub s i klen = key then Some (i + klen)
        else find (i + 1)
      in
      Option.bind (find 0) (fun i ->
          let j = ref i in
          while
            !j < String.length s
            && (match s.[!j] with
               | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' | ' ' -> true
               | _ -> false)
          do
            incr j
          done;
          float_of_string_opt (String.trim (String.sub s i (!j - i))))

(* The E16 campaign. [quick] is the check.sh tier (10^4 jobs, seconds);
   full replays >= 10^6 jobs and takes minutes. [update] rewrites the
   committed BENCH_SCALE.json throughput baseline. Returns the failure
   list so [scale] can merge it with E10's. *)
let e16_stream ~quick ~update =
  let module Svc = Lcp_service in
  let total = if quick then 10_000 else 1_000_000 in
  header
    (Printf.sprintf
       "SCALE  E16: streaming corpus — %d jobs, constant memory, Zipf \
        replay, negative-lookup filter, group commit"
       total)
  ;
  with_dir "e16_bench" @@ fun dir ->
  let fail = ref [] in
  let check cond msg = if not cond then fail := msg :: !fail in
  (* -- a) sustained throughput, N=1, fixed heap ------------------- *)
  (* The workload generator and the streaming driver are both O(1) per
     job; the only state allowed to grow is the bounded store (LRU cap
     + dirty set). The heap assertion is on top_heap_words GROWTH over
     the replay: materializing the 10^6-job corpus as a report list
     (100+ words each, 100M+ total) trips it by an order of magnitude.
     The full-mode budget leaves headroom for major-heap churn from
     ~400k disk-tier round trips (measured ~24M words at 10^6 jobs);
     quick mode stays under a tenth of its budget. *)
  let heap_budget = if quick then 8_000_000 else 48_000_000 in
  let spec = { Svc.Workload.default with total; mix = Svc.Workload.Light } in
  Printf.printf "workload: %s\n" (Svc.Workload.to_string spec);
  let cache = Filename.concat dir "cache_head" in
  let timing = Svc.Timing.create () in
  let make_engine wt =
    Svc.Engine.create ~cache_cap:4096 ~cache_dir:cache ~base_dir:dir
      ~write_batch:64 ?timing:wt ()
  in
  let heap0 = (Gc.quick_stat ()).Gc.top_heap_words in
  let served = ref 0 and errors = ref 0 in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Svc.Pool.run_stream
      ~emit:(fun r ->
        match r.Svc.Stats.r_status with
        | Svc.Stats.Served_fresh | Svc.Stats.Served_cached
        | Svc.Stats.Served_degraded ->
            incr served
        | _ -> incr errors)
      ~timing ~workers:1 ~make_engine
      (fun feed -> Svc.Workload.iter spec ~f:feed)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let heap_growth = (Gc.quick_stat ()).Gc.top_heap_words - heap0 in
  let jps = float_of_int total /. wall_s in
  Printf.printf
    "headline: %d jobs in %.1f s — %.0f jobs/sec (served %d, rejected %d)\n"
    total wall_s jps !served !errors;
  Printf.printf "heap: top_heap_words growth %d words (budget %d)%s\n"
    heap_growth heap_budget
    (match read_vm_hwm_kb () with
    | Some k -> Printf.sprintf "; VmHWM %d kB" k
    | None -> "");
  let s = outcome.Svc.Pool.summary in
  check
    (s.Svc.Stats.s_jobs = total)
    (Printf.sprintf "E16a: stream lost jobs (%d of %d)" s.Svc.Stats.s_jobs
       total);
  check
    (heap_growth < heap_budget)
    "E16a: heap grew past the fixed budget — something materialized the \
     corpus";
  let st = outcome.Svc.Pool.store_stats in
  Printf.printf
    "store: insertions=%d filter_skips=%d filter_hits=%d filter_fps=%d \
     flushes=%d\n"
    st.Svc.Cert_store.insertions st.Svc.Cert_store.filter_skips
    st.Svc.Cert_store.filter_hits st.Svc.Cert_store.filter_fps
    st.Svc.Cert_store.flushes;
  check (st.Svc.Cert_store.flushes > 0) "E16a: group commit never flushed";
  let baseline_file = "BENCH_SCALE.json" in
  (if quick then
     Printf.printf "throughput gate skipped in quick mode (noise)\n"
   else
     match parse_scale_baseline baseline_file with
     | None ->
         Printf.printf "no committed %s; throughput gate skipped\n"
           baseline_file
     | Some base ->
         (* shared-container wall clock swings wildly; the gate only
            catches catastrophic (~3x) throughput collapses *)
         Printf.printf "gate vs %s: %.0f -> %.0f jobs/sec (floor 35%%)\n"
           baseline_file base jps;
         check
           (jps >= base *. 0.35)
           (Printf.sprintf "E16a: %.0f jobs/sec under 35%% of baseline %.0f"
              jps base));
  (if update && not quick then
     let oc = open_out baseline_file in
     Printf.fprintf oc
       "{\n  \"mode\": \"full\",\n  \"jobs\": %d,\n  \"jobs_per_sec\": %.1f\n}\n"
       total jps;
     close_out oc;
     Printf.printf "wrote %s\n" baseline_file);
  print_newline ();
  (* -- b) cross-N determinism: stream == batch, any worker count -- *)
  let totalb = if quick then 3_000 else 20_000 in
  let specb = { spec with Svc.Workload.total = totalb } in
  let manifest_path = Filename.concat dir "stream.manifest" in
  let written = Svc.Workload.write_manifest specb manifest_path in
  check (written = totalb) "E16b: write_manifest lost jobs";
  let batch_jobs =
    match Svc.Manifest.load_file manifest_path with
    | Ok jobs -> jobs
    | Error e -> failwith e
  in
  let fresh_engine tag wt =
    Svc.Engine.create ~cache_cap:2048
      ~cache_dir:(Filename.concat dir ("cache_" ^ tag))
      ~base_dir:dir ~write_batch:16 ?timing:wt ()
  in
  let batch_reports, _ =
    Svc.Pool.run ~workers:1 ~make_engine:(fresh_engine "b1") batch_jobs
  in
  let batch_digest =
    Digest.string (Svc.Stats.canonical_lines batch_reports)
  in
  let sweep = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  List.iter
    (fun n ->
      let buf = Buffer.create (totalb * 64) in
      let outcome =
        Svc.Pool.run_stream
          ~emit:(fun r ->
            if Buffer.length buf > 0 then Buffer.add_char buf '\n';
            Buffer.add_string buf (Svc.Stats.to_canonical_json r))
          ~workers:n
          ~make_engine:(fresh_engine (Printf.sprintf "s%d" n))
          (fun feed -> Svc.Workload.iter specb ~f:feed)
      in
      let d = Digest.string (Buffer.contents buf) in
      Printf.printf "N=%d: %d jobs, canonical digest %s %s\n" n
        outcome.Svc.Pool.summary.Svc.Stats.s_jobs (Digest.to_hex d)
        (if d = batch_digest then "== batch" else "DIFFERS from batch");
      check (d = batch_digest)
        (Printf.sprintf
           "E16b: streamed canonical output at N=%d differs from the batch \
            driver"
           n);
      (* a manifest replay through the file reader must agree too *)
      if n = 1 then begin
        let buf2 = Buffer.create (totalb * 64) in
        let outcome2 =
          Svc.Pool.run_stream
            ~emit:(fun r ->
              if Buffer.length buf2 > 0 then Buffer.add_char buf2 '\n';
              Buffer.add_string buf2 (Svc.Stats.to_canonical_json r))
            ~workers:1
            ~make_engine:(fresh_engine "m1")
            (fun feed ->
              match Svc.Manifest.iter_file manifest_path ~f:feed with
              | Ok () -> ()
              | Error e -> failwith e)
        in
        ignore outcome2;
        check
          (Digest.string (Buffer.contents buf2) = batch_digest)
          "E16b: streaming the manifest file differs from generating the \
           workload"
      end)
    sweep;
  print_newline ();
  (* -- c) daemon byte-identity (full only: forks a real server) ---- *)
  (if not quick then begin
     let totalc = 300 in
     let specc = { spec with Svc.Workload.total = totalc } in
     let mpath = Filename.concat dir "daemon.manifest" in
     ignore (Svc.Workload.write_manifest specc mpath);
     let cjobs =
       match Svc.Manifest.load_file mpath with
       | Ok jobs -> jobs
       | Error e -> failwith e
     in
     let batch_reports, _ =
       Svc.Pool.run ~workers:1 ~make_engine:(fresh_engine "c1") cjobs
     in
     let batch_lines = Svc.Stats.canonical_lines batch_reports in
     let socket_path = Filename.concat dir "e16.sock" in
     let cfg =
       {
         Svc.Server.socket_path;
         workers = 2;
         queue_cap = 64;
         client_cap = 64;
         make_engine =
           (fun ~worker:_ wt ->
             Svc.Engine.create ~cache_cap:2048
               ~cache_dir:(Filename.concat dir "cache_daemon")
               ~base_dir:dir ~write_batch:16 ?timing:wt ());
         timed = false;
         verbose = false;
         journal_dir = None;
         journal_fsync = `Every 8;
         journal_checkpoint = 256;
       }
     in
     let pid =
       match Svc.Server.spawn cfg with
       | Ok pid -> pid
       | Error e -> failwith ("E16c: " ^ e)
     in
     (* admission control (queue_cap / client_cap) legitimately bounces
        a client that submits faster than the workers drain *)
     let results =
       match
         Result.bind (Svc.Client.connect socket_path) (fun c ->
             Fun.protect
               ~finally:(fun () -> Svc.Client.close c)
               (fun () ->
                 Svc.Client.submit_all c ~window:32 ~deadline_ms:0.0
                   (Array.of_list cjobs)))
       with
       | Ok r -> r
       | Error e -> failwith ("E16c: " ^ Svc.Client.message e)
     in
     Unix.kill pid Sys.sigterm;
     ignore (Unix.waitpid [] pid);
     let daemon_lines =
       Array.to_list results
       |> List.stable_sort (fun (a : Svc.Client.report) b -> compare a.id b.id)
       |> List.map (fun (r : Svc.Client.report) -> r.canonical)
       |> String.concat "\n"
     in
     Printf.printf "daemon: %d jobs round-tripped, %s\n" totalc
       (if daemon_lines = batch_lines then "canonical output == batch"
        else "canonical output DIFFERS from batch");
     check (daemon_lines = batch_lines)
       "E16c: daemon canonical output differs from the batch driver";
     print_newline ()
   end);
  (* -- d) store pressure: the filter in front of a thrashing disk tier *)
  let totald = if quick then 4_000 else 30_000 in
  let specd =
    {
      spec with
      Svc.Workload.total = totald;
      universe = (if quick then 3_000 else 6_000);
      corrupt = 0.0;
    }
  in
  let timing_d = Svc.Timing.create () in
  let outcome_d =
    Svc.Pool.run_stream ~timing:timing_d ~workers:1
      ~make_engine:(fun wt ->
        Svc.Engine.create ~cache_cap:256
          ~cache_dir:(Filename.concat dir "cache_pressure")
          ~base_dir:dir ~write_batch:16 ?timing:wt ())
      (fun feed -> Svc.Workload.iter specd ~f:feed)
  in
  let sd = outcome_d.Svc.Pool.store_stats in
  let negatives = sd.Svc.Cert_store.filter_skips + sd.Svc.Cert_store.filter_fps in
  Printf.printf
    "pressure (cap=256, u=%d, t=%d): disk_loads=%d filter_hits=%d \
     filter_skips=%d filter_fps=%d flushes=%d\n"
    specd.Svc.Workload.universe totald sd.Svc.Cert_store.disk_loads
    sd.Svc.Cert_store.filter_hits sd.Svc.Cert_store.filter_skips
    sd.Svc.Cert_store.filter_fps sd.Svc.Cert_store.flushes;
  check
    (sd.Svc.Cert_store.filter_skips > 0)
    "E16d: the filter never short-circuited a disk probe";
  check
    (sd.Svc.Cert_store.filter_hits > 0)
    "E16d: the disk tier never served under pressure";
  check
    (negatives = 0
    || float_of_int sd.Svc.Cert_store.filter_fps /. float_of_int negatives
       < 0.05)
    "E16d: filter false-positive rate above 5%";
  check
    (outcome_d.Svc.Pool.summary.Svc.Stats.s_jobs = totald)
    "E16d: pressure run lost jobs";
  print_newline ();
  !fail

let scale () =
  let module Svc = Lcp_service in
  let quick = Array.length Sys.argv > 2 && Sys.argv.(2) = "quick" in
  let update = Array.length Sys.argv > 2 && Sys.argv.(2) = "update" in
  (* E16 first: its heap-growth assertion is sharpest in a cold process *)
  let e16_fail = e16_stream ~quick ~update in
  let size = if quick then 60 else 200 in
  let sweep = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  header
    (Printf.sprintf
       "SCALE  E10: sharded pool determinism + speedup (%d-job corpus, N in \
        {%s})"
       size
       (String.concat "," (List.map string_of_int sweep)));
  let fail =
    with_dir "scale_bench" @@ fun dir ->
    let jobs = build_corpus ~size dir in
    let cores = Svc.Pool.default_workers () in
    Printf.printf "host: %d core%s detected\n\n" cores
      (if cores = 1 then "" else "s");
    let run_at n =
      let cache_dir = Filename.concat dir (Printf.sprintf "cache_w%d" n) in
      let timing = Svc.Timing.create () in
      let make_engine wt =
        Svc.Engine.create ~cache_cap:1024 ~cache_dir ~base_dir:dir ?timing:wt ()
      in
      let t0 = Unix.gettimeofday () in
      let reports, outcome = Svc.Pool.run ~timing ~workers:n ~make_engine jobs in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let snap =
        Svc.Cert_store.disk_snapshot (Svc.Cert_store.create ~dir:cache_dir ())
      in
      (n, wall_ms, outcome, Svc.Stats.canonical_lines reports,
       snap, Svc.Timing.report timing)
    in
    let results = List.map run_at sweep in
    let _, base_wall, _, base_lines, base_snap, _ = List.hd results in
    (* the table *)
    Printf.printf "%4s %12s %9s %12s %12s %12s\n" "N" "wall ms" "speedup"
      "prove p50/p99" "verify p50/p99" "store p50/p99";
    let pct lines stage =
      match List.find_opt (fun l -> l.Svc.Timing.l_stage = stage) lines with
      | Some l -> Printf.sprintf "%.2f/%.2f" l.Svc.Timing.l_p50 l.Svc.Timing.l_p99
      | None -> "-"
    in
    List.iter
      (fun (n, wall, _, _, _, tl) ->
        Printf.printf "%4d %12.1f %8.2fx %12s %12s %12s\n" n wall
          (base_wall /. wall) (pct tl "prove") (pct tl "verify") (pct tl "store"))
      results;
    print_newline ();
    (* determinism: hard, unconditional (E16 failures merge in here) *)
    let fail = ref e16_fail in
    let check cond msg = if not cond then fail := msg :: !fail in
    check (base_snap <> []) "N=1 stored nothing: the determinism check is vacuous";
    List.iter
      (fun (n, _, outcome, lines, snap, _) ->
        check
          (outcome.Svc.Pool.summary.Svc.Stats.s_jobs = List.length jobs)
          (Printf.sprintf "N=%d: lost jobs in the merge" n);
        check (lines = base_lines)
          (Printf.sprintf "N=%d: canonical stats differ from N=1" n);
        check (snap = base_snap)
          (Printf.sprintf "N=%d: disk-tier snapshot differs from N=1" n))
      (List.tl results);
    (* speedup: hard only where the host can deliver it *)
    (match
       (List.find_opt (fun (n, _, _, _, _, _) -> n = 4) results, cores >= 4)
     with
    | Some (_, wall4, _, _, _, _), true ->
        let sp = base_wall /. wall4 in
        Printf.printf "speedup at N=4: %.2fx (target >= 2.5x)\n" sp;
        check (sp >= 2.5) "speedup at N=4 below 2.5x on a >= 4-core host"
    | Some (_, wall4, _, _, _, _), false ->
        Printf.printf
          "speedup at N=4: %.2fx — assertion SKIPPED (host has %d core%s; the \
           2.5x target needs >= 4)\n"
          (base_wall /. wall4) cores
          (if cores = 1 then "" else "s")
    | None, _ -> Printf.printf "speedup assertion skipped (quick sweep)\n");
    !fail
  in
  if fail <> [] then begin
    List.iter (fun m -> Printf.eprintf "SCALE: FAIL — %s\n" m) fail;
    exit 1
  end
  else
    Printf.printf
      "All determinism checks hold: canonical stats and disk tier identical \
       across N in {%s}.\n\n"
      (String.concat "," (List.map string_of_int sweep))

(* ------------------------------------------------------------------ *)
(* RECOVERY: the E9 crash-safety campaign against the storage layer      *)

let recovery () =
  header
    "E9  RECOVERY  crash-safety: torn writes at every byte offset, bit rot, \
     ENOSPC degradation, crash points";
  let module Svc = Lcp_service in
  let module Blob = Svc.Blob_io in
  let module Store = Svc.Cert_store in
  let module Stats = Svc.Stats in
  let fail = ref [] in
  let check cond msg =
    if (not cond) && not (List.mem msg !fail) then fail := msg :: !fail
  in
  let fresh_dir name = fresh_dir ("recovery_" ^ name) in
  let plan1 on = [ { Blob.at = 1; repeat = false; on } ] in

  (* corpus: 120 jobs over 60 distinct (property, k, graph) instances —
     every instance appears twice so content addressing is live — small
     enough (n in 10..16) that each record is a few hundred bytes and the
     byte-offset sweep below stays exhaustive *)
  let corpus =
    List.init 120 (fun i ->
        let gseed = i mod 60 in
        let n = 10 + (gseed mod 7) in
        let mk family property k g =
          ( {
              Svc.Manifest.job_id = Printf.sprintf "r%d" i;
              source = Svc.Manifest.Generated { family; n; gen_seed = gseed };
              property;
              k;
              seed = 0;
            },
            g )
        in
        match gseed mod 3 with
        | 0 ->
            mk "tree" "acyclic" 3
              (Gen.random_tree (Random.State.make [| gseed |]) n)
        | 1 -> mk "path" "connected" 1 (Gen.path n)
        | _ ->
            mk "tree" "bipartite" 3
              (Gen.random_tree (Random.State.make [| gseed |]) n))
  in
  let jobs = List.map fst corpus in
  let njobs = List.length jobs in

  (* ---- phase 0: clean pass, collect every record the store wrote ---- *)
  let dir0 = fresh_dir "clean" in
  let engine0 = Svc.Engine.create ~cache_cap:2048 ~cache_dir:dir0 () in
  let _, clean = Svc.Engine.run_jobs engine0 jobs in
  check (clean.Stats.s_served = njobs) "clean pass: not every job served";
  check (clean.Stats.s_unsound = 0) "clean pass: unsound bundle";
  let records =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun ((job : Svc.Manifest.job), g) ->
        let key = Store.key ~property:job.Svc.Manifest.property ~k:job.k g in
        let hex = Store.key_hex key in
        let path = Filename.concat dir0 (hex ^ ".cert") in
        if (not (Hashtbl.mem tbl hex)) && Sys.file_exists path then
          Hashtbl.replace tbl hex (key, Blob.real.Blob.read_file path))
      corpus;
    Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  in
  check (List.length records >= 40) "clean pass: too few records on disk";

  (* ---- phase 1a: torn records, EVERY byte offset of every record.
     A truncation at any prefix must be rejected by the record parser
     (length/checksum guard) before any decoder runs. Truncations fail
     the length check in O(1), so this sweep is exhaustive and cheap. *)
  let offsets = ref 0 in
  let torn_served = ref 0 in
  List.iter
    (fun (key, content) ->
      for b = 0 to String.length content - 1 do
        incr offsets;
        match Store.parse_record key (String.sub content 0 b) with
        | Ok (Some _) -> incr torn_served
        | Ok None | Error _ -> ()
      done)
    records;

  (* ---- phase 1b: the same torn writes through the real disk
     machinery at sampled offsets: crash mid-tmp-write (orphan sweep)
     and truncated-in-place records (corrupt + quarantine) ---- *)
  let scratch = fresh_dir "torn" in
  let clean_scratch () =
    Array.iter (fun f -> rm_rf (Filename.concat scratch f)) (Sys.readdir scratch)
  in
  let disk_offsets = ref 0 in
  let orphans_swept = ref 0 in
  let corrupt_detected = ref 0 in
  let quarantined = ref 0 in
  List.iter
    (fun (key, content) ->
      let len = String.length content in
      let path = Filename.concat scratch (Store.key_hex key ^ ".cert") in
      let sample =
        List.sort_uniq compare
          [ 0; 1; 9; len / 4; len / 2; 3 * len / 4; len - 2; len - 1 ]
        |> List.filter (fun b -> b >= 0 && b < len)
      in
      List.iter
        (fun b ->
          incr disk_offsets;
          (* A: the process dies while writing the tmp file (before the
             atomic rename): reopen must sweep the orphan and miss *)
          clean_scratch ();
          let io, _ = Blob.inject ~plan:(plan1 (Blob.Torn b)) Blob.real in
          (try
             io.Blob.write_file (path ^ ".tmp") content;
             io.Blob.rename (path ^ ".tmp") path
           with Blob.Crashed _ -> ());
          let st = Store.create ~cap:8 ~dir:scratch () in
          let s = Store.stats st in
          orphans_swept := !orphans_swept + s.Store.orphans_swept;
          check (s.Store.orphans_swept = 1) "torn/A: orphan .tmp not swept";
          check
            (not (Sys.file_exists (path ^ ".tmp")))
            "torn/A: orphan .tmp still on disk after reopen";
          (match Store.find st key with
          | Some _ -> incr torn_served
          | None -> ());
          (* B: a truncated record sits fully renamed in place (partial
             flush / bit rot): the checksum must catch it before decode,
             and the file must land in quarantine/ *)
          clean_scratch ();
          Blob.real.Blob.write_file path (String.sub content 0 b);
          let st2 = Store.create ~cap:8 ~dir:scratch () in
          (match Store.find st2 key with
          | Some _ -> incr torn_served
          | None -> ());
          let s2 = Store.stats st2 in
          corrupt_detected := !corrupt_detected + s2.Store.corrupt;
          quarantined := !quarantined + s2.Store.quarantined;
          check (s2.Store.corrupt = 1)
            "torn/B: truncated record not flagged corrupt";
          check (s2.Store.quarantined = 1)
            "torn/B: truncated record not quarantined")
        sample)
    records;

  (* ---- phase 2: bit rot. Sampled single-bit flips checked at the
     parser (checksum) level across every record, plus a handful pushed
     through the real disk path per record. ---- *)
  let frng = Random.State.make [| 0xE9 |] in
  let flips = ref 0 and flips_served = ref 0 in
  let flip_of content b =
    let bytes = Bytes.of_string content in
    Bytes.set bytes (b / 8)
      (Char.chr (Char.code (Bytes.get bytes (b / 8)) lxor (1 lsl (b mod 8))));
    Bytes.unsafe_to_string bytes
  in
  List.iter
    (fun (key, content) ->
      let bits = 8 * String.length content in
      for _ = 1 to 192 do
        incr flips;
        let b = Random.State.int frng bits in
        match Store.parse_record key (flip_of content b) with
        | Ok (Some _) -> incr flips_served
        | Ok None | Error _ -> ()
      done;
      let path = Filename.concat scratch (Store.key_hex key ^ ".cert") in
      for _ = 1 to 4 do
        incr flips;
        clean_scratch ();
        let b = Random.State.int frng bits in
        let io, _ = Blob.inject ~plan:(plan1 (Blob.Flip b)) Blob.real in
        io.Blob.write_file path content;
        match Store.find (Store.create ~cap:8 ~dir:scratch ()) key with
        | Some _ -> incr flips_served
        | None -> ()
      done)
    records;

  (* ---- phase 3: every write fails with ENOSPC -> degraded mode ---- *)
  let dir3 = fresh_dir "enospc" in
  let io3, _ =
    Blob.inject
      ~plan:[ { Blob.at = 1; repeat = true; on = Blob.Fail "ENOSPC" } ]
      Blob.real
  in
  let engine3 = Svc.Engine.create ~cache_cap:2048 ~cache_dir:dir3 ~io:io3 () in
  let _, enospc = Svc.Engine.run_jobs engine3 jobs in
  let st3 = Store.stats (Svc.Engine.store engine3) in
  check (enospc.Stats.s_failed = 0) "ENOSPC: a job failed (batch not total)";
  check (enospc.Stats.s_served = njobs) "ENOSPC: not every job served";
  check
    (Store.degraded (Svc.Engine.store engine3))
    "ENOSPC: store did not demote itself to memory-only";
  check (enospc.Stats.s_degraded > 0) "ENOSPC: no job reported served_degraded";
  check (st3.Store.disk_errors >= 3) "ENOSPC: disk errors not counted";
  let _, enospc_warm = Svc.Engine.run_jobs engine3 jobs in
  check
    (enospc_warm.Stats.s_degraded = njobs)
    "ENOSPC warm: memory tier did not carry the degraded store";
  check (enospc_warm.Stats.s_hit_rate = 1.0) "ENOSPC warm: hit rate below 100%";

  (* ---- phase 4: crash points across the batch, reopen, recover ---- *)
  let total_ops = 2 * List.length records in
  let crash_points =
    List.filter
      (fun w -> w < total_ops)
      [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89 ]
    @ [ total_ops - 1 ]
  in
  let crash_runs = ref 0 and crashes_fired = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun kind ->
          incr crash_runs;
          let d = fresh_dir "crash" in
          let io, c =
            Blob.inject ~plan:[ { Blob.at = w; repeat = false; on = kind } ]
              Blob.real
          in
          let engine = Svc.Engine.create ~cache_cap:2048 ~cache_dir:d ~io () in
          (match Svc.Engine.run_jobs engine jobs with
          | _ -> ()
          | exception Blob.Crashed _ -> incr crashes_fired);
          check c.Blob.crashed "crash: fault point never fired";
          (* reboot: fresh engine over the surviving directory, real io *)
          let engine' = Svc.Engine.create ~cache_cap:2048 ~cache_dir:d () in
          orphans_swept :=
            !orphans_swept
            + (Store.stats (Svc.Engine.store engine')).Store.orphans_swept;
          (match Svc.Engine.run_jobs engine' jobs with
          | _, s ->
              check
                (s.Stats.s_failed = 0 && s.Stats.s_unsound = 0)
                "recovery pass: a job failed or went unsound";
              check (s.Stats.s_served = njobs)
                "recovery pass: not every job served after reboot"
          | exception _ ->
              check false "recovery pass aborted (exception escaped)");
          rm_rf d)
        [ Blob.Crash; Blob.Torn 7 ])
    crash_points;

  rm_rf dir0;
  rm_rf scratch;
  rm_rf dir3;
  Printf.printf "%-52s %12s\n" "measure" "value";
  let row fmt = Printf.printf "%-52s %12s\n" fmt in
  row "corpus jobs (distinct records)"
    (Printf.sprintf "%d (%d)" njobs (List.length records));
  row "torn prefixes checked (every byte offset)" (string_of_int !offsets);
  row "torn writes through disk machinery (sampled, x2 modes)"
    (string_of_int !disk_offsets);
  row "truncated records detected as corrupt" (string_of_int !corrupt_detected);
  row "corrupt records quarantined" (string_of_int !quarantined);
  row "orphaned .tmp files swept on reopen" (string_of_int !orphans_swept);
  row "single-bit flips checked" (string_of_int !flips);
  row "torn/flipped records served (must be 0)"
    (string_of_int (!torn_served + !flips_served));
  row "ENOSPC batch: jobs served / failed"
    (Printf.sprintf "%d / %d" enospc.Stats.s_served enospc.Stats.s_failed);
  row "crash-point runs (crashed, then recovered)"
    (Printf.sprintf "%d (%d)" !crash_runs !crashes_fired);
  check (!torn_served = 0) "a torn record was served";
  check (!flips_served = 0) "a bit-flipped record was served";
  if !fail <> [] then begin
    List.iter (fun m -> Printf.eprintf "RECOVERY: FAIL — %s\n" m) !fail;
    exit 1
  end
  else
    Printf.printf
      "\nAll invariants hold: zero torn records served, zero batch aborts \
       under non-crash faults,\nevery job reached a terminal status, all \
       orphans swept on reopen.\n\n"

(* ------------------------------------------------------------------ *)
(* CHAOS: E12 — the persistent daemon under sustained fault injection   *)

(* `bench chaos` treats the daemon the way E9 treats the storage layer:
   as a system that must keep its invariants while everything around it
   misbehaves. It forks a certd server whose worker slots carry per-slot
   fault plans (one slot degrades to memory-only under persistent
   ENOSPC, the others crash every few store writes, one also silently
   bit-flips a record on the shared disk tier), then floods it from
   several concurrent client connections — deliberately past the
   admission caps, so backpressure is exercised rather than avoided.

   Invariants asserted, all hard:
   - every accepted submission ends in exactly one terminal reply;
   - zero corrupt certificates served (no [unsound] status anywhere —
     bit rot is caught by the record checksum and re-proved);
   - the admission queue never exceeds its configured cap;
   - every induced worker death is followed by a respawn: the pool is
     fully live at the end, no slot permanently stopped;
   - client-observed rejections equal the server's rejection counters;
   - SIGTERM after the storm drains and exits 0, unlinking the socket.

   `bench chaos quick` is the check.sh-sized variant (same invariants,
   ~30 jobs, >= 1 induced crash instead of >= 20). *)

let chaos () =
  let module Svc = Lcp_service in
  let module Wire = Svc.Wire in
  let module Server = Svc.Server in
  let module Blob = Svc.Blob_io in
  let quick = Array.length Sys.argv > 2 && Sys.argv.(2) = "quick" in
  header
    (if quick then
       "E12  CHAOS (quick)  daemon under fault-injected concurrent clients"
     else
       "E12  CHAOS  daemon under fault-injected concurrent clients (>= 500 \
        jobs, >= 20 induced crashes)");
  let fail = ref [] in
  let check cond msg =
    if (not cond) && not (List.mem msg !fail) then fail := msg :: !fail
  in
  let dir = fresh_dir "chaos" in
  let socket_path = Filename.concat dir "certd.sock" in
  let cache = Filename.concat dir "cache" in
  (* pre-create the shared disk tier so each plan's op counter starts
     at the record writes, not the mkdir *)
  Sys.mkdir cache 0o755;
  (* campaign shape: past the caps by construction, so both the global
     and the per-client admission gates fire *)
  let n_clients = if quick then 2 else 4 in
  let per_client = if quick then 15 else 140 in
  let workers = if quick then 2 else 3 in
  let queue_cap = if quick then 4 else 24 in
  let client_cap = if quick then 3 else 8 in
  let window = client_cap + 1 (* one past the quota: rejections are a goal *)
  and min_restarts = if quick then 1 else 20 in
  (* per-slot fault plans, reloaded on every respawn (a fresh
     incarnation gets a fresh op counter — so a crashing slot keeps
     crashing for the whole campaign):
     - slot 0 (full mode): persistent ENOSPC after a warm-up — the
       store degrades to memory-only and the slot keeps serving, as
       [served_degraded];
     - crash slots: a couple of records, then a simulated process
       death on the next store write;
     - the flip slot silently corrupts one record on the shared tier
       before its crash, so readers must catch it by checksum. *)
  let plans =
    if quick then [| "crash@6"; "fail@6+:ENOSPC" |]
    else [| "fail@40+:ENOSPC"; "crash@6"; "flip@5:3,crash@12" |]
  in
  let make_engine ~worker timing =
    let plan =
      match Blob.parse_plan plans.(worker mod Array.length plans) with
      | Ok p -> p
      | Error e -> failwith e
    in
    let io = fst (Blob.inject ~plan Blob.real) in
    Svc.Engine.create ~cache_dir:cache ~io ?timing ()
  in
  let cfg =
    {
      Server.socket_path;
      workers;
      queue_cap;
      client_cap;
      make_engine;
      timed = true;
      verbose = false;
      journal_dir = None;
      journal_fsync = `Every 8;
      journal_checkpoint = 256;
    }
  in
  let pid =
    match Server.spawn cfg with
    | Ok pid -> pid
    | Error e -> failwith ("chaos: " ^ e)
  in
  let connect () =
    match Svc.Client.connect socket_path with
    | Ok c -> c
    | Error e -> failwith ("chaos: " ^ Svc.Client.message e)
  in
  (* the workload: mostly distinct instances (tree + distinct gseed),
     so nearly every job wants a store write and the crash plans keep
     firing; the paths recur across clients, so the shared cache tier
     is live too *)
  let job_line c i =
    match i mod 4 with
    | 0 ->
        Printf.sprintf
          "id=chaos-c%d-%d gen=tree n=%d gseed=%d property=acyclic k=2 seed=7"
          c i
          (8 + (i mod 9))
          ((c * 1009) + i)
    | 1 ->
        Printf.sprintf
          "id=chaos-c%d-%d gen=tree n=%d gseed=%d property=bipartite k=2 \
           seed=7"
          c i
          (8 + (i mod 9))
          ((c * 2003) + i)
    | 2 ->
        Printf.sprintf
          "id=chaos-c%d-%d gen=path n=%d property=connected k=2 seed=7" c i
          (6 + (i mod 20))
    | _ ->
        Printf.sprintf
          "id=chaos-c%d-%d gen=tree n=%d gseed=%d property=triangle_free \
           k=2 seed=7"
          c i
          (8 + (i mod 9))
          ((c * 4001) + i)
  in
  let submit fd serial line =
    Wire.write_frame fd
      (Wire.encode_request
         (Wire.Submit { serial; canonical = true; deadline_ms = 0.0; line }))
  in
  (* one multiplexed driver for all the client connections: keep each
     window full, requeue on Overloaded, demand exactly one terminal
     reply per serial *)
  let total = n_clients * per_client in
  let clients =
    Array.init n_clients (fun c ->
        ( (connect ()).Svc.Client.fd,
          ref (List.init per_client (fun i -> (i, job_line c i))),
          ref 0 (* in flight *),
          Array.make per_client 0 (* terminal replies per serial *) ))
  in
  let answered = ref 0 in
  let overloaded = ref 0 in
  let by_status = Hashtbl.create 8 in
  let tally s =
    Hashtbl.replace by_status s (1 + Option.value ~default:0 (Hashtbl.find_opt by_status s))
  in
  while !answered < total do
    Array.iter
      (fun (fd, pending, inflight, _) ->
        while !inflight < window && !pending <> [] do
          let (serial, line), rest =
            (List.hd !pending, List.tl !pending)
          in
          pending := rest;
          submit fd serial line;
          incr inflight
        done)
      clients;
    let fds =
      Array.to_list clients |> List.map (fun (fd, _, _, _) -> fd)
    in
    let progressed = ref false in
    (match Unix.select fds [] [] 30.0 with
    | [], _, _ -> failwith "chaos: daemon went quiet for 30s mid-campaign"
    | readable, _, _ ->
        Array.iteri
          (fun c (fd, pending, inflight, replies) ->
            if List.mem fd readable then
              match Wire.read_frame fd with
              | None ->
                  failwith "chaos: daemon closed a connection mid-campaign"
              | Some payload -> (
                  match Wire.decode_response payload with
                  | Ok (Wire.Report { serial; status; _ }) ->
                      decr inflight;
                      replies.(serial) <- replies.(serial) + 1;
                      incr answered;
                      progressed := true;
                      tally status
                  | Ok (Wire.Overloaded { serial; _ }) ->
                      decr inflight;
                      incr overloaded;
                      pending := !pending @ [ (serial, job_line c serial) ]
                  | Ok r ->
                      failwith
                        (Printf.sprintf "chaos: unexpected reply %s"
                           (Wire.encode_response r))
                  | Error e -> failwith ("chaos: undecodable reply: " ^ e)))
          clients);
    (* a round that was pure backpressure: yield so the workers can
       drain a slot before the next submission burst *)
    if not !progressed then Unix.sleepf 0.002
  done;
  Array.iter
    (fun (_, _, _, replies) ->
      Array.iteri
        (fun serial n ->
          check (n = 1)
            (Printf.sprintf
               "a submission got %d terminal replies (serial %d), want \
                exactly 1"
               n serial))
        replies)
    clients;
  (* recovery wave: the storm is over; the pool must still answer *)
  let final_answered = ref 0 in
  Array.iteri
    (fun c (fd, _, _, _) ->
      submit fd per_client
        (Printf.sprintf
           "id=chaos-final-%d gen=tree n=10 gseed=%d property=acyclic k=2 \
            seed=7"
           c (90000 + c));
      let rec await () =
        match Wire.read_frame fd with
        | None -> check false "recovery wave: connection closed"
        | Some payload -> (
            match Wire.decode_response payload with
            | Ok (Wire.Report { status; _ }) ->
                incr final_answered;
                tally status
            | Ok (Wire.Overloaded _) ->
                (* the queue is empty now, but a slot may still be
                   rebooting; retry *)
                Unix.sleepf 0.01;
                submit fd per_client
                  (Printf.sprintf
                     "id=chaos-final-%d gen=tree n=10 gseed=%d \
                      property=acyclic k=2 seed=7"
                     c (90000 + c));
                await ()
            | Ok _ | Error _ -> check false "recovery wave: bad reply")
      in
      await ())
    clients;
  check (!final_answered = n_clients) "recovery wave: not every job answered";
  (* the live stats endpoint is the campaign's scoreboard *)
  let stats_json =
    let c = connect () in
    match Svc.Client.rpc c Wire.Stats_req with
    | Ok (Wire.Stats_reply json) ->
        Svc.Client.close c;
        json
    | Ok _ -> failwith "chaos: stats endpoint gave a non-stats reply"
    | Error e -> failwith ("chaos: " ^ Svc.Client.message e)
  in
  let ints = Svc.Client.stat_ints stats_json in
  let json_int field =
    match Hashtbl.find_opt ints field with
    | Some v -> v
    | None -> failwith (Printf.sprintf "chaos: field %s missing from stats" field)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let restarts = json_int "restarts" in
  let status_count s = Option.value ~default:0 (Hashtbl.find_opt by_status s) in
  Printf.printf
    "%d jobs over %d clients (window %d, queue cap %d, client cap %d, %d \
     workers)\n"
    total n_clients window queue_cap client_cap workers;
  Printf.printf
    "  terminal replies: %d  (served_fresh %d, served_cached %d, \
     served_degraded %d, failed %d)\n"
    (!answered + !final_answered)
    (status_count "served_fresh")
    (status_count "served_cached")
    (status_count "served_degraded")
    (status_count "failed");
  Printf.printf
    "  backpressure: %d client-observed rejections (server: %d overload + \
     %d quota)\n"
    !overloaded
    (json_int "rejected_overload")
    (json_int "rejected_quota");
  Printf.printf
    "  supervision: %d induced worker deaths survived, %d live / %d \
     stopped slots, %d jobs requeued\n"
    restarts (json_int "live") (json_int "stopped") (json_int "requeued");
  Printf.printf
    "  store under fire: %d corrupt caught, %d quarantined (%d evicted), \
     %d disk errors, max queue depth %d/%d\n"
    (json_int "corrupt") (json_int "quarantined")
    (json_int "quarantine_evictions")
    (json_int "disk_errors") (json_int "max_depth") queue_cap;
  check (json_int "unsound" = 0) "a corrupt certificate was served (unsound > 0)";
  check (status_count "unsound" = 0) "a client saw an unsound reply";
  check (restarts >= min_restarts)
    (Printf.sprintf "too few induced worker crashes (%d, want >= %d)"
       restarts min_restarts);
  check (json_int "stopped" = 0) "a worker slot was permanently stopped";
  check (json_int "live" = workers) "the pool is not fully live after the storm";
  check (json_int "max_depth" <= queue_cap) "the queue exceeded its cap";
  check (!overloaded > 0) "backpressure was never exercised";
  check
    (json_int "rejected_overload" + json_int "rejected_quota" = !overloaded)
    "server rejection counters disagree with client-observed rejections";
  check
    (json_int "submitted" = json_int "completed")
    "accepted and completed job counts disagree";
  check
    (json_int "submitted" = total + n_clients)
    "the server accepted a different number of jobs than were submitted";
  check
    (contains stats_json "\"stage\":\"prove\"")
    "the stats endpoint reports no prove-stage percentiles";
  (if not quick then
     check (total >= 500) "full campaign must push >= 500 jobs");
  (* clean drain: SIGTERM, every connection must end in EOF, exit 0,
     socket unlinked *)
  Unix.kill pid Sys.sigterm;
  Array.iter
    (fun (fd, _, _, _) ->
      let rec drain_eof () =
        match Wire.read_frame fd with
        | None -> ()
        | Some _ -> drain_eof ()
        | exception (Sys_error _ | Unix.Unix_error _) ->
            check false "drain: connection did not end in a clean EOF"
      in
      drain_eof ();
      Unix.close fd)
    clients;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c ->
      check false (Printf.sprintf "drain: daemon exited %d, want 0" c)
  | _ -> check false "drain: daemon was killed by a signal");
  check (not (Sys.file_exists socket_path)) "drain: socket not unlinked";
  rm_rf dir;
  if !fail <> [] then begin
    List.iter (fun m -> Printf.eprintf "CHAOS: FAIL — %s\n" m) !fail;
    exit 1
  end
  else
    Printf.printf
      "\nAll invariants hold: every submission answered exactly once, zero \
       corrupt certificates served,\nqueue bounded by its cap, every \
       induced death respawned, clean SIGTERM drain.\n\n"

(* ------------------------------------------------------------------ *)
(* E14: crash-recovery campaign — SIGKILL the daemon during streaming
   edits, restart it on the same socket and journal, resume, and demand
   that the final canonical JSONL is byte-identical to an uninterrupted
   run of the same edit script.

   Each trial plays one edit stream (open + E edits) against a
   journal-backed daemon and kills it with SIGKILL at randomized
   points — half of them before a request is sent, half with the
   request already in flight, so both the crash-before-journal-append
   and the crash-after-append arms of the exactly-once argument are
   exercised. After every kill the daemon is restarted cold and the
   client resumes (resume=1 re-open, then resend of the in-flight
   serial); recovery latency (SIGKILL to resumed-open reply, including
   respawn, journal replay, and the whole-graph re-verification of the
   rebuilt session) is measured per kill.

   Invariants, all hard:
   - the concatenated canonical JSONL of every trial is byte-identical
     to the uninterrupted baseline (nothing lost, duplicated, or
     recomputed differently);
   - zero unsound serves, in the replies and in the daemon's counters;
   - every rebuilt step re-verified (resume_mismatch = 0 with
     rebuilt_steps > 0);
   - every trial drains cleanly on SIGTERM afterwards.

   Full: >= 200 SIGKILL points. `bench crash quick`: 12. *)

let e14_crash () =
  let module Svc = Lcp_service in
  let module Wire = Svc.Wire in
  let module Server = Svc.Server in
  let quick = Array.length Sys.argv > 2 && Sys.argv.(2) = "quick" in
  header
    (if quick then "E14  CRASH (quick)  SIGKILL + journal resume, 12 kills"
     else
       "E14  CRASH  SIGKILL during streaming edits, journal resume (>= 200 \
        kills)");
  let fail = ref [] in
  let trial_failed = ref false in
  let check cond msg =
    if not cond then trial_failed := true;
    if (not cond) && not (List.mem msg !fail) then fail := msg :: !fail
  in
  let root = fresh_dir "crash" in
  let trials = if quick then 3 else 25 in
  let edits = if quick then 10 else 20 in
  let kills_per_trial = if quick then 4 else 8 in
  let base_line = "id=dyn gen=path n=24 property=connected k=2 seed=7" in
  let ops_of i =
    match i mod 4 with
    | 0 -> Printf.sprintf "del=%d-%d" (i mod 20) ((i mod 20) + 1)
    | 1 -> Printf.sprintf "add=%d-%d" (i mod 20) ((i mod 20) + 1)
    | 2 -> Printf.sprintf "add=%d-%d del=%d-%d" (i mod 6) (17 + (i mod 6)) (i mod 12) ((i mod 12) + 1)
    | _ -> ""
  in
  let mk_cfg trial =
    let dir = Filename.concat root (Printf.sprintf "t%d" trial) in
    Sys.mkdir dir 0o755;
    ( dir,
      {
        Server.socket_path = Filename.concat dir "certd.sock";
        workers = 1;
        queue_cap = 64;
        client_cap = 48;
        make_engine = (fun ~worker:_ timing -> Svc.Engine.create ?timing ());
        timed = false;
        verbose = false;
        journal_dir = Some (Filename.concat dir "journal");
        journal_fsync = `Always;
        journal_checkpoint = 256;
      } )
  in
  let start_server cfg =
    match Server.spawn cfg with
    | Ok pid -> pid
    | Error e -> failwith ("crash: " ^ e)
  in
  let connect cfg =
    match Svc.Client.connect cfg.Server.socket_path with
    | Ok c -> c
    | Error e -> failwith ("crash: " ^ Svc.Client.message e)
  in
  let dial cfg = (connect cfg).Svc.Client.fd in
  let read_dreport fd =
    match Wire.read_frame fd with
    | None -> None
    | Some payload -> (
        match Wire.decode_response payload with
        | Ok (Wire.Dreport { serial; status; canonical; _ }) ->
            Some (`Dreport (serial, status, canonical))
        | Ok (Wire.Overloaded _) -> Some `Overloaded
        | Ok r ->
            failwith
              (Printf.sprintf "crash: unexpected reply %s"
                 (Wire.encode_response r))
        | Error e -> failwith ("crash: undecodable reply: " ^ e))
    | exception (Sys_error _ | Unix.Unix_error _) -> None
  in
  let req_of serial =
    if serial = 0 then
      Wire.Delta_open
        { serial = 0; deadline_ms = 0.0; sid = "e14"; resume = false;
          line = base_line }
    else
      Wire.Delta_edit
        { serial; deadline_ms = 0.0; full = false; ops = ops_of serial }
  in
  (* one full stream against a server we may kill under it; returns the
     canonical line per serial plus the measured resume latencies *)
  let play cfg ~kills =
    let pid = ref (start_server cfg) in
    let fd = ref (dial cfg) in
    let canon = Array.make (edits + 1) "" in
    let latencies = ref [] in
    let resumed = ref 0 in
    let kill_now () =
      Unix.kill !pid Sys.sigkill;
      ignore (Unix.waitpid [] !pid);
      (try Unix.close !fd with Unix.Unix_error _ -> ());
      let t0 = Unix.gettimeofday () in
      pid := start_server cfg;
      fd := dial cfg;
      (* resume; the re-open reply must be the journaled serial-0 line *)
      let rec await attempts =
        Wire.write_frame !fd
          (Wire.encode_request
             (Wire.Delta_open
                { serial = 0; deadline_ms = 0.0; sid = "e14"; resume = true;
                  line = "" }));
        match read_dreport !fd with
        | Some (`Dreport (0, _, c)) ->
            latencies := (Unix.gettimeofday () -. t0) :: !latencies;
            incr resumed;
            check
              (canon.(0) = "" || canon.(0) = c)
              "resumed open reply differs from the original open reply"
        | Some `Overloaded ->
            if attempts > 600 then failwith "crash: resume refused 600 times";
            Unix.sleepf 0.02;
            await (attempts + 1)
        | Some (`Dreport _) -> failwith "crash: resume answered a wrong serial"
        | None -> failwith "crash: connection lost during resume"
      in
      await 0
    in
    for serial = 0 to edits do
      (match List.assoc_opt serial kills with
      | Some `Before -> kill_now ()
      | Some `Inflight | None -> ());
      (* send, then (for an in-flight kill) shoot the server before
         reading the reply — the resend after resume must come back
         byte-identical, recomputed or deduplicated from the journal *)
      let inflight_pending =
        ref (List.assoc_opt serial kills = Some `Inflight)
      in
      let rec exchange attempts =
        if attempts > 600 then failwith "crash: no terminal reply in 600 tries";
        Wire.write_frame !fd (Wire.encode_request (req_of serial));
        if !inflight_pending then begin
          (* the request is on the wire: shoot the server now, resume,
             and resend — the journal must dedup or recompute to the
             same bytes whether or not the edit landed before death *)
          inflight_pending := false;
          kill_now ();
          exchange (attempts + 1)
        end
        else
          match read_dreport !fd with
          | Some (`Dreport (s, status, c)) ->
              if s <> serial then
                failwith
                  (Printf.sprintf "crash: reply serial %d, want %d" s serial);
              check
                (status <> "unsound")
                "an unsound report was served after recovery";
              if canon.(serial) = "" then canon.(serial) <- c
              else
                check
                  (canon.(serial) = c)
                  "a resent serial got a different reply than the original"
          | Some `Overloaded ->
              Unix.sleepf 0.02;
              exchange (attempts + 1)
          | None ->
              (* the kill landed between send and reply *)
              kill_now ();
              exchange (attempts + 1)
      in
      (try exchange 0
       with Sys_error _ | Unix.Unix_error _ ->
         kill_now ();
         exchange 1)
    done;
    (* counters: every rebuilt step re-verified, none diverged. A
       resume answers the re-open at once and queues the rebuild chain
       behind it, and a resent edit the journal already holds is
       answered by dedup ahead of that chain too, so the counters are
       read only once the daemon is idle: queue empty, nothing in
       flight *)
    let stats = connect cfg in
    let rec idle_stats polls =
      match Svc.Client.rpc stats Wire.Stats_req with
      | Ok (Wire.Stats_reply json) ->
          let ints = Svc.Client.stat_ints json in
          if Hashtbl.find ints "depth" + Hashtbl.find ints "inflight" = 0 then ints
          else if polls >= 3000 then failwith "crash: the daemon never went idle"
          else begin
            Unix.sleepf 0.01;
            idle_stats (polls + 1)
          end
      | Ok _ -> failwith "crash: non-stats reply"
      | Error e -> failwith ("crash: " ^ Svc.Client.message e)
    in
    let ints = idle_stats 0 in
    Svc.Client.close stats;
    let json_int field =
      match Hashtbl.find_opt ints field with
      | Some v -> v
      | None -> failwith (Printf.sprintf "crash: field %s missing" field)
    in
    if kills <> [] then begin
      check (json_int "resumed" >= 1) "a killed trial never resumed";
      check
        (json_int "rebuilt_steps" >= 1 || List.for_all (fun (s, _) -> s = 0) kills)
        "a resume rebuilt no steps";
      check
        (json_int "resume_mismatch" = 0)
        "a rebuilt step diverged from its journaled reply (resume_mismatch)"
    end;
    check (json_int "unsound" = 0) "the daemon counted an unsound serve";
    (* clean drain *)
    Unix.kill !pid Sys.sigterm;
    (match Unix.waitpid [] !pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> check false "a trial's daemon did not drain cleanly on SIGTERM");
    (try Unix.close !fd with Unix.Unix_error _ -> ());
    (canon, !latencies, !resumed)
  in
  (* the uninterrupted baseline this whole campaign is measured against *)
  let baseline, _, _ =
    let _, cfg = mk_cfg 0 in
    play cfg ~kills:[]
  in
  let total_kills = ref 0 in
  let all_latencies = ref [] in
  let t_start = Unix.gettimeofday () in
  for trial = 1 to trials do
    let _, cfg = mk_cfg trial in
    let st = Random.State.make [| 0xE14; trial |] in
    (* distinct kill serials, half before-send and half in-flight *)
    (* distinct serials in 1..edits: the open itself is never a kill
       point (there is nothing journaled to resume before it), but
       every later point — before-send or in-flight — is fair game *)
    let rec pick acc =
      if List.length acc >= kills_per_trial then acc
      else
        let s = 1 + Random.State.int st edits in
        if List.mem_assoc s acc then pick acc
        else
          pick
            ((s, if Random.State.bool st then `Before else `Inflight) :: acc)
    in
    let kills = pick [] in
    trial_failed := false;
    let canon, latencies, resumed = play cfg ~kills in
    total_kills := !total_kills + List.length kills;
    all_latencies := latencies @ !all_latencies;
    check
      (resumed = List.length kills)
      "a trial resumed a different number of times than it was killed";
    check
      (Array.to_list canon = Array.to_list baseline)
      (Printf.sprintf
         "trial %d: canonical JSONL differs from the uninterrupted baseline"
         trial);
    if !trial_failed then
      Printf.eprintf "crash: trial %d failed; kill plan: %s\n%!" trial
        (String.concat ", "
           (List.map
              (fun (s, k) ->
                Printf.sprintf "%d %s" s
                  (if k = `Before then "before-send" else "in-flight"))
              (List.sort compare kills)))
  done;
  let wall = Unix.gettimeofday () -. t_start in
  let lat = List.sort compare !all_latencies in
  let n_lat = List.length lat in
  let pct p =
    if n_lat = 0 then 0.0
    else List.nth lat (min (n_lat - 1) (p * n_lat / 100))
  in
  Printf.printf
    "%d trials x (1 open + %d edits), %d SIGKILLs (before-send and \
     in-flight), %.1fs wall\n"
    trials edits !total_kills wall;
  Printf.printf
    "  recovery latency (SIGKILL -> resumed-open reply, incl. respawn + \
     journal replay + whole-graph re-verify):\n";
  Printf.printf "    min %.1f ms   p50 %.1f ms   p90 %.1f ms   max %.1f ms\n"
    (1000.0 *. pct 0) (1000.0 *. pct 50) (1000.0 *. pct 90)
    (1000.0 *. List.fold_left Float.max 0.0 lat);
  check
    (!total_kills >= if quick then 12 else 200)
    (Printf.sprintf "too few kill points (%d)" !total_kills);
  rm_rf root;
  if !fail <> [] then begin
    List.iter (fun m -> Printf.eprintf "CRASH: FAIL — %s\n" m) !fail;
    exit 1
  end
  else
    Printf.printf
      "\nAll invariants hold: every trial's canonical JSONL byte-identical \
       to the uninterrupted run,\nzero unsound serves, every rebuilt step \
       re-verified against its journaled reply, clean drains.\n\n"

(* ------------------------------------------------------------------ *)
(* timing: bechamel micro-benchmarks                                    *)

let timing () =
  header "Timing (bechamel): prover and verifier costs";
  let open Bechamel in
  let n = 128 in
  let g, ivs = Gen.random_pathwidth rng ~n ~k:2 () in
  let cfg = PLS.Config.random_ids rng g in
  let rep = Rep.of_pairs g ivs in
  let t1 = T1conn.edge_scheme ~rep:(fun _ -> Some rep) ~k:2 () in
  let labels = Option.get (t1.PLS.Scheme.es_prove cfg) in
  let fmr = Fconn.scheme ~rep:(fun _ -> Some rep) ~k:2 () in
  let fmr_labels = Option.get (fmr.PLS.Scheme.vs_prove cfg) in
  let path_g = Gen.path 256 in
  let path_cfg = PLS.Config.make path_g in
  let heur c =
    Some (PW.heuristic_interval_representation (PLS.Config.graph c))
  in
  let t1_path = T1conn.edge_scheme ~rep:heur ~k:1 () in
  let tests =
    Test.make_grouped ~name:"lcp"
      [
        Test.make ~name:"theorem1 prover (path n=256)"
          (Staged.stage (fun () -> ignore (t1_path.PLS.Scheme.es_prove path_cfg)));
        Test.make ~name:"theorem1 prover (random pw2 n=128)"
          (Staged.stage (fun () -> ignore (t1.PLS.Scheme.es_prove cfg)));
        Test.make ~name:"fmr baseline prover (random pw2 n=128)"
          (Staged.stage (fun () -> ignore (fmr.PLS.Scheme.vs_prove cfg)));
        Test.make ~name:"theorem1 full verification (n=128)"
          (Staged.stage (fun () -> ignore (PLS.Scheme.run_edge cfg t1 labels)));
        Test.make ~name:"fmr full verification (n=128)"
          (Staged.stage (fun () -> ignore (PLS.Scheme.run_vertex cfg fmr fmr_labels)));
        Test.make ~name:"Prop 4.6 construction (n=128)"
          (Staged.stage (fun () -> ignore (LC.construct rep)));
        Test.make ~name:"hierarchy build (n=128)"
          (Staged.stage (fun () ->
               let r = LC.construct rep in
               let part = r.LC.partition in
               let tr, to_host =
                 Lcp_lanewidth.Prop52.trace_of_partition part
               in
               let host = Lcp_lanes.Completion.completion part in
               ignore (Bld.of_trace_on ~host ~to_host tr)));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg_b =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg_b instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "%-50s %15s\n" "benchmark" "time/run";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] ->
          let human =
            if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
            else Printf.sprintf "%.0f ns" est
          in
          Printf.printf "%-50s %15s\n" name human
      | _ -> Printf.printf "%-50s %15s\n" name "?")
    results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E13: incremental re-certification vs full reproof                   *)

let e13_incr () =
  header "E13: incremental re-certification vs full reproof (dynamic graphs)";
  let quick = Array.length Sys.argv > 2 && Sys.argv.(2) = "quick" in
  let module Svc = Lcp_service in
  let now () = Unix.gettimeofday () in
  Printf.printf
    "  random single-edge edit streams against live delta sessions: a small\n\
    \  volatile pool of chord edges toggles on and off, so every state stays\n\
    \  connected and certifiable and revisited states are real.  incr = the\n\
    \  certd session path (content-addressed store; a hit passes the\n\
    \  verifier before serving, views its verifier accepted before are\n\
    \  answered from the view memo; misses re-prove on the transplanted\n\
    \  representation and verify in full).  full = the same session code\n\
    \  on a storeless engine, so every step is a miss.  Verdicts must\n\
    \  agree on every step.\n\n";
  Printf.printf "  %-12s %6s %7s %6s | %10s %10s %8s | %6s %9s\n" "family"
    "n" "m0" "steps" "full ms/st" "incr ms/st" "speedup" "hit%" "view hit%";
  line ();
  let open_session ~cache line =
    let job =
      match Svc.Manifest.parse line with
      | Ok [ j ] -> j
      | Ok _ -> failwith "e13: expected one job"
      | Error e -> failwith e
    in
    let engine =
      if cache then Svc.Engine.create ()
      else Svc.Engine.create ~cache_cap:1 ()
    in
    match Svc.Delta.create engine job with
    | Ok (s, r, _) ->
        (match r.Svc.Stats.r_status with
        | Svc.Stats.Served_fresh | Svc.Stats.Served_cached -> s
        | _ ->
            failwith
              (Printf.sprintf "e13: base instance not certifiable: %s"
                 (Svc.Stats.to_canonical_json r)))
    | Error (r, _) -> failwith (Svc.Stats.to_canonical_json r)
  in
  let verdict_class r =
    match r.Svc.Stats.r_status with
    | Svc.Stats.Served_fresh | Svc.Stats.Served_cached
    | Svc.Stats.Served_degraded -> `Served
    | Svc.Stats.Declined -> `Declined
    | Svc.Stats.Input_error _ -> `Input_error
    | Svc.Stats.Unsound _ | Svc.Stats.Failed _ -> `Broken
  in
  let stream ~family ~n ~steps =
    let gen = match family with "dense" -> "random" | f -> f in
    let line_of id =
      Printf.sprintf "id=%s gen=%s n=%d gseed=13 property=connected k=2 seed=11"
        id gen n
    in
    let s_inc = open_session ~cache:true (line_of ("e13i-" ^ family)) in
    let s_full = open_session ~cache:false (line_of ("e13f-" ^ family)) in
    let g0 = Svc.Delta.graph s_inc in
    let nb = G.n g0 and m0 = G.m g0 in
    (* the volatile pool: a handful of short chords (cycle edges), so a
       deletion never disconnects and both pipelines certify every
       state; 2^|pool| possible states keeps revisits honest, not
       guaranteed *)
    let srng = Random.State.make [| 0xE13; n; Hashtbl.hash family |] in
    let pool =
      let rec draw acc tries =
        if List.length acc >= 4 || tries > 200 then acc
        else
          let u = Random.State.int srng (nb - 7) in
          let e = (u, u + 2 + Random.State.int srng 5) in
          if List.mem e acc || G.mem_edge g0 (fst e) (snd e) then
            draw acc (tries + 1)
          else draw (e :: acc) (tries + 1)
      in
      Array.of_list (draw [] 0)
    in
    let t_full = ref 0.0 and t_inc = ref 0.0 in
    let hits = ref 0 in
    let view_h = ref 0 and view_m = ref 0 in
    let total = ref 0 in
    let run_step ops =
      incr total;
      let vh0 = !Lcp_cert.Memo.view_hits and vm0 = !Lcp_cert.Memo.view_misses in
      let t0 = now () in
      let ri, ii = Svc.Delta.step s_inc ~full:false ops in
      t_inc := !t_inc +. (now () -. t0);
      view_h := !view_h + (!Lcp_cert.Memo.view_hits - vh0);
      view_m := !view_m + (!Lcp_cert.Memo.view_misses - vm0);
      let t1 = now () in
      let rf, _ = Svc.Delta.step s_full ~full:true ops in
      t_full := !t_full +. (now () -. t1);
      if verdict_class ri <> verdict_class rf then
        failwith
          (Printf.sprintf "e13: verdict divergence on %s:\n  %s\n  %s" ops
             (Svc.Stats.to_canonical_json ri)
             (Svc.Stats.to_canonical_json rf));
      (match verdict_class ri with
      | `Served | `Declined -> ()
      | _ -> failwith ("e13: broken step: " ^ Svc.Stats.to_canonical_json ri));
      if ii.Svc.Delta.pi_mode = "cached" then incr hits
    in
    (* warm-in: place the pool edges (timed; these are real misses) *)
    Array.iter
      (fun (u, v) -> run_step (Printf.sprintf "add=%d-%d" u v))
      pool;
    for _ = 1 to steps do
      let u, v = pool.(Random.State.int srng (Array.length pool)) in
      let g = Svc.Delta.graph s_inc in
      let ops =
        if G.mem_edge g u v then Printf.sprintf "del=%d-%d" u v
        else Printf.sprintf "add=%d-%d" u v
      in
      run_step ops
    done;
    Printf.printf
      "  %-12s %6d %7d %6d | %10.2f %10.2f %7.1fx | %5.1f%% %8.1f%%\n%!"
      family nb m0 !total
      (1000.0 *. !t_full /. float_of_int !total)
      (1000.0 *. !t_inc /. float_of_int !total)
      (!t_full /. !t_inc)
      (100.0 *. float_of_int !hits /. float_of_int !total)
      (100.0 *. float_of_int !view_h
      /. float_of_int (max 1 (!view_h + !view_m)))
  in
  let ns = if quick then [ 1024 ] else [ 1024; 2048 ] in
  let steps = if quick then 20 else 60 in
  List.iter
    (fun family -> List.iter (fun n -> stream ~family ~n ~steps) ns)
    [ "path"; "caterpillar"; "dense" ];
  line ()

(* ------------------------------------------------------------------ *)
(* perf (E11): hot-path microbenchmarks with a committed-baseline gate   *)

module Gref = Lcp_graph.Graph_ref
module Bitenc = Lcp_util.Bitenc
module Memo = Lcp_cert.Memo

(* min over batches of the mean ns/op — the most noise-robust cheap
   estimator on a shared 1-core container (noise only ever adds time).
   Minor words are averaged the same way; they are deterministic. *)
let measure ?(batches = 5) ~iters f =
  f ();
  (* warmup *)
  let best_ns = ref infinity and best_w = ref infinity in
  for _ = 1 to batches do
    let w0 = Gc.minor_words () in
    let t0 = Monotonic_clock.now () in
    for _ = 1 to iters do
      f ()
    done;
    let ns =
      Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)
      /. float_of_int iters
    in
    let w = (Gc.minor_words () -. w0) /. float_of_int iters in
    if ns < !best_ns then best_ns := ns;
    if w < !best_w then best_w := w
  done;
  (!best_ns, !best_w)

(* The median over [pairs] of [slow]'s time over [fast]'s, each pair
   timed back to back, in alternating order. A slow spell of a shared
   host falls on both halves of a pair, where a ratio of two minima
   taken in separate batches lets it fall on one op only: taken that
   way, verify_memo_speedup_x read 1.62-3.19x over nine runs of one
   build, and the other three ratios spread as widely. *)
let paired_ratio ~pairs slow fast =
  let time f =
    let t0 = Monotonic_clock.now () in
    f ();
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)
  in
  slow ();
  fast ();
  let ratios =
    Array.init pairs (fun i ->
        if i land 1 = 0 then
          let s = time slow in
          s /. time fast
        else
          let f = time fast in
          time slow /. f)
  in
  Array.sort compare ratios;
  ratios.(pairs / 2)

(* one line per op so the baseline parser can stay line-based *)
let perf_json ~mode ops derived =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": 1,\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": %S,\n" mode);
  Buffer.add_string b "  \"ops\": {\n";
  let nops = List.length ops in
  List.iteri
    (fun i (name, ns, w) ->
      Buffer.add_string b
        (Printf.sprintf
           "    %S: {\"ns_per_op\": %.1f, \"minor_words_per_op\": %.1f}%s\n"
           name ns w
           (if i = nops - 1 then "" else ",")))
    ops;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"derived\": {\n";
  let nd = List.length derived in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "    %S: %.2f%s\n" name v
           (if i = nd - 1 then "" else ",")))
    derived;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

(* baseline parser: one op / one derived ratio per line, exactly as
   perf_json prints them *)
let parse_baseline file =
  if not (Sys.file_exists file) then None
  else begin
    let ic = open_in file in
    let ops = ref [] and derived = ref [] in
    (try
       while true do
         let line = input_line ic in
         (try
            Scanf.sscanf (String.trim line)
              "%S: {\"ns_per_op\": %f, \"minor_words_per_op\": %f"
              (fun name ns w -> ops := (name, ns, w) :: !ops)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
            try
              Scanf.sscanf (String.trim line) "%S: %f" (fun name v ->
                  derived := (name, v) :: !derived)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()))
       done
     with End_of_file -> ());
    close_in ic;
    Some (List.rev !ops, List.rev !derived)
  end

let perf () =
  header "E11: hot-path microbenchmarks (CSR graph, prove/verify, bitenc)";
  let args = Array.to_list Sys.argv in
  let quick = List.mem "quick" args in
  let update = List.mem "update" args in
  let batches = if quick then 3 else 7 in
  let prng = Random.State.make [| 20250806 |] in
  (* -- corpora (identical in quick and full mode: numbers must be
        comparable against the committed baseline either way) -- *)
  let dense_n = 512 in
  let dense_edges =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v ->
            if Random.State.float prng 1.0 < 0.25 then Some (u, v) else None)
          (List.init (dense_n - u - 1) (fun i -> u + 1 + i)))
      (List.init dense_n (fun u -> u))
  in
  let dense_csr = G.of_edges ~n:dense_n dense_edges in
  let dense_ref = Gref.of_edges ~n:dense_n dense_edges in
  let sparse_g, _ = Gen.random_pathwidth prng ~n:1024 ~k:2 () in
  let sparse_edges = G.edges sparse_g in
  let sparse_ref = Gref.of_edges ~n:1024 sparse_edges in
  let nq = 8192 in
  let queries =
    Array.init nq (fun _ ->
        (Random.State.int prng dense_n, Random.State.int prng dense_n))
  in
  let queries_sparse =
    Array.init nq (fun _ ->
        (Random.State.int prng 1024, Random.State.int prng 1024))
  in
  (* 10k-edge graph for the incremental add/remove ops *)
  let big_n = 2000 in
  let big_edges =
    let seen = Hashtbl.create 20011 in
    let acc = ref [] in
    while Hashtbl.length seen < 10_000 do
      let u = Random.State.int prng big_n and v = Random.State.int prng big_n in
      if u <> v && not (Hashtbl.mem seen (min u v, max u v)) then begin
        Hashtbl.add seen (min u v, max u v) ();
        acc := (u, v) :: !acc
      end
    done;
    !acc
  in
  let big = G.of_edges ~n:big_n big_edges in
  let fresh64 =
    let acc = ref [] and k = ref 0 in
    while !k < 64 do
      let u = Random.State.int prng big_n and v = Random.State.int prng big_n in
      if u <> v && not (G.mem_edge big u v) then begin
        acc := (u, v) :: !acc;
        incr k
      end
    done;
    !acc
  in
  let some_edges = Array.of_list (List.filteri (fun i _ -> i < 64) big_edges) in
  (* prover/verifier workload: the n=128 pw-2 instance of `timing` *)
  let n128 = 128 in
  let g128, ivs128 = Gen.random_pathwidth prng ~n:n128 ~k:2 () in
  let cfg128 = PLS.Config.random_ids prng g128 in
  let rep128 = Rep.of_pairs g128 ivs128 in
  let t1_128 = T1conn.edge_scheme ~rep:(fun _ -> Some rep128) ~k:2 () in
  let labels128 = Option.get (t1_128.PLS.Scheme.es_prove cfg128) in
  let heur c =
    Some (PW.heuristic_interval_representation (PLS.Config.graph c))
  in
  let path_g = Gen.path 256 in
  let path_cfg = PLS.Config.make path_g in
  let t1_path = T1conn.edge_scheme ~rep:heur ~k:1 () in
  let cyc_g = Gen.cycle 256 in
  let cyc_cfg = PLS.Config.make cyc_g in
  let t1_cyc = T1conn.edge_scheme ~rep:heur ~k:2 () in
  (* -- the ops -- *)
  let sink = ref 0 in
  let ops = ref [] in
  let op name ?batches:(b = batches) ~iters ~per f =
    let ns, w = measure ~batches:b ~iters f in
    let ns = ns /. float_of_int per and w = w /. float_of_int per in
    ops := (name, ns, w) :: !ops;
    Printf.printf "%-32s %12.1f ns/op %12.1f words/op\n%!" name ns w
  in
  let queries_on mem g qs () =
    Array.iter (fun (u, v) -> if mem g u v then incr sink) qs
  in
  let dense_csr_q = queries_on G.mem_edge dense_csr queries in
  let dense_ref_q = queries_on Gref.mem_edge dense_ref queries in
  let pw2_csr_q = queries_on G.mem_edge sparse_g queries_sparse in
  let pw2_ref_q = queries_on Gref.mem_edge sparse_ref queries_sparse in
  op "graph.mem_edge.dense.csr" ~iters:20 ~per:nq dense_csr_q;
  op "graph.mem_edge.dense.ref" ~iters:20 ~per:nq dense_ref_q;
  op "graph.mem_edge.pw2.csr" ~iters:20 ~per:nq pw2_csr_q;
  op "graph.mem_edge.pw2.ref" ~iters:20 ~per:nq pw2_ref_q;
  op "graph.degree.sum.csr" ~iters:200 ~per:big_n (fun () ->
      for v = 0 to big_n - 1 do
        sink := !sink + G.degree big v
      done);
  (* a ~170 us op that read 168-429 us across runs of one build: the
     min over three times the batches rides out a slow spell, as for
     labels.max_bits below *)
  op "graph.add_edges.10k+64" ~batches:(3 * batches) ~iters:20 ~per:1 (fun () ->
      ignore (G.add_edges big fresh64));
  op "graph.remove_edge.10k" ~iters:20 ~per:1 (fun () ->
      let u, v = some_edges.(0) in
      ignore (G.remove_edge big u v));
  let bits_payload = Array.init 1000 (fun i -> (i * 2654435761) land 0x1fff) in
  let w = Bitenc.writer ~capacity:8192 () in
  let encode () =
    Bitenc.reset w;
    Array.iter (fun x -> Bitenc.bits w ~width:13 x) bits_payload;
    Array.iter (fun x -> Bitenc.varint w x) bits_payload
  in
  op "bitenc.write.13b+varint" ~iters:200 ~per:2000 encode;
  encode ();
  let payload_bytes = Bitenc.to_bytes w in
  let r = Bitenc.reader payload_bytes in
  op "bitenc.read.13b+varint" ~iters:200 ~per:2000 (fun () ->
      Bitenc.reset_reader r payload_bytes;
      for _ = 1 to 1000 do
        sink := !sink + Bitenc.read_bits r ~width:13
      done;
      for _ = 1 to 1000 do
        sink := !sink + Bitenc.read_varint r
      done);
  let prove128 () = ignore (t1_128.PLS.Scheme.es_prove cfg128) in
  (* a fresh record for every label over the same frames: the view memo
     has never accepted these values, so a verify op keeps timing the
     group memo's path (the copy is about 1% of it) *)
  let fresh_records labels =
    PLS.Scheme.Edge_map.map
      (fun (l : _ Cert.label) -> { l with Cert.accept_state = l.Cert.accept_state })
      labels
  in
  let verify128 () =
    ignore (PLS.Scheme.run_edge cfg128 t1_128 (fresh_records labels128))
  in
  let memo_off f () =
    Memo.enabled := false;
    Fun.protect ~finally:(fun () -> Memo.enabled := true) f
  in
  op "prove.pw2_128" ~iters:1 ~per:1 prove128;
  op "verify.pw2_128.memo_off" ~iters:1 ~per:1 (memo_off verify128);
  (* memo-counter probe: the verifier's group and view hit rates behind
     the warm and view-hit ops below *)
  let memo_probe name f =
    Memo.reset_counters ();
    f ();
    let c = Memo.counters () in
    let rate h m = if h + m > 0 then 100.0 *. float h /. float (h + m) else 0.0 in
    let ghit = List.assoc "group_hit" c and gmiss = List.assoc "group_miss" c in
    let vhit = List.assoc "view_hit" c and vmiss = List.assoc "view_miss" c in
    Printf.printf "%-32s group hit rate %5.1f%% (%d / %d), view %5.1f%% (%d / %d)\n"
      name (rate ghit gmiss) ghit gmiss (rate vhit vmiss) vhit vmiss
  in
  memo_probe "verify.pw2_128.memo_on" verify128;
  memo_probe "verify.pw2_128.memo_on (again)" verify128;
  (* one instance verifies the same frames again and again, so after
     the warm-up this is the warm path: every hierarchy node's pure
     sub-checks are remembered (DESIGN "Group-check memo") *)
  op "verify.pw2_128.memo_on" ~iters:1 ~per:1 verify128;
  (* the very label values again: every view is one the instance has
     accepted, answered without a check (DESIGN "View memo"), as a
     delta session's memory-tier hit is *)
  op "verify.pw2_128.view_hit" ~iters:1 ~per:1 (fun () ->
      ignore (PLS.Scheme.run_edge cfg128 t1_128 labels128));
  (* the cold path a job pays: a fresh Theorem1 instance per call, so
     the group-check memo starts empty, as in every engine job *)
  let verify128_cold () =
    let module T = Lcp_cert.Theorem1.Make (A.Connectivity) in
    let t1 = T.edge_scheme ~rep:(fun _ -> Some rep128) ~k:2 () in
    ignore (PLS.Scheme.run_edge cfg128 t1 labels128)
  in
  op "verify.pw2_128.cold" ~iters:1 ~per:1 verify128_cold;
  op "e2e.path256.prove_verify" ~iters:1 ~per:1 (fun () ->
      let labels = Option.get (t1_path.PLS.Scheme.es_prove path_cfg) in
      ignore (PLS.Scheme.run_edge path_cfg t1_path labels));
  op "e2e.cycle256.prove_verify" ~iters:1 ~per:1 (fun () ->
      let labels = Option.get (t1_cyc.PLS.Scheme.es_prove cyc_cfg) in
      ignore (PLS.Scheme.run_edge cyc_cfg t1_cyc labels));
  op "e2e.pw2_128.prove_verify" ~iters:1 ~per:1 (fun () ->
      let labels = Option.get (t1_128.PLS.Scheme.es_prove cfg128) in
      ignore (PLS.Scheme.run_edge cfg128 t1_128 labels));
  (* the bit coding of a fresh n=128 job: the bundle the engine stores
     (its label bits come out of the same pass), the decode a warm hit
     pays, and the re-encoding oracle [max_edge_label_bits] *)
  let module Bundle = Lcp_service.Bundle in
  let encode_label = t1_128.PLS.Scheme.es_encode in
  let decode_label = Cert.decode ~decode_state:A.Connectivity.decode in
  let bundle128 = Result.get_ok (Bundle.encode ~encode_label g128 labels128) in
  let encode_sharing () =
    ignore (Bundle.encode_sized ~encode_label g128 labels128)
  in
  (* the same bundle written by the reference encoder, which encodes
     every repeated record again where it occurs *)
  let encode_plain () =
    ignore
      (Bundle.encode_sized
         ~encode_label:(Cert.encode_plain ~encode_state:A.Connectivity.encode)
         g128 labels128)
  in
  op "bundle.encode.pw2_128" ~iters:5 ~per:1 encode_sharing;
  op "bundle.encode.pw2_128.plain" ~iters:5 ~per:1 encode_plain;
  op "bundle.decode.pw2_128" ~iters:5 ~per:1 (fun () ->
      ignore (Bundle.decode ~decode_label g128 bundle128));
  (* what a warm hit verifies: the decoded labeling, whose repeated
     records the decoder shares as the prover does *)
  let decoded128 = Result.get_ok (Bundle.decode ~decode_label g128 bundle128) in
  op "verify.pw2_128.decoded" ~iters:1 ~per:1 (fun () ->
      ignore (PLS.Scheme.run_edge cfg128 t1_128 (fresh_records decoded128)));
  (* ~7 ms an op: three batches of five could all land in one slow
     spell of a shared host and trip the ns backstop (one of nine quick
     runs read 17.1 ms against a 6.3 ms baseline); the min over three
     times the batches rides out such a spell *)
  op "labels.max_bits.pw2_128" ~batches:(3 * batches) ~iters:5 ~per:1
    (fun () -> sink := !sink + PLS.Scheme.max_edge_label_bits t1_128 labels128);
  ignore !sink;
  let ops = List.rev !ops in
  let pairs = if quick then 9 else 15 in
  (* one pass of the query set takes 0.3-0.7 ms on the CSR side, short
     enough that a timer tick or a scheduler slice decides a pair: one
     perf quick run in four read mem_edge_dense_speedup_x below its
     floor (16 passes still failed 2 of 9). 32 and 64 passes make the
     CSR half of a pair ~20 ms; the reference half is 2-12x that. *)
  let passes k f () =
    for _ = 1 to k do
      f ()
    done
  in
  (* measured in the order printed: the elements of a list literal are
     evaluated right to left, and a ratio read just after another op's
     pairs read up to 0.1 lower than with its own pairs first *)
  (* each ratio is the median of several readings, the gated one as
     well as the recorded one: six single-reading updates of one build
     recorded mem_edge_dense_speedup_x anywhere in 9.24-12.71x and
     encode_sharing_speedup_x in 3.33-4.28x, a lucky high reading put the
     75% floor above what later quick runs read, and on a busy host one
     quick reading of encode_sharing_speedup_x ranged 3.06-3.88x *)
  let readings = if update then 5 else 3 in
  let ratio name slow fast =
    let rs = Array.init readings (fun _ -> paired_ratio ~pairs slow fast) in
    Array.sort compare rs;
    (name, rs.(readings / 2))
  in
  let dense =
    ratio "mem_edge_dense_speedup_x" (passes 32 dense_ref_q)
      (passes 32 dense_csr_q)
  in
  let pw2 =
    ratio "mem_edge_pw2_speedup_x" (passes 64 pw2_ref_q) (passes 64 pw2_csr_q)
  in
  let verify = ratio "verify_memo_speedup_x" (memo_off verify128) verify128 in
  let encode = ratio "encode_sharing_speedup_x" encode_plain encode_sharing in
  let derived = [ dense; pw2; verify; encode ] in
  line ();
  List.iter (fun (n, v) -> Printf.printf "%-32s %12.2fx\n" n v) derived;
  let fail = ref [] in
  let check cond msg = if not cond then fail := msg :: !fail in
  check
    (List.assoc "mem_edge_dense_speedup_x" derived >= 3.0)
    "mem_edge dense speedup below the 3x target";
  check
    (List.assoc "verify_memo_speedup_x" derived >= 1.5)
    "verify memo speedup below the 1.5x floor";
  (* the sharing encoder copies 93-97% of an n=128 bundle's bits
     instead of encoding them (DESIGN "Sharing encode") *)
  check
    (List.assoc "encode_sharing_speedup_x" derived >= 1.5)
    "sharing encode speedup below the 1.5x floor";
  (* -- gate against the committed baseline --
     Wall-clock on this class of shared 1-core container swings ~2x
     between identical back-to-back runs, so a tight ns gate would be
     pure noise. The tight 25% gates sit on the load-invariant signals:
     allocated minor words per op (deterministic for a given build) and
     the in-run speedup ratios (both sides of a ratio feel the same
     machine load). ns/op keeps only a catastrophic 2.5x backstop. *)
  let baseline_file = "BENCH_PERF.json" in
  (match parse_baseline baseline_file with
  | None -> Printf.printf "\nno committed %s; gate skipped\n" baseline_file
  | Some (base, base_derived) ->
      Printf.printf
        "\ngate vs %s (+25%% words, +150%% ns backstop, ratios >= 75%%):\n"
        baseline_file;
      List.iter
        (fun (name, bns, bw) ->
          match List.find_opt (fun (n, _, _) -> n = name) ops with
          | None -> ()
          | Some (_, ns, w) ->
              let ns_ok = ns <= (bns *. 2.5) +. 100.0 in
              let w_ok = w <= (bw *. 1.25) +. 16.0 in
              Printf.printf "  %-32s %s (%.1f -> %.1f ns, %.1f -> %.1f words)\n"
                name
                (if ns_ok && w_ok then "ok" else "REGRESSED")
                bns ns bw w;
              if not ns_ok then
                check false (Printf.sprintf "%s: ns/op regressed >150%%" name);
              if not w_ok then
                check false
                  (Printf.sprintf "%s: minor words/op regressed >25%%" name))
        base;
      List.iter
        (fun (name, bv) ->
          match List.assoc_opt name derived with
          | None -> ()
          | Some v ->
              let ok = v >= bv *. 0.75 in
              Printf.printf "  %-32s %s (%.2fx -> %.2fx)\n" name
                (if ok then "ok" else "REGRESSED")
                bv v;
              if not ok then
                check false
                  (Printf.sprintf "%s: speedup ratio dropped >25%%" name))
        base_derived);
  let out = perf_json ~mode:(if quick then "quick" else "full") ops derived in
  let out_file = if update then baseline_file else "BENCH_PERF.current.json" in
  let oc = open_out out_file in
  output_string oc out;
  close_out oc;
  Printf.printf "\nwrote %s\n" out_file;
  if !fail <> [] then begin
    List.iter (fun m -> Printf.eprintf "PERF: FAIL — %s\n" m) !fail;
    exit 1
  end
  else Printf.printf "PERF: all gates passed\n\n"

(* ------------------------------------------------------------------ *)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let all =
    [
      ("e1", e1); ("e2", e2); ("e3", e3); ("e5", e5); ("e6", e6); ("e7", e7);
      ("faults", faults); ("service", service); ("scale", scale);
      ("recovery", recovery); ("chaos", chaos); ("crash", e14_crash);
      ("timing", timing); ("incr", e13_incr);
    ]
  in
  (* perf is the regression *gate*, not an experiment: it is run
     explicitly (check.sh) and deliberately excluded from "all" *)
  match List.assoc_opt what (("perf", perf) :: all) with
  | Some f -> f ()
  | None ->
      if what = "all" then List.iter (fun (_, f) -> f ()) all
      else begin
        Printf.eprintf "unknown experiment %S; known: perf %s all\n" what
          (String.concat " " (List.map fst all));
        exit 1
      end
