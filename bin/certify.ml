(* Command-line driver: build a graph, run the Theorem 1 prover for a
   chosen MSO₂ property, simulate distributed verification, and report
   proof sizes — with optional adversarial corruption to watch the
   verifier reject.

   Examples:
     certify.exe --family cycle -n 30 --property connected
     certify.exe --family random -n 60 -k 2 --property bipartite --corrupt
     certify.exe --family caterpillar -n 24 --property acyclic --scheme fmr
     certify.exe --input graphs/net.g6 -k 2 --property connected *)

module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module Rep = Lcp_interval.Representation
module PW = Lcp_interval.Pathwidth
module PLS = Lcp_pls
module S = PLS.Scheme
module EM = S.Edge_map
module A = Lcp_algebra
module Cert = Lcp_cert.Certificate

let make_generated family n k seed =
  let rng = Random.State.make [| seed |] in
  match family with
  | "path" -> (Gen.path n, None, 1)
  | "cycle" -> (Gen.cycle n, None, 2)
  | "caterpillar" -> (Gen.caterpillar ~spine:(max 1 (n / 3)) ~legs:2, None, 1)
  | "ladder" -> (Gen.ladder (max 2 (n / 2)), None, 2)
  | "star" -> (Gen.star (max 1 (n - 1)), None, 1)
  | "random" ->
      let g, ivs = Gen.random_pathwidth rng ~n ~k () in
      (g, Some (Rep.of_pairs g ivs), k)
  | f ->
      Printf.eprintf "unknown family %S\n" f;
      exit 2

let make_graph input family n k seed =
  match input with
  | None -> make_generated family n k seed
  | Some file -> (
      match Lcp_service.Graph_io.load_file file with
      | Ok g ->
          (* no promised bound comes with a file: if the user gave none,
             derive one from an interval representation of the graph *)
          let default_k =
            if k > 0 then k
            else
              max 1
                (Lcp_interval.Representation.width
                   (if G.n g <= 20 then PW.exact_interval_representation g
                    else PW.heuristic_interval_representation g)
                - 1)
          in
          (g, None, default_k)
      | Error e ->
          let formats = Lcp_service.Graph_io.supported_formats_doc () in
          let already_listed =
            (* the unknown-extension error already names the formats *)
            let rec mem i =
              i + 10 <= String.length e && (String.sub e i 10 = "supported:" || mem (i + 1))
            in
            mem 0
          in
          Printf.eprintf "%s\n%s" e
            (if already_listed then ""
             else Printf.sprintf "supported formats: %s\n" formats);
          exit 2)

let report_edge_scheme name scheme cfg ~corrupt rng =
  match scheme.S.es_prove cfg with
  | None ->
      Printf.printf "prover: DECLINED (the property does not hold)\n";
      `Declined
  | Some labels ->
      Printf.printf "prover: certificate assigned to %d edges\n"
        (EM.cardinal labels);
      Printf.printf "proof size: max %d bits per edge label\n"
        (S.max_edge_label_bits scheme labels);
      let labels =
        if not corrupt then labels
        else begin
          let bindings = EM.bindings labels in
          let e, l =
            List.nth bindings (Random.State.int rng (List.length bindings))
          in
          Printf.printf "corrupting the label of edge %d-%d ...\n" (fst e)
            (snd e);
          EM.add labels e
            {
              l with
              Cert.global_ptr =
                {
                  l.Cert.global_ptr with
                  PLS.Spanning_tree.target =
                    l.Cert.global_ptr.PLS.Spanning_tree.target + 1;
                };
            }
        end
      in
      (match S.run_edge cfg scheme labels with
      | S.Accepted ->
          Printf.printf "verification (%s): ALL %d VERTICES ACCEPT\n" name
            (PLS.Config.n cfg);
          `Accepted
      | S.Rejected rs ->
          Printf.printf "verification (%s): %d vertex(es) REJECT\n" name
            (List.length rs);
          List.iteri
            (fun i (v, reason) ->
              if i < 5 then Printf.printf "  vertex %d: %s\n" v reason)
            rs;
          `Rejected)

let run input family n k property strategy scheme_kind seed corrupt =
  let g, rep, default_k = make_graph input family n k seed in
  let k = if k > 0 then k else default_k in
  let rng = Random.State.make [| seed + 1 |] in
  let cfg = PLS.Config.random_ids rng g in
  Printf.printf "graph: %s n=%d m=%d, promised pathwidth <= %d\n"
    (match input with
    | Some f -> Printf.sprintf "input=%s" f
    | None -> Printf.sprintf "family=%s" family)
    (G.n g) (G.m g) k;
  let rep_fn =
    match rep with
    | Some r -> fun _ -> Some r
    | None ->
        fun c ->
          let g = PLS.Config.graph c in
          if G.n g <= 20 then Some (PW.exact_interval_representation g)
          else Some (PW.heuristic_interval_representation g)
  in
  let outcome =
    if scheme_kind = "fmr" then begin
      let report name scheme =
        match scheme.S.vs_prove cfg with
        | None ->
            Printf.printf "prover: DECLINED (the property does not hold)\n";
            `Declined
        | Some labels ->
            Printf.printf "proof size: max %d bits per vertex label\n"
              (S.max_vertex_label_bits scheme labels);
            (match S.run_vertex cfg scheme labels with
            | S.Accepted ->
                Printf.printf "verification (%s): ALL VERTICES ACCEPT\n" name;
                `Accepted
            | S.Rejected rs ->
                Printf.printf "verification (%s): %d vertices reject\n" name
                  (List.length rs);
                `Rejected)
      in
      match property with
      | "connected" ->
          let module F = Lcp_cert.Baseline_fmr.Make (A.Connectivity) in
          report "fmr/connected" (F.scheme ~rep:rep_fn ~k ())
      | "acyclic" ->
          let module F = Lcp_cert.Baseline_fmr.Make (A.Acyclicity) in
          report "fmr/acyclic" (F.scheme ~rep:rep_fn ~k ())
      | "bipartite" ->
          let module F = Lcp_cert.Baseline_fmr.Make (A.Bipartite) in
          report "fmr/bipartite" (F.scheme ~rep:rep_fn ~k ())
      | p ->
          Printf.eprintf "fmr scheme supports connected|acyclic|bipartite, not %S\n" p;
          exit 2
    end
    else begin
      let run_alg (type s) (module Alg : A.Algebra_sig.S with type state = s) =
        let module T1 = Lcp_cert.Theorem1.Make (Alg) in
        report_edge_scheme
          (Printf.sprintf "theorem1/%s" Alg.name)
          (T1.edge_scheme ~strategy ~rep:rep_fn ~k ())
          cfg ~corrupt rng
      in
      match property with
      | "connected" -> run_alg (module A.Connectivity)
      | "acyclic" -> run_alg (module A.Acyclicity)
      | "bipartite" -> run_alg (module A.Bipartite)
      | "is_path" -> run_alg (module A.Combinators.Is_path_graph)
      | "is_cycle" -> run_alg (module A.Combinators.Is_cycle_graph)
      | "triangle_free" -> run_alg (module A.Triangle_free)
      | "perfect_matching" -> run_alg (module A.Matching)
      | "hamiltonian_path" -> run_alg (module A.Hamiltonian.Path_alg)
      | p ->
          Printf.eprintf "unknown property %S\n" p;
          exit 2
    end
  in
  match outcome with
  | `Accepted -> exit 0
  | `Declined -> exit 1
  | `Rejected -> exit (if corrupt then 0 else 1)

open Cmdliner

let input =
  Arg.(
    value
    & opt (some string) None
    & info [ "input" ] ~docv:"FILE"
        ~doc:
          "Certify the graph in $(docv) instead of a generated family. \
           The format is inferred from the extension: .dimacs/.col \
           (DIMACS edge list), .g6 (graph6), .adj/.lcp (native \
           adjacency lists).")

let family =
  Arg.(
    value
    & opt string "cycle"
    & info [ "family" ] ~docv:"FAMILY"
        ~doc:"Graph family: path, cycle, caterpillar, ladder, star, random.")

let n =
  Arg.(value & opt int 24 & info [ "n" ] ~docv:"N" ~doc:"Number of vertices.")

let k =
  Arg.(
    value
    & opt int 0
    & info [ "k" ]
        ~doc:"Promised pathwidth bound (0 = family default).")

let property =
  Arg.(
    value
    & opt string "connected"
    & info [ "property" ] ~docv:"PROP"
        ~doc:
          "MSO2 property: connected, acyclic, bipartite, is_path, is_cycle, \
           triangle_free, perfect_matching, hamiltonian_path.")

let strategy =
  Arg.(
    value
    & opt
        (enum [ ("hybrid", `Hybrid); ("prop46", `Prop46); ("greedy", `Greedy) ])
        `Hybrid
    & info [ "strategy" ]
        ~doc:
          "Lane partition strategy: hybrid (default: greedy when it meets \
           the Prop 4.6 bounds, else prop46), prop46 or greedy.")

let scheme_kind =
  Arg.(
    value
    & opt string "theorem1"
    & info [ "scheme" ] ~doc:"Scheme: theorem1 (default) or fmr baseline.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let corrupt =
  Arg.(
    value & flag
    & info [ "corrupt" ]
        ~doc:"Corrupt one label after proving, to watch the rejection.")

let cmd =
  let doc = "certify an MSO2 property on a bounded-pathwidth network" in
  Cmd.v
    (Cmd.info "certify" ~doc)
    Term.(
      const run $ input $ family $ n $ k $ property $ strategy $ scheme_kind
      $ seed $ corrupt)

let () = exit (Cmd.eval cmd)
