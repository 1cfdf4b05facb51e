(* The adversarial soundness campaign: sweep generators x schemes x fault
   models over seeded trials, classify every injected fault, drive
   recovery, and aggregate the soundness matrix (see EXPERIMENTS.md §E5).

   Faults are transient (Korman–Kutten–Peleg): detection runs first in
   the faulty world (silent processors raise no alarm, forged ids are in
   force) and, if the fault masked every alarm, once more in the honest
   world after the fault has ceased — that second round must catch every
   effective fault, so the campaign's escape counter stays at zero unless
   a scheme's soundness (or the network simulation itself) regresses. *)

module Graph = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module Rep = Lcp_interval.Representation
module PLS = Lcp_pls
module S = PLS.Scheme
module N = PLS.Network
module F = PLS.Fault
module A = Lcp_algebra
module T1conn = Theorem1.Make (A.Connectivity)
module T1acy = Theorem1.Make (A.Acyclicity)
module Fconn = Baseline_fmr.Make (A.Connectivity)

(* ------------------------------------------------------------------ *)
(* the scheme roster *)

type armed =
  | Edge : 'l S.edge_scheme * 'l F.codec option -> armed
  | Vertex : 'l S.vertex_scheme * 'l F.codec option -> armed

type instance = {
  i_name : string;
  arm : Random.State.t -> PLS.Config.t * armed;
      (* one fresh trial: a random configuration plus the scheme (and
         label codec, when the scheme has one) to attack on it *)
}

let conn_codec =
  {
    F.c_encode = Certificate.encode ~encode_state:A.Connectivity.encode;
    F.c_decode = (fun r -> Certificate.decode ~decode_state:A.Connectivity.decode r);
  }

let acy_codec =
  {
    F.c_encode = Certificate.encode ~encode_state:A.Acyclicity.encode;
    F.c_decode = (fun r -> Certificate.decode ~decode_state:A.Acyclicity.decode r);
  }

let pointer_codec =
  { F.c_encode = PLS.Spanning_tree.encode; F.c_decode = PLS.Spanning_tree.decode }

let universal_codec =
  { F.c_encode = PLS.Universal.encode; F.c_decode = PLS.Universal.decode }

let bipartite_codec =
  {
    F.c_encode = PLS.Bipartite_scheme.encode;
    F.c_decode = PLS.Bipartite_scheme.decode;
  }

let random_rep rng ?extra_edge_prob () =
  let k = 1 + Random.State.int rng 2 in
  let n = 8 + Random.State.int rng 9 in
  let g, ivs = Gen.random_pathwidth rng ~n ~k ?extra_edge_prob () in
  let rep = Rep.of_pairs g ivs in
  (k, g, fun _ -> Some rep)

let instances =
  [
    {
      i_name = "theorem1-connectivity";
      arm =
        (fun rng ->
          let k, g, rep = random_rep rng () in
          let cfg = PLS.Config.random_ids rng g in
          (cfg, Edge (T1conn.edge_scheme ~rep ~k (), Some conn_codec)));
    };
    {
      i_name = "theorem1-acyclicity";
      arm =
        (fun rng ->
          (* extra_edge_prob 0 makes the generator emit trees *)
          let k, g, rep = random_rep rng ~extra_edge_prob:0.0 () in
          let cfg = PLS.Config.random_ids rng g in
          (cfg, Edge (T1acy.edge_scheme ~rep ~k (), Some acy_codec)));
    };
    {
      i_name = "fmr-connectivity";
      arm =
        (fun rng ->
          let k, g, rep = random_rep rng () in
          let cfg = PLS.Config.random_ids rng g in
          (cfg, Vertex (Fconn.scheme ~rep ~k (), None)));
    };
    {
      i_name = "spanning-tree-pointer";
      arm =
        (fun rng ->
          let n = 8 + Random.State.int rng 9 in
          let g, _ = Gen.random_pathwidth rng ~n ~k:2 () in
          let cfg = PLS.Config.random_ids rng g in
          let scheme = PLS.Spanning_tree.scheme ~target:(PLS.Config.id cfg 0) in
          (cfg, Edge (scheme, Some pointer_codec)));
    };
    {
      i_name = "bipartite-1bit";
      arm =
        (fun rng ->
          let dim () = 2 + Random.State.int rng 3 in
          let g =
            match Random.State.int rng 3 with
            | 0 -> Gen.grid (dim ()) (dim ())
            | 1 -> Gen.cycle (2 * (3 + Random.State.int rng 5))
            | _ -> Gen.complete_bipartite (dim ()) (dim ())
          in
          let cfg = PLS.Config.random_ids rng g in
          (cfg, Vertex (PLS.Bipartite_scheme.scheme, Some bipartite_codec)));
    };
    {
      i_name = "universal";
      arm =
        (fun rng ->
          let n = 5 + Random.State.int rng 5 in
          let g, _ = Gen.random_pathwidth rng ~n ~k:2 () in
          let cfg = PLS.Config.random_ids rng g in
          let scheme =
            PLS.Universal.scheme ~name:"universal" ~property:(fun _ -> true)
          in
          (cfg, Vertex (scheme, Some universal_codec)));
    };
  ]

let scheme_names = List.map (fun i -> i.i_name) instances
let fault_names = List.map F.spec_name F.catalogue

let fault_of_name name =
  List.find_opt (fun s -> F.spec_name s = name) F.catalogue

(* ------------------------------------------------------------------ *)
(* one trial *)

type outcome =
  | Skipped
  | No_op
  | Legal
  | Caught of {
      latency : int;
      localized : bool;
      rounds : int;
      reasons : string list;
    }
  | Escape of string

let reasons_of t =
  List.filter_map
    (fun (_, v) -> match v with N.Reject m -> Some m | N.Accept -> None)
    t.N.verdicts

(* repair a detected fault: patch the rejecting region from the fresh
   (honest) proof and re-verify; reinstall globally when the patch does
   not convince the network *)
let recover_edge cfg scheme ~honest ~current region =
  let patched = N.patch_region cfg ~fresh:honest ~current ~region in
  if N.accepted (N.run_edge_round cfg scheme patched) then (true, 1)
  else (false, 2)

let recover_vertex cfg scheme ~honest ~current region =
  let patched =
    Array.mapi
      (fun v l -> if List.mem v region then Some honest.(v) else l)
      current
  in
  if N.accepted (N.run_vertex_partial cfg scheme patched) then (true, 1)
  else (false, 2)

let edge_trial rng cfg scheme codec spec =
  match scheme.S.es_prove cfg with
  | None -> Skipped
  | Some honest -> (
      if not (N.accepted (N.run_edge_round cfg scheme honest)) then
        Escape "honest certificate rejected (completeness failure)"
      else
        match F.inject_edge ~rng ?codec cfg scheme honest spec with
        | None -> Skipped
        | Some world -> (
            let current = world.F.ew_labels in
            match F.classify_edge cfg scheme ~honest world with
            | F.No_op -> No_op
            | F.Legal_rewrite ->
                (* the round simulation accepted the rewritten state; the
                   direct harness must agree or the simulation leaks *)
                if S.accepted (S.run_edge cfg scheme current) then Legal
                else Escape "round simulation and direct harness disagree"
            | F.Detected { latency; detectors; reasons } ->
                let localized, rounds =
                  recover_edge cfg scheme ~honest ~current detectors
                in
                Caught { latency; localized; rounds; reasons }
            | F.Undetected_effective -> (
                (* masked while the fault was live; the transient fault
                   ends and the next honest round must raise the alarm *)
                let t = N.run_edge_round cfg scheme current in
                if N.accepted t then Escape "effective fault never detected"
                else
                  let localized, rounds =
                    recover_edge cfg scheme ~honest ~current (N.rejectors t)
                  in
                  Caught
                    {
                      latency = 1 + t.N.rounds;
                      localized;
                      rounds;
                      reasons = reasons_of t;
                    })))

let vertex_trial rng cfg scheme codec spec =
  match scheme.S.vs_prove cfg with
  | None -> Skipped
  | Some honest -> (
      if not (N.accepted (N.run_vertex_round cfg scheme honest)) then
        Escape "honest certificate rejected (completeness failure)"
      else
        match F.inject_vertex ~rng ?codec cfg scheme honest spec with
        | None -> Skipped
        | Some world -> (
            let current = world.F.vw_labels in
            match F.classify_vertex cfg scheme ~honest world with
            | F.No_op -> No_op
            | F.Legal_rewrite ->
                if
                  Array.for_all Option.is_some current
                  && S.accepted
                       (S.run_vertex cfg scheme (Array.map Option.get current))
                then Legal
                else Escape "round simulation and direct harness disagree"
            | F.Detected { latency; detectors; reasons } ->
                let localized, rounds =
                  recover_vertex cfg scheme ~honest ~current detectors
                in
                Caught { latency; localized; rounds; reasons }
            | F.Undetected_effective -> (
                let t = N.run_vertex_partial cfg scheme current in
                if N.accepted t then Escape "effective fault never detected"
                else
                  let localized, rounds =
                    recover_vertex cfg scheme ~honest ~current (N.rejectors t)
                  in
                  Caught
                    {
                      latency = 1 + t.N.rounds;
                      localized;
                      rounds;
                      reasons = reasons_of t;
                    })))

(* ------------------------------------------------------------------ *)
(* the campaign *)

type cell = {
  c_scheme : string;
  c_fault : string;
  c_trials : int;
  c_injected : int;
  c_no_op : int;
  c_legal : int;
  c_detected : int;
  c_masked : int;
  c_latency_sum : int;
  c_localized : int;
  c_global : int;
  c_recovery_rounds : int;
  c_escapes : int;
}

type report = {
  cells : cell list;
  reasons : (string * int) list;
  schemes : int;
  fault_models : int;
  total_injected : int;
  total_effective : int;
  total_detected : int;
  total_escapes : int;
  escape_notes : (string * string * string) list;
}

let run ?(seed = 20250806) ?(trials = 30) ?schemes ?(faults = F.catalogue) ()
    =
  let selected =
    match schemes with
    | None -> instances
    | Some names -> List.filter (fun i -> List.mem i.i_name names) instances
  in
  if selected = [] then invalid_arg "Faultsim.run: no scheme selected";
  if faults = [] then invalid_arg "Faultsim.run: no fault model selected";
  let reason_tbl = Hashtbl.create 16 in
  let bump_reason m =
    let slug = Reject_reason.classify m in
    let c = try Hashtbl.find reason_tbl slug with Not_found -> 0 in
    Hashtbl.replace reason_tbl slug (c + 1)
  in
  let escape_notes = ref [] in
  let cells =
    List.concat_map
      (fun inst ->
        List.map
          (fun spec ->
            (* a cell-local seed: deterministic, independent of the order
               cells run in, distinct per (scheme, fault) *)
            let rng =
              Random.State.make
                [|
                  seed;
                  Hashtbl.hash inst.i_name;
                  Hashtbl.hash (F.spec_name spec);
                |]
            in
            let injected = ref 0 and no_op = ref 0 and legal = ref 0 in
            let detected = ref 0 and masked = ref 0 and latency_sum = ref 0 in
            let localized = ref 0 and global = ref 0 in
            let rec_rounds = ref 0 and escapes = ref 0 in
            for _ = 1 to trials do
              let cfg, armed = inst.arm rng in
              let outcome =
                match armed with
                | Edge (scheme, codec) -> edge_trial rng cfg scheme codec spec
                | Vertex (scheme, codec) ->
                    vertex_trial rng cfg scheme codec spec
              in
              match outcome with
              | Skipped -> ()
              | No_op ->
                  incr injected;
                  incr no_op
              | Legal ->
                  incr injected;
                  incr legal
              | Caught { latency; localized = loc; rounds; reasons } ->
                  incr injected;
                  incr detected;
                  latency_sum := !latency_sum + latency;
                  if latency > 1 then incr masked;
                  if loc then incr localized else incr global;
                  rec_rounds := !rec_rounds + rounds;
                  List.iter bump_reason reasons
              | Escape note ->
                  incr injected;
                  incr escapes;
                  escape_notes :=
                    (inst.i_name, F.spec_name spec, note) :: !escape_notes
            done;
            {
              c_scheme = inst.i_name;
              c_fault = F.spec_name spec;
              c_trials = trials;
              c_injected = !injected;
              c_no_op = !no_op;
              c_legal = !legal;
              c_detected = !detected;
              c_masked = !masked;
              c_latency_sum = !latency_sum;
              c_localized = !localized;
              c_global = !global;
              c_recovery_rounds = !rec_rounds;
              c_escapes = !escapes;
            })
          faults)
      selected
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cells in
  let reasons =
    List.filter_map
      (fun slug ->
        match Hashtbl.find_opt reason_tbl slug with
        | Some c -> Some (slug, c)
        | None -> None)
      Reject_reason.slugs
  in
  {
    cells;
    reasons;
    schemes = List.length selected;
    fault_models = List.length faults;
    total_injected = sum (fun c -> c.c_injected);
    total_effective = sum (fun c -> c.c_detected + c.c_escapes);
    total_detected = sum (fun c -> c.c_detected);
    total_escapes = sum (fun c -> c.c_escapes);
    escape_notes = !escape_notes;
  }

(* ------------------------------------------------------------------ *)
(* the soundness matrix *)

let print_matrix r =
  Printf.printf "%-24s %-13s %4s %6s %6s %5s %5s %6s %6s %5s %5s %4s\n"
    "scheme" "fault" "inj" "no-op" "legal" "det" "mask" "rate" "lat~" "loc"
    "glob" "ESC";
  List.iter
    (fun c ->
      let effective = c.c_detected + c.c_escapes in
      let rate =
        if effective = 0 then 100.0
        else 100.0 *. float_of_int c.c_detected /. float_of_int effective
      in
      let lat =
        if c.c_detected = 0 then 0.0
        else float_of_int c.c_latency_sum /. float_of_int c.c_detected
      in
      Printf.printf "%-24s %-13s %4d %6d %6d %5d %5d %5.0f%% %6.2f %5d %5d %4d\n"
        c.c_scheme c.c_fault c.c_injected c.c_no_op c.c_legal c.c_detected
        c.c_masked rate lat c.c_localized c.c_global c.c_escapes)
    r.cells;
  Printf.printf
    "\nschemes: %d   fault models: %d   injected: %d   effective: %d   \
     detected: %d   escapes: %d\n"
    r.schemes r.fault_models r.total_injected r.total_effective
    r.total_detected r.total_escapes;
  Printf.printf "rejection taxonomy:";
  List.iter (fun (slug, c) -> Printf.printf "  %s=%d" slug c) r.reasons;
  print_newline ();
  if r.total_escapes > 0 then begin
    print_newline ();
    List.iter
      (fun (s, f, note) -> Printf.printf "ESCAPE  %s / %s: %s\n" s f note)
      r.escape_notes
  end
