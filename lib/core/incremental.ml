(** Edge deltas for dynamic graphs: the textual delta codec,
    normalization, application, and the representation transplant.

    The lane/window structure of Theorem 1 is a function of the
    {e interval representation}: the partition, the completion host and
    the hierarchy skeleton. An edge delta that stays {e inside} the
    representation (removals always do; an addition does iff its
    endpoints' intervals already intersect) keeps the representation
    valid, so a session can reuse it instead of computing a fresh
    one.

    The labels themselves do not survive an edit: the Prop 4.6 spine is
    a shortest path of the current graph and the pointer sub-labels
    carry BFS distances, so one edit moves almost every label, and the
    service re-proves and re-verifies the whole graph each step. The
    dirty-window closure ([dirty_marks]) measures how far an edit
    reaches in the representation; nothing relies on it for
    soundness. *)

module Graph = Lcp_graph.Graph
module Interval = Lcp_interval.Interval
module Representation = Lcp_interval.Representation

type delta = { add : Graph.edge list; del : Graph.edge list }

let empty_delta = { add = []; del = [] }

let delta_size d = List.length d.add + List.length d.del

let is_empty d = d.add = [] && d.del = []

(* ---------------------------------------------------------------- *)
(* the textual form: "add=0-1,2-3 del=4-5" (either key optional)     *)

let print_delta d =
  let part key = function
    | [] -> []
    | es ->
        [
          key ^ "="
          ^ String.concat ","
              (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) es);
        ]
  in
  String.concat " " (part "add" d.add @ part "del" d.del)

let parse_delta s =
  let ( let* ) = Result.bind in
  let parse_edge tok =
    match String.index_opt tok '-' with
    | None -> Error (Printf.sprintf "edge %S is not of the form U-V" tok)
    | Some i -> (
        let a = String.sub tok 0 i in
        let b = String.sub tok (i + 1) (String.length tok - i - 1) in
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some u, Some v when u >= 0 && v >= 0 -> Ok (u, v)
        | _ -> Error (Printf.sprintf "edge %S is not of the form U-V" tok))
  in
  let parse_edges v =
    if v = "" then Ok []
    else
      List.fold_left
        (fun acc tok ->
          let* acc = acc in
          let* e = parse_edge tok in
          Ok (e :: acc))
        (Ok [])
        (String.split_on_char ',' v)
      |> Result.map List.rev
  in
  let toks =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "" && t <> "\r")
  in
  let* d =
    List.fold_left
      (fun acc tok ->
        let* d = acc in
        match String.index_opt tok '=' with
        | None ->
            Error (Printf.sprintf "token %S is not add=... or del=..." tok)
        | Some i -> (
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            let* es = parse_edges v in
            match k with
            | "add" -> Ok { d with add = d.add @ es }
            | "del" -> Ok { d with del = d.del @ es }
            | _ -> Error (Printf.sprintf "unknown delta key %S" k)))
      (Ok empty_delta) toks
  in
  Ok d

(* ---------------------------------------------------------------- *)
(* normalization and application                                     *)

(** Canonicalize against the current graph: orient and deduplicate
    edges, reject self-loops, out-of-range vertices, and edges named in
    both parts; drop no-op operations (adding a present edge, removing
    an absent one). The normalized delta applied to [g] is exactly the
    requested edit, and [normalize] is idempotent. *)
let normalize g d =
  let n = Graph.n g in
  let ( let* ) = Result.bind in
  let canon_all part es =
    List.fold_left
      (fun acc (u, v) ->
        let* acc = acc in
        if u < 0 || u >= n || v < 0 || v >= n then
          Error
            (Printf.sprintf "%s %d-%d: vertex out of range (n=%d)" part u v n)
        else if u = v then
          Error (Printf.sprintf "%s %d-%d: self-loops are not edges" part u v)
        else Ok (Graph.canonical_edge u v :: acc))
      (Ok []) es
    |> Result.map (List.sort_uniq compare)
  in
  let* add = canon_all "add" d.add in
  let* del = canon_all "del" d.del in
  match List.find_opt (fun e -> List.mem e del) add with
  | Some (u, v) ->
      Error (Printf.sprintf "edge %d-%d is both added and removed" u v)
  | None ->
      Ok
        {
          add = List.filter (fun (u, v) -> not (Graph.mem_edge g u v)) add;
          del = List.filter (fun (u, v) -> Graph.mem_edge g u v) del;
        }

(** Apply a normalized delta: removals first, then additions. *)
let apply g d =
  let g = List.fold_left (fun g (u, v) -> Graph.remove_edge g u v) g d.del in
  Graph.add_edges g d.add

(* ---------------------------------------------------------------- *)
(* representation transplant                                         *)

(** Reuse the previous interval representation on the edited graph.
    Removals never invalidate a representation; an added edge is
    covered iff its endpoints' intervals intersect. On success the
    width — and with it the lane bound the verifier enforces — is
    unchanged and the hierarchy skeleton is identical. [Error] means
    the edit left the old windows (the caller falls back to a fresh
    representation). *)
let transplant rep g' =
  let ivs = Representation.intervals rep in
  if Array.length ivs <> Graph.n g' then
    Error
      (Printf.sprintf "vertex count changed (%d -> %d)" (Array.length ivs)
         (Graph.n g'))
  else
    match Representation.validate g' ivs with
    | Ok () -> Ok (Representation.make g' ivs)
    | Error e -> Error e

(* ---------------------------------------------------------------- *)
(* dirty windows                                                     *)

(** The window-overlap closure of the delta's endpoints: marks every
    vertex whose interval intersects the interval of an endpoint of an
    added or removed edge. This is the region whose lane partitions
    and composition states the edit can perturb — the skeleton outside
    it is a function of unchanged intervals and unchanged realness.
    The labels are not so confined (see the header). *)
let dirty_marks rep d =
  let n = Graph.n (Representation.graph rep) in
  let marks = Array.make n false in
  let touch e =
    let ie = Representation.interval rep e in
    for v = 0 to n - 1 do
      if (not marks.(v)) && Interval.intersects ie (Representation.interval rep v)
      then marks.(v) <- true
    done
  in
  List.iter
    (fun (u, v) ->
      touch u;
      touch v)
    (d.add @ d.del);
  marks

let dirty_count rep d =
  Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 (dirty_marks rep d)

(* ---------------------------------------------------------------- *)
(* the session prover                                                *)

module Make (A : Lcp_algebra.Algebra_sig.S) = struct
  module P = Prover.Make (A)

  type labeling = P.labeling
end
