(** Degree-constraint algebras: "maximum degree ≤ d" and "d-regular".
    State: the degree of each boundary vertex, capped at d+1, plus a sticky
    violation flag raised when a vertex leaves the boundary with a bad
    degree. Combined with {!Connectivity} these recognize path graphs
    (max degree ≤ 2 ∧ connected ∧ acyclic) and cycle graphs (2-regular ∧
    connected) — the paper's canonical Ω(log n) pair. *)

module Bitenc = Lcp_util.Bitenc

module type PARAM = sig
  val d : int
end

module Common (P : PARAM) = struct
  type state = {
    deg : (int * int) list; (* slot ↦ degree capped at d+1, sorted *)
    bad : bool;
  }

  let cap x = min x (P.d + 1)

  let empty = { deg = []; bad = false }

  let introduce st s =
    if List.mem_assoc s st.deg then invalid_arg "Degree.introduce: slot exists";
    { st with deg = List.sort compare ((s, 0) :: st.deg) }

  let get st s =
    match List.assoc_opt s st.deg with
    | Some d -> d
    | None -> invalid_arg "Degree: unknown slot"

  let set st s v =
    { st with deg = List.sort compare ((s, v) :: List.remove_assoc s st.deg) }

  let add_edge st a b =
    let st = set st a (cap (get st a + 1)) in
    set st b (cap (get st b + 1))

  let union a b =
    if List.exists (fun (s, _) -> List.mem_assoc s b.deg) a.deg then
      invalid_arg "Degree.union: slot sets not disjoint";
    { deg = List.sort compare (a.deg @ b.deg); bad = a.bad || b.bad }

  let rename st ~old_slot ~new_slot =
    if List.mem_assoc new_slot st.deg then
      invalid_arg "Degree.rename: slot exists";
    {
      st with
      deg =
        List.sort compare
          (List.map
             (fun (s, d) -> ((if s = old_slot then new_slot else s), d))
             st.deg);
    }

  let slots st = List.map fst st.deg

  let equal a b = a.deg = b.deg && a.bad = b.bad

  let encode w st =
    Bitenc.varint w (List.length st.deg);
    List.iter
      (fun (s, d) ->
        Bitenc.varint w (abs s);
        Bitenc.varint w d)
      st.deg;
    Bitenc.bit w st.bad

  let accepts st =
    assert (slots st = []);
    not st.bad
end

module Max_degree (P : PARAM) = struct
  include Common (P)

  let name = Printf.sprintf "max_degree<=%d" P.d
  let description = Printf.sprintf "every vertex has degree at most %d" P.d

  let forget st s =
    let d = get st s in
    { deg = List.remove_assoc s st.deg; bad = st.bad || d > P.d }

  let identify st ~keep ~drop =
    let d = cap (get st keep + get st drop) in
    let st = set st keep d in
    { st with deg = List.remove_assoc drop st.deg }

  let pp ppf st =
    Format.fprintf ppf "maxdeg(%s; bad=%b)"
      (String.concat ","
         (List.map (fun (s, d) -> Printf.sprintf "%d:%d" s d) st.deg))
      st.bad

  let oracle g = Lcp_graph.Graph.max_degree g <= P.d
end

module Regular (P : PARAM) = struct
  include Common (P)

  let name = Printf.sprintf "%d-regular" P.d
  let description = Printf.sprintf "every vertex has degree exactly %d" P.d

  let forget st s =
    let d = get st s in
    { deg = List.remove_assoc s st.deg; bad = st.bad || d <> P.d }

  let identify st ~keep ~drop =
    let d = cap (get st keep + get st drop) in
    let st = set st keep d in
    { st with deg = List.remove_assoc drop st.deg }

  let pp ppf st =
    Format.fprintf ppf "regular(%s; bad=%b)"
      (String.concat ","
         (List.map (fun (s, d) -> Printf.sprintf "%d:%d" s d) st.deg))
      st.bad

  let oracle g =
    Lcp_graph.Graph.fold_vertices
      (fun v acc -> acc && Lcp_graph.Graph.degree g v = P.d)
      g true
end
