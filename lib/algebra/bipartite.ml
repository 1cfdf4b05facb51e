(** The bipartiteness (2-colorability) algebra: a parity partition — the
    boundary partitioned into components, each slot carrying its color
    relative to the component's minimum slot — plus a sticky odd-cycle
    flag. This is the compact state (polynomial in the boundary size) that
    replaces the exponential "set of proper colorings" view. *)

module Bitenc = Lcp_util.Bitenc

type state = {
  (* canonical: classes sorted by min slot; within a class slots sorted;
     the minimum slot of each class has parity [false] *)
  classes : (int * bool) list list;
  odd : bool;
}

let name = "bipartite"
let description = "the graph is 2-colorable"

let normalize_class c =
  let c = List.sort compare c in
  match c with
  | [] -> []
  | (_, p0) :: _ -> if p0 then List.map (fun (s, p) -> (s, not p)) c else c

let canonical classes =
  classes
  |> List.filter (fun c -> c <> [])
  |> List.map normalize_class
  |> List.sort compare

let empty = { classes = []; odd = false }

let mem st s = List.exists (List.exists (fun (x, _) -> x = s)) st.classes

let class_and_parity st s =
  let rec go = function
    | [] -> invalid_arg "Bipartite: unknown slot"
    | c :: rest -> (
        match List.assoc_opt s c with
        | Some p -> (c, p)
        | None -> go rest)
  in
  go st.classes

let introduce st s =
  if mem st s then invalid_arg "Bipartite.introduce: slot exists";
  { st with classes = canonical ([ (s, false) ] :: st.classes) }

(* join the classes of a and b such that a's parity relates to b's parity
   by [relation] (true = must differ, false = must agree); set the odd flag
   when they are already in the same class and the constraint fails *)
let constrain st a b ~must_differ =
  let ca, pa = class_and_parity st a in
  let cb, pb = class_and_parity st b in
  if ca = cb then
    if (pa <> pb) = must_differ then st else { st with odd = true }
  else begin
    let need_flip = if must_differ then pa = pb else pa <> pb in
    let cb = if need_flip then List.map (fun (s, p) -> (s, not p)) cb else cb in
    let others =
      List.filter
        (fun c ->
          (not (List.exists (fun (s, _) -> s = a) c))
          && not (List.exists (fun (s, _) -> s = b) c))
        st.classes
    in
    { st with classes = canonical ((ca @ cb) :: others) }
  end

let add_edge st a b = constrain st a b ~must_differ:true

let forget st s =
  let classes =
    List.map (List.filter (fun (x, _) -> x <> s)) st.classes
  in
  { st with classes = canonical classes }

let union a b =
  let sa = List.concat_map (List.map fst) a.classes in
  if List.exists (fun s -> mem b s) sa then
    invalid_arg "Bipartite.union: slot sets not disjoint";
  { classes = canonical (a.classes @ b.classes); odd = a.odd || b.odd }

let identify st ~keep ~drop =
  let st = constrain st keep drop ~must_differ:false in
  forget st drop

let rename st ~old_slot ~new_slot =
  if mem st new_slot then invalid_arg "Bipartite.rename: slot exists";
  {
    st with
    classes =
      canonical
        (List.map
           (List.map (fun (s, p) -> ((if s = old_slot then new_slot else s), p)))
           st.classes);
  }

let slots st =
  List.concat_map (List.map fst) st.classes |> List.sort compare

let accepts st =
  assert (slots st = []);
  not st.odd

let equal a b = a.classes = b.classes && a.odd = b.odd

let encode w st =
  Bitenc.varint w (List.length st.classes);
  List.iter
    (fun c ->
      Bitenc.varint w (List.length c);
      List.iter
        (fun (s, p) ->
          Bitenc.varint w (abs s);
          Bitenc.bit w p)
        c)
    st.classes;
  Bitenc.bit w st.odd

(* [canonical] returns its input unchanged (structurally) exactly when
   no class is empty, every class is sorted with a [false]-parity
   minimum, and the classes are sorted: the sorts are stable and equal
   elements are structurally equal. *)
let rec sorted = function
  | a :: (b :: _ as rest) -> compare a b <= 0 && sorted rest
  | [] | [ _ ] -> true

let is_canonical classes =
  List.for_all
    (function [] | (_, true) :: _ -> false | c -> sorted c)
    classes
  && sorted classes

let rec read_n n f = if n <= 0 then [] else
  let x = f () in
  x :: read_n (n - 1) f

let decode r =
  let nclasses = Bitenc.read_varint r in
  let classes =
    read_n nclasses (fun () ->
        let size = Bitenc.read_varint r in
        read_n size (fun () ->
            let s = Bitenc.read_varint r in
            let p = Bitenc.read_bit r in
            (s, p)))
  in
  let odd = Bitenc.read_bit r in
  let classes = if is_canonical classes then classes else canonical classes in
  { classes; odd }

let pp ppf st =
  Format.fprintf ppf "bip({%s}; odd=%b)"
    (String.concat " | "
       (List.map
          (fun c ->
            String.concat ","
              (List.map
                 (fun (s, p) -> Printf.sprintf "%d%s" s (if p then "'" else ""))
                 c))
          st.classes))
    st.odd

let oracle g =
  (* BFS 2-coloring *)
  let n = Lcp_graph.Graph.n g in
  let color = Array.make n (-1) in
  let ok = ref true in
  for s = 0 to n - 1 do
    if color.(s) < 0 then begin
      color.(s) <- 0;
      let q = Queue.create () in
      Queue.push s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun v ->
            if color.(v) < 0 then begin
              color.(v) <- 1 - color.(u);
              Queue.push v q
            end
            else if color.(v) = color.(u) then ok := false)
          (Lcp_graph.Graph.neighbors g u)
      done
    end
  done;
  !ok
