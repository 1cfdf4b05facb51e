type t = int list list
(* canonical: each class sorted ascending; classes sorted by head *)

let canonical classes =
  classes
  |> List.filter (fun c -> c <> [])
  |> List.map (List.sort compare)
  |> List.sort compare

(* The operations below maintain the canonical form incrementally — one
   ordered insertion instead of re-sorting every class — and keep the
   untouched classes physically shared with the input. They reproduce
   the reference [canonical]-based results byte for byte, including on
   adversarial decoded partitions with duplicate or overlapping classes
   (structural filters remove every copy, exactly as the old full
   re-canonicalization did); [rename] falls back to the reference path
   in that adversarial corner. *)

let rec insert_class c = function
  | [] -> [ c ]
  | c' :: rest as l ->
      if compare c c' <= 0 then c :: l else c' :: insert_class c rest

let rec insert_slot s = function
  | [] -> [ s ]
  | x :: rest as l -> if s <= x then s :: l else x :: insert_slot s rest

let empty = []

let mem t s = List.exists (List.mem s) t

let add_singleton t s =
  if mem t s then invalid_arg "Slot_partition.add_singleton: slot exists";
  insert_class [ s ] t

let class_of t s = List.find_opt (List.mem s) t

let merge t a b =
  match (class_of t a, class_of t b) with
  | Some ca, Some cb ->
      if ca == cb || ca = cb then t
      else
        insert_class
          (List.merge compare ca cb)
          (List.filter (fun c -> c <> ca && c <> cb) t)
  | _ -> invalid_arg "Slot_partition.merge: unknown slot"

let same_class t a b =
  match (class_of t a, class_of t b) with
  | Some ca, Some cb -> ca == cb || ca = cb
  | _ -> invalid_arg "Slot_partition.same_class: unknown slot"

let remove t s =
  match class_of t s with
  | None -> invalid_arg "Slot_partition.remove: unknown slot"
  | Some c ->
      let c' = List.filter (fun x -> x <> s) c in
      let rest = List.filter (fun cl -> cl <> c) t in
      if c' = [] then (rest, true) else (insert_class c' rest, false)

let slots t = List.concat t |> List.sort compare

let classes t = t

let class_count t = List.length t

let rename t ~old_slot ~new_slot =
  if mem t new_slot then invalid_arg "Slot_partition.rename: slot exists";
  match class_of t old_slot with
  | None -> t
  | Some c ->
      let rec count_occ n = function
        | [] -> n
        | x :: rest -> count_occ (if x = old_slot then n + 1 else n) rest
      in
      if
        count_occ 0 c = 1
        && not (List.exists (fun cl -> cl != c && List.mem old_slot cl) t)
      then
        let c' =
          insert_slot new_slot (List.filter (fun x -> x <> old_slot) c)
        in
        insert_class c' (List.filter (fun cl -> cl != c) t)
      else
        (* adversarial duplicate/overlap: reference path *)
        canonical
          (List.map
             (List.map (fun x -> if x = old_slot then new_slot else x))
             t)

let union t1 t2 =
  let s1 = slots t1 in
  if List.exists (fun s -> mem t2 s) s1 then
    invalid_arg "Slot_partition.union: slot sets not disjoint";
  List.merge compare t1 t2

let equal a b = a = b
let compare = compare

let encode w t =
  Lcp_util.Bitenc.varint w (List.length t);
  List.iter
    (fun c ->
      Lcp_util.Bitenc.varint w (List.length c);
      List.iter (fun s -> Lcp_util.Bitenc.varint w (abs s)) c)
    t

let rec read_slots r n =
  if n <= 0 then []
  else
    let s = Lcp_util.Bitenc.read_varint r in
    s :: read_slots r (n - 1)

let rec read_classes r n =
  if n <= 0 then []
  else
    let c = read_slots r (Lcp_util.Bitenc.read_varint r) in
    c :: read_classes r (n - 1)

(* [canonical t] is structurally equal to [t] exactly when no class is
   empty, every class is sorted and the classes are sorted: the sorts
   are stable and equal elements are structurally equal. *)
let rec sorted_slots = function
  | (a : int) :: (b :: _ as rest) -> a <= b && sorted_slots rest
  | [] | [ _ ] -> true

let rec is_canonical = function
  | [] -> true
  | c :: rest -> (
      c <> [] && sorted_slots c
      &&
      match rest with
      | c' :: _ -> compare c c' <= 0 && is_canonical rest
      | [] -> true)

let decode r =
  let t = read_classes r (Lcp_util.Bitenc.read_varint r) in
  if is_canonical t then t else canonical t

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat " | "
       (List.map
          (fun c -> String.concat "," (List.map string_of_int c))
          t))
