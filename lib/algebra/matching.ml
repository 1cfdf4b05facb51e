(** The perfect-matching algebra: the state is the set of achievable
    "profiles", where a profile is the set of boundary vertices already
    covered by the partial matching and every non-boundary vertex is
    required to be covered. A graph has a perfect matching iff the full
    profile is achievable once the boundary is empty. *)

module Bitenc = Lcp_util.Bitenc

type profile = int list (* sorted subset of slots that are matched *)

type state = {
  slot_list : int list;
  profiles : profile list; (* sorted set *)
}

let name = "perfect_matching"
let description = "the graph admits a perfect matching"

let empty = { slot_list = []; profiles = [ [] ] }

let canonical ps = List.sort_uniq compare ps

let introduce st s =
  if List.mem s st.slot_list then invalid_arg "Matching.introduce: slot exists";
  { st with slot_list = List.sort compare (s :: st.slot_list) }

let add_edge st a b =
  let use p =
    if List.mem a p || List.mem b p then None
    else Some (List.sort compare (a :: b :: p))
  in
  {
    st with
    profiles = canonical (st.profiles @ List.filter_map use st.profiles);
  }

let forget st s =
  {
    slot_list = List.filter (fun x -> x <> s) st.slot_list;
    profiles =
      canonical
        (List.filter_map
           (fun p ->
             if List.mem s p then Some (List.filter (fun x -> x <> s) p)
             else None)
           st.profiles);
  }

let union a b =
  if List.exists (fun s -> List.mem s b.slot_list) a.slot_list then
    invalid_arg "Matching.union: slot sets not disjoint";
  {
    slot_list = List.sort compare (a.slot_list @ b.slot_list);
    profiles =
      canonical
        (List.concat_map
           (fun pa -> List.map (fun pb -> List.sort compare (pa @ pb)) b.profiles)
           a.profiles);
  }

let identify st ~keep ~drop =
  let merge p =
    match (List.mem keep p, List.mem drop p) with
    | true, true -> None (* the glued vertex would be doubly matched *)
    | false, false -> Some p
    | _ ->
        Some (List.sort_uniq compare (keep :: List.filter (fun x -> x <> drop) p))
  in
  {
    slot_list = List.filter (fun x -> x <> drop) st.slot_list;
    profiles = canonical (List.filter_map merge st.profiles);
  }

let rename st ~old_slot ~new_slot =
  if List.mem new_slot st.slot_list then invalid_arg "Matching.rename: slot exists";
  let r s = if s = old_slot then new_slot else s in
  {
    slot_list = List.sort compare (List.map r st.slot_list);
    profiles = canonical (List.map (fun p -> List.sort compare (List.map r p)) st.profiles);
  }

let slots st = st.slot_list

let accepts st =
  assert (st.slot_list = []);
  List.mem [] st.profiles

let equal a b = a.slot_list = b.slot_list && a.profiles = b.profiles

let encode w st =
  Bitenc.varint w (List.length st.slot_list);
  List.iter (fun s -> Bitenc.varint w (abs s)) st.slot_list;
  Bitenc.varint w (List.length st.profiles);
  List.iter
    (fun p ->
      (* profile as a bitmap over the sorted slot list *)
      List.iter (fun s -> Bitenc.bit w (List.mem s p)) st.slot_list)
    st.profiles

(* inverse of [encode] for nonnegative slot names (host vertex ids):
   profiles come back as bitmaps over the sorted slot list *)
let decode r =
  let nslots = Bitenc.read_varint r in
  let slot_list = Bitenc.read_n nslots (fun () -> Bitenc.read_varint r) in
  let nprofiles = Bitenc.read_varint r in
  (* one bit per slot, read strictly in slot order *)
  let rec read_profile = function
    | [] -> []
    | s :: rest ->
        let b = Bitenc.read_bit r in
        if b then s :: read_profile rest else read_profile rest
  in
  let profiles =
    (* without slots every profile is the empty one and reads no bits, so
       any count canonicalizes to one empty profile: a corrupt count must
       not cost a read per profile. With slots, a count the remaining
       bits cannot hold is out of data before the first read. *)
    if nslots = 0 then if nprofiles > 0 then [ [] ] else []
    else if nprofiles > Bitenc.bits_remaining r / nslots then
      invalid_arg "Matching.decode: out of data for the profiles"
    else Bitenc.read_n nprofiles (fun () -> read_profile slot_list)
  in
  (* strictly increasing is exactly what [canonical] returns unchanged *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> compare a b < 0 && increasing rest
    | [] | [ _ ] -> true
  in
  let profiles =
    if increasing profiles then profiles else canonical profiles
  in
  { slot_list; profiles }

let pp ppf st =
  Format.fprintf ppf "pm(slots=%s; %d profiles)"
    (String.concat "," (List.map string_of_int st.slot_list))
    (List.length st.profiles)

(* brute force: match the first uncovered vertex with some neighbor *)
let oracle g =
  let module Graph = Lcp_graph.Graph in
  let n = Graph.n g in
  let covered = Array.make n false in
  let rec go v =
    if v = n then true
    else if covered.(v) then go (v + 1)
    else
      List.exists
        (fun w ->
          if covered.(w) || w < v then false
          else begin
            covered.(v) <- true;
            covered.(w) <- true;
            let ok = go (v + 1) in
            covered.(v) <- false;
            covered.(w) <- false;
            ok
          end)
        (Graph.neighbors g v)
  in
  if n mod 2 = 1 then false else go 0
