(** The acyclicity (forest) algebra: partition of the boundary by tree
    component, capped pairwise distances between boundary slots of the
    same component, plus a sticky "cycle seen" flag.

    The distances are what make the algebra exact under *simple-graph*
    composition (Def 2.3): gluing two vertices of one tree component
    creates a self-loop when they are adjacent (distance 1) and a
    parallel edge when they share a neighbor (distance 2) — both vanish
    when the composed graph is flattened to a simple graph — and only a
    genuine cycle at distance >= 3. Distances are capped at 3 ("3 or
    more"), which the min-plus composition updates preserve exactly, so
    the state space stays finite. *)

module Bitenc = Lcp_util.Bitenc

module Pair = struct
  type t = int * int

  let compare = compare
end

module PM = Map.Make (Pair)

type state = {
  partition : Slot_partition.t;
  dists : int PM.t;
      (* capped distance (1..3) for every unordered pair of distinct
         slots in the same partition class; keys are (min, max) *)
  cyclic : bool;
}

let name = "acyclic"
let description = "the graph has no cycle (is a forest)"
let empty = { partition = Slot_partition.empty; dists = PM.empty; cyclic = false }

(* 3 means "3 or more": every threshold the algebra needs (self-loop at 1,
   parallel edge at 2, real cycle at >= 3) is decidable under this cap,
   and saturating min-plus keeps it exact. *)
let cap d = min d 3

let key a b = if a < b then (a, b) else (b, a)

(* total on malformed states: honestly built states record a distance for
   every same-class pair, but a state decoded from an adversarial label
   need not — treat a missing pair as "far" so that verification
   recomputes a mismatching state (and rejects) instead of crashing *)
let get dists x y =
  if x = y then 0
  else match PM.find_opt (key x y) dists with Some d -> d | None -> 3

let set dists x y d = if x = y then dists else PM.add (key x y) (cap d) dists
let drop_slot dists s = PM.filter (fun (a, b) _ -> a <> s && b <> s) dists

(* likewise total: an unknown slot (possible only in a decoded adversarial
   state) acts as its own singleton class *)
let class_of partition s =
  match List.find_opt (List.mem s) (Slot_partition.classes partition) with
  | Some c -> c
  | None -> [ s ]

let introduce st s =
  { st with partition = Slot_partition.add_singleton st.partition s }

(* a–b become connected through a new link of length [extra] (1 for an
   edge, 0 for an identification); their components were disjoint, so
   every new finite distance crosses the link exactly once *)
let connect st a b ~extra =
  let ca = class_of st.partition a and cb = class_of st.partition b in
  let dists =
    List.fold_left
      (fun acc x ->
        List.fold_left
          (fun acc y -> set acc x y (get st.dists x a + extra + get st.dists b y))
          acc cb)
      st.dists ca
  in
  { st with partition = Slot_partition.merge st.partition a b; dists }

(* a–b gain a second connection of length [extra] inside one component:
   relax every pair through it (a shortest route uses it at most once) *)
let relax st a b ~extra =
  let cls = class_of st.partition a in
  let dists =
    List.fold_left
      (fun acc x ->
        List.fold_left
          (fun acc y ->
            if x >= y then acc
            else
              let d = get st.dists x y in
              let via =
                min
                  (get st.dists x a + extra + get st.dists b y)
                  (get st.dists x b + extra + get st.dists a y)
              in
              set acc x y (min d via))
          acc cls)
      st.dists cls
  in
  { st with dists }

let add_edge st a b =
  if Slot_partition.same_class st.partition a b then
    if get st.dists a b = 1 then st
      (* duplicate of an existing edge: collapses in the simple graph *)
    else { (relax st a b ~extra:1) with cyclic = true }
  else connect st a b ~extra:1

let forget st s =
  let partition, _ = Slot_partition.remove st.partition s in
  (* interior vertices keep carrying paths, so the other distances stand *)
  { st with partition; dists = drop_slot st.dists s }

let union a b =
  {
    partition = Slot_partition.union a.partition b.partition;
    dists = PM.union (fun _ _ _ -> assert false) a.dists b.dists;
    cyclic = a.cyclic || b.cyclic;
  }

let identify st ~keep ~drop =
  let st =
    if Slot_partition.same_class st.partition keep drop then begin
      (* gluing within one tree: distance 1 folds a self-loop away,
         distance 2 collapses a parallel edge, distance >= 3 closes a
         genuine cycle of the simple graph *)
      let cyclic = st.cyclic || get st.dists keep drop >= 3 in
      { (relax st keep drop ~extra:0) with cyclic }
    end
    else connect st keep drop ~extra:0
  in
  (* [keep] and [drop] were just merged, so removing [drop] cannot empty
     the class on honest states; on adversarial ones we simply proceed *)
  let partition, _emptied = Slot_partition.remove st.partition drop in
  { st with partition; dists = drop_slot st.dists drop }

let rename st ~old_slot ~new_slot =
  {
    st with
    partition = Slot_partition.rename st.partition ~old_slot ~new_slot;
    dists =
      PM.fold
        (fun (a, b) d acc ->
          let r s = if s = old_slot then new_slot else s in
          PM.add (key (r a) (r b)) d acc)
        st.dists PM.empty;
  }

let slots st = Slot_partition.slots st.partition

let accepts st =
  (* a complete evaluation has no boundary left; a decoded adversarial
     state might — such a state accepts nothing *)
  slots st = [] && not st.cyclic

let equal a b =
  Slot_partition.equal a.partition b.partition
  && PM.equal ( = ) a.dists b.dists
  && a.cyclic = b.cyclic

let encode w st =
  Slot_partition.encode w st.partition;
  Bitenc.varint w (PM.cardinal st.dists);
  PM.iter
    (fun (a, b) d ->
      Bitenc.varint w (abs a);
      Bitenc.varint w (abs b);
      Bitenc.varint w d)
    st.dists;
  Bitenc.bit w st.cyclic

let decode r =
  let partition = Slot_partition.decode r in
  let count = Bitenc.read_varint r in
  let dists = ref PM.empty in
  for _ = 1 to count do
    let a = Bitenc.read_varint r in
    let b = Bitenc.read_varint r in
    let d = Bitenc.read_varint r in
    dists := PM.add (key a b) (cap d) !dists
  done;
  let cyclic = Bitenc.read_bit r in
  { partition; dists = !dists; cyclic }

let pp ppf st =
  Format.fprintf ppf "acyclic(%a;%a cyclic=%b)" Slot_partition.pp st.partition
    (fun ppf m ->
      PM.iter (fun (a, b) d -> Format.fprintf ppf " d(%d,%d)=%d" a b d) m)
    st.dists st.cyclic

let oracle = Lcp_graph.Traversal.is_acyclic
