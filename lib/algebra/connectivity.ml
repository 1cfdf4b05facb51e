(** The connectivity algebra: state = partition of the boundary into
    connected components, plus the number of components that already lost
    all their boundary vertices ("closed"). A graph is connected iff, after
    forgetting everything, at most one component was ever closed. *)

module Bitenc = Lcp_util.Bitenc

type state = {
  partition : Slot_partition.t;
  closed : int;
}

let name = "connected"
let description = "the graph is connected"

let empty = { partition = Slot_partition.empty; closed = 0 }

let introduce st s = { st with partition = Slot_partition.add_singleton st.partition s }

let add_edge st a b = { st with partition = Slot_partition.merge st.partition a b }

(* the closed count is capped at 2: beyond that the graph is disconnected
   no matter what happens later, and the cap keeps the state space finite *)
let cap c = min c 2

let forget st s =
  let partition, emptied = Slot_partition.remove st.partition s in
  { partition; closed = cap (st.closed + if emptied then 1 else 0) }

let union a b =
  {
    partition = Slot_partition.union a.partition b.partition;
    closed = cap (a.closed + b.closed);
  }

let identify st ~keep ~drop =
  let partition = Slot_partition.merge st.partition keep drop in
  let partition, emptied = Slot_partition.remove partition drop in
  assert (not emptied);
  { st with partition }

let rename st ~old_slot ~new_slot =
  { st with partition = Slot_partition.rename st.partition ~old_slot ~new_slot }

let slots st = Slot_partition.slots st.partition

let accepts st =
  assert (slots st = []);
  st.closed <= 1

let equal a b = Slot_partition.equal a.partition b.partition && a.closed = b.closed

let encode w st =
  Slot_partition.encode w st.partition;
  Bitenc.varint w st.closed

let decode r =
  let partition = Slot_partition.decode r in
  let closed = Bitenc.read_varint r in
  { partition; closed }

let pp ppf st =
  Format.fprintf ppf "conn(%a; closed=%d)" Slot_partition.pp st.partition
    st.closed

let oracle = Lcp_graph.Traversal.is_connected
