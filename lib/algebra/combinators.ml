(** Boolean combinators on property algebras: the product constructions
    behind "φ₁ ∧ φ₂" etc. The state of a conjunction is the pair of states;
    homomorphism classes compose pointwise, so all Prop 6.1 machinery lifts
    unchanged. *)

module Not (A : Algebra_sig.S) : Algebra_sig.S with type state = A.state =
struct
  include A

  let name = "not_" ^ A.name
  let description = "negation of: " ^ A.description
  let accepts st = not (A.accepts st)
end

module Pair (A : Algebra_sig.S) (B : Algebra_sig.S) = struct
  type state = A.state * B.state

  let empty = (A.empty, B.empty)
  let introduce (a, b) s = (A.introduce a s, B.introduce b s)
  let add_edge (a, b) x y = (A.add_edge a x y, B.add_edge b x y)
  let forget (a, b) s = (A.forget a s, B.forget b s)
  let union (a1, b1) (a2, b2) = (A.union a1 a2, B.union b1 b2)

  let identify (a, b) ~keep ~drop =
    (A.identify a ~keep ~drop, B.identify b ~keep ~drop)

  let rename (a, b) ~old_slot ~new_slot =
    (A.rename a ~old_slot ~new_slot, B.rename b ~old_slot ~new_slot)

  let slots (a, _) = A.slots a
  let equal (a1, b1) (a2, b2) = A.equal a1 a2 && B.equal b1 b2

  let encode w (a, b) =
    A.encode w a;
    B.encode w b

  let pp ppf (a, b) = Format.fprintf ppf "(%a, %a)" A.pp a B.pp b
end

module And (A : Algebra_sig.S) (B : Algebra_sig.S) :
  Algebra_sig.S with type state = A.state * B.state = struct
  include Pair (A) (B)

  let name = A.name ^ "_and_" ^ B.name
  let description = A.description ^ " AND " ^ B.description
  let accepts (a, b) = A.accepts a && B.accepts b
end

module Or (A : Algebra_sig.S) (B : Algebra_sig.S) :
  Algebra_sig.S with type state = A.state * B.state = struct
  include Pair (A) (B)

  let name = A.name ^ "_or_" ^ B.name
  let description = A.description ^ " OR " ^ B.description
  let accepts (a, b) = A.accepts a || B.accepts b
end

(** "The graph is a path": connected, acyclic, max degree ≤ 2. *)
module Is_path_graph = struct
  module D2 = Degree.Max_degree (struct
    let d = 2
  end)

  module CA = And (Connectivity) (Acyclicity)
  include And (CA) (D2)

  let name = "is_path_graph"
  let description = "the graph is a simple path"
  let oracle = Lcp_graph.Traversal.is_path_graph
end

(** "The graph is a cycle": connected and 2-regular — the paper's canonical
    Ω(log n)-bit rejection target. *)
module Is_cycle_graph = struct
  module R2 = Degree.Regular (struct
    let d = 2
  end)

  include And (Connectivity) (R2)

  let name = "is_cycle_graph"
  let description = "the graph is a simple cycle"
  let oracle = Lcp_graph.Traversal.is_cycle_graph
end
