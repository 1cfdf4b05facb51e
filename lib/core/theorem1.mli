(** Theorem 1, assembled: for any property algebra (any MSO₂ property, per
    Prop 2.4) and any pathwidth bound k, an O(log n)-bit proof labeling
    scheme.

    The edge scheme is faithful to the paper's model: the verifier sees
    only its identifier and the multiset of incident edge labels. The
    vertex scheme is derived via Prop 2.1 (bounded-pathwidth graphs have
    bounded degeneracy). *)

module Make (A : Lcp_algebra.Algebra_sig.S) : sig
  module P : module type of Prover.Make (A)
  module V : module type of Verifier.Make (A)

  val edge_scheme :
    ?strategy:Prover.strategy ->
    ?rep:(Lcp_pls.Config.t -> Lcp_interval.Representation.t option) ->
    k:int ->
    unit ->
    A.state Certificate.label Lcp_pls.Scheme.edge_scheme
  (** [~k] is the promised pathwidth bound; the verifier enforces
      lane indices < f(k+1) and stack depth ≤ 2·f(k+1). [rep] optionally
      supplies a width-(k+1) interval representation per configuration
      (e.g. a generator witness); otherwise the exact algorithm runs.
      The prover declines when the lane partition of that
      representation has more than f(k+1) lanes (a representation
      wider than k+1 can give one), before building the certificates
      the verifier would reject. [strategy] picks the lane partition
      (default [`Hybrid], see {!Prover.strategy}); the verifier is the
      same for all three. *)

  val vertex_scheme :
    ?strategy:Prover.strategy ->
    ?rep:(Lcp_pls.Config.t -> Lcp_interval.Representation.t option) ->
    k:int ->
    unit ->
    (int * int * A.state Certificate.label) list Lcp_pls.Scheme.vertex_scheme

  val max_lanes_for : k:int -> int
  (** f(k+1): the lane bound the verifier enforces. *)
end
