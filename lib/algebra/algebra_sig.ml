(** Property algebras: the homomorphism classes of Prop 2.4 / Prop 6.1,
    made executable.

    A state abstracts a graph with a *boundary* — an injectively labeled
    set of distinguished vertices ("slots", named by integers; the
    certification pipeline uses host vertex ids). Two graphs with equal
    states are indistinguishable by the property under every composition,
    which is exactly the homomorphism-class contract of Prop 2.4. Each
    MSO₂-expressible property of the catalogue supplies the finite state
    and the composition operations below; the generic lift in {!Lift} then
    evaluates any k-lane hierarchy (Bridge-merge = union + add_edge,
    Parent-merge = union + identify + forget, per the proof of Prop 6.1).

    Contract: slot sets are explicit; [introduce] requires a fresh slot;
    [add_edge]/[identify] require existing slots; [union] requires disjoint
    slot sets; [accepts] is meaningful once every slot has been forgotten.
    All operations must be deterministic (prover and verifier recompute and
    compare states for equality). States are values that [equal] compares
    and [encode] writes; nothing caches or keys on them, since the prover
    and each verifier compose every hierarchy node once. *)

module type S = sig
  type state

  val name : string
  (** Short identifier, e.g. "connected". *)

  val description : string

  val empty : state
  (** The empty graph. *)

  val introduce : state -> int -> state
  (** Add an isolated vertex as a new boundary slot. *)

  val add_edge : state -> int -> int -> state
  (** Add an edge between two distinct boundary slots. *)

  val forget : state -> int -> state
  (** Remove a slot from the boundary; the vertex remains in the graph. *)

  val union : state -> state -> state
  (** Disjoint union. *)

  val identify : state -> keep:int -> drop:int -> state
  (** Glue the vertices at two slots into one; the result keeps slot
      [keep], and [drop] leaves the boundary. Composition targets
      *simple* graphs (Def 2.3): self-loops and parallel edges produced
      by the gluing collapse, and algebras must account for that. *)

  val rename : state -> old_slot:int -> new_slot:int -> state

  val slots : state -> int list
  (** Sorted boundary slots. *)

  val accepts : state -> bool
  (** Whether the property holds for the abstracted graph; requires an
      empty boundary. *)

  val equal : state -> state -> bool

  val encode : Lcp_util.Bitenc.writer -> state -> unit
  (** Bit-exact encoding, used to measure certificate sizes. *)

  val pp : Format.formatter -> state -> unit
end

(** Ground truth for testing an algebra: a direct (global, non-local)
    decision procedure for the same property. *)
module type ORACLE = sig
  include S

  val oracle : Lcp_graph.Graph.t -> bool
end
