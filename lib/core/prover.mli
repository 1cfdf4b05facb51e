(** The centralized certificate assignment P of Theorem 1.

    Pipeline: width-(k+1) interval representation → lane partition
    (Prop 4.6, or the greedy Obs 4.3 partition as an ablation) → completion
    G' plus a low-congestion embedding of the virtual edges → lanewidth
    construction trace (Prop 5.2) → T-node hierarchical decomposition
    (Prop 5.6) → homomorphism classes of every node (Prop 6.1, computed on
    the real-edge subgraph) → per-edge certificates: the frame stack of
    each G'-edge, transported embedding records for virtual edges, pointer
    sub-labels for V-node parts and for the global root (Prop 2.2). *)

type strategy =
  [ `Prop46  (** guaranteed O(1) congestion, f(k+1) lanes *)
  | `Greedy  (** ≤ k+1 lanes, no congestion guarantee — ablation *) ]

module Make (A : Lcp_algebra.Algebra_sig.S) : sig
  type labeling = A.state Certificate.label Lcp_pls.Scheme.Edge_map.t

  type artifacts = {
    labels : labeling;
    completion : Lcp_graph.Graph.t;
    hierarchy : Lcp_lanewidth.Hierarchy.t;
    lane_count : int;
    congestion : int;  (** measured embedding congestion *)
    holds : bool;  (** whether the property holds on the real graph *)
  }

  val prepare :
    ?strategy:strategy ->
    ?rep:Lcp_interval.Representation.t ->
    ?max_lanes:int ->
    Lcp_pls.Config.t ->
    (artifacts, string) result
  (** Build everything, including certificates, regardless of whether the
      property holds (used by soundness tests: an honest structure with a
      failing property must still be rejected via [accept_state]). When
      [rep] is omitted, the exact small-graph algorithm computes one.
      The representation must belong to the configuration's graph.
      With [max_lanes], a lane partition of more lanes is an [Error],
      returned before the trace, the hierarchy and the certificates are
      built: those grow with the lane count, and a verifier bounded by
      [max_lanes] would reject the labels anyway. *)

  val prove :
    ?strategy:strategy ->
    ?rep:Lcp_interval.Representation.t ->
    ?max_lanes:int ->
    Lcp_pls.Config.t ->
    (labeling, string) result
  (** [P]: like {!prepare}, but declines when the property does not hold
      (completeness side of the definition in §1.1). *)
end
