(** The centralized certificate assignment P of Theorem 1.

    Pipeline: width-(k+1) interval representation → lane partition (the
    greedy Obs 4.3 partition when it meets Prop 4.6's bounds, else the
    Prop 4.6 one) → completion G' plus a low-congestion embedding of the
    virtual edges → lanewidth construction trace (Prop 5.2) → T-node
    hierarchical decomposition (Prop 5.6) → homomorphism classes of every
    node (Prop 6.1, computed on the real-edge subgraph) → per-edge
    certificates: the frame stack of each G'-edge, transported embedding
    records for virtual edges, pointer sub-labels for V-node parts and for
    the global root (Prop 2.2). *)

type strategy =
  [ `Hybrid
    (** the default: the greedy partition with shortest-path embeddings
        when it has at most k+1 lanes (the representation is no wider
        than k+1) and congestion at most h(k+1), within the bounds
        Theorem 1's O(log n) argument needs; Prop 4.6 otherwise *)
  | `Prop46  (** guaranteed O(1) congestion, f(k+1) lanes — ablation *)
  | `Greedy  (** ≤ k+1 lanes, no congestion guarantee — ablation *) ]

val lanes_fallback : int ref
(** Prepares that built the Prop 4.6 partition: under [`Hybrid], those
    whose greedy partition missed a bound; every [`Prop46] prepare counts
    too. A process-wide total, reported in the certd footer and
    [--server-stats]. *)

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
      [max_lanes] would reject the labels anyway. [`Hybrid] (the
      default) keeps the greedy partition when it has at most w lanes
      and congestion at most h(w), where f(w) = [max_lanes] (w = k+1 for
      Theorem 1's scheme), or w is the representation's width without
      [max_lanes]. Only which honest certificate is built depends on
      [strategy]: [`Hybrid] serves and declines what [`Prop46] does. *)

  val prove :
    ?strategy:strategy ->
    ?rep:Lcp_interval.Representation.t ->
    ?max_lanes:int ->
    Lcp_pls.Config.t ->
    (labeling, string) result
  (** [P]: like {!prepare}, but declines when the property does not hold
      (completeness side of the definition in §1.1). *)
end
