(** Proof labeling schemes: provers, verifiers, local views, and the
    simulation harness (§1.1, §2.1).

    Two flavours are supported.

    {b Edge schemes} put labels on edges. The local view of a vertex is
    faithful to the paper's model: its own identifier/state plus the
    multiset of labels on its incident edges — nothing else. The Theorem 1
    certification is an edge scheme.

    {b Vertex schemes} put labels on vertices. Here the view gives, for
    each neighbor, the pair (neighbor identifier, neighbor label). Knowing
    which neighbor sent which label is the standard strengthening used
    throughout the local-certification literature (identifiers are part of
    the state, and letting labels embed the owner's identifier makes
    attribution verifiable); Prop 2.1's edge→vertex transformation is
    implemented in this model.

    Verifiers are pure functions of the view — the type system prevents
    them from inspecting the rest of the configuration, which is what makes
    the simulated verification genuinely local. *)

module Edge_map : sig
  type 'l t

  val empty : 'l t
  val add : 'l t -> Lcp_graph.Graph.edge -> 'l -> 'l t
  val remove : 'l t -> Lcp_graph.Graph.edge -> 'l t
  val find : 'l t -> Lcp_graph.Graph.edge -> 'l option
  val of_list : (Lcp_graph.Graph.edge * 'l) list -> 'l t
  val bindings : 'l t -> (Lcp_graph.Graph.edge * 'l) list
  val map : ('l -> 'm) -> 'l t -> 'm t
  val cardinal : 'l t -> int
end

type 'l edge_view = {
  ev_id : int;  (** the vertex's own identifier *)
  ev_degree : int;
  ev_labels : 'l list;  (** labels of incident edges, arbitrary order *)
}

type 'l vertex_view = {
  vv_id : int;
  vv_label : 'l;
  vv_neighbors : (int * 'l) list;  (** (neighbor id, neighbor label) *)
}

type outcome =
  | Accepted
  | Rejected of (int * string) list
      (** rejecting vertices with their reasons *)

val accepted : outcome -> bool

type 'l edge_scheme = {
  es_name : string;
  es_prove : Config.t -> 'l Edge_map.t option;
      (** [None] when the prover cannot certify (property does not hold). *)
  es_verify : 'l edge_view -> (unit, string) result;
  es_encode : Lcp_util.Bitenc.writer -> 'l -> unit;
}

type 'l vertex_scheme = {
  vs_name : string;
  vs_prove : Config.t -> 'l array option;
  vs_verify : 'l vertex_view -> (unit, string) result;
  vs_encode : Lcp_util.Bitenc.writer -> 'l -> unit;
}

val missing_label : string
(** The rejection reason both endpoints of an unlabeled edge report. *)

val run_edge : Config.t -> 'l edge_scheme -> 'l Edge_map.t -> outcome
(** Run the verifier at every vertex. A partial labeling is a *fault*,
    not a harness error: every vertex incident to an unlabeled edge
    rejects with {!missing_label} (the adversary may delete labels; the
    verifier must detect it rather than crash the simulation). *)

val run_vertex : Config.t -> 'l vertex_scheme -> 'l array -> outcome

val certify_edge : Config.t -> 'l edge_scheme -> ('l Edge_map.t, string) result
(** Run the prover; error when it declines. *)

val max_edge_label_bits : 'l edge_scheme -> 'l Edge_map.t -> int
(** Bit length of the largest encoded label — the proof size. *)

val max_vertex_label_bits : 'l vertex_scheme -> 'l array -> int

val edge_to_vertex : d:int -> 'l edge_scheme -> (int * int * 'l) list vertex_scheme
(** Prop 2.1: given an edge scheme on a class of d-degenerate graphs,
    produce a vertex scheme with O(d·f(n))-bit labels: orient the edges
    acyclically with outdegree ≤ d and move each edge label, tagged with
    both endpoint identifiers, to its tail. [d] is only used as a sanity
    bound on the produced labels. *)
