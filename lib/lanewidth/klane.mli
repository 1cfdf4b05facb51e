(** k-lane graphs (Def 5.3), represented as subgraphs of a fixed host graph.

    A k-lane graph carries a non-empty set of lanes [T(G) ⊆ {0..k-1}] and,
    per lane, an in-terminal and an out-terminal (possibly equal). Both
    terminal maps are injective.

    Representing them as host subgraphs (vertex subset + edge subset of one
    ambient graph) makes Parent-merge's "identify τᵢⁱⁿ(G₁) with τᵢᵒᵘᵗ(G₂)"
    a set union, and matches how the certification uses the hierarchy: each
    node of a hierarchical decomposition is a connected subgraph of the
    final network. *)

type t = private {
  host : Lcp_graph.Graph.t;
  vertices : int list;  (** sorted *)
  edges : Lcp_graph.Graph.edge list;  (** sorted; all within [vertices] *)
  lane_in : (int * int) list;  (** lane ↦ in-terminal, sorted by lane *)
  lane_out : (int * int) list;  (** lane ↦ out-terminal, sorted by lane *)
}

val make :
  host:Lcp_graph.Graph.t ->
  vertices:int list ->
  edges:Lcp_graph.Graph.edge list ->
  lane_in:(int * int) list ->
  lane_out:(int * int) list ->
  t
(** Validates; raises [Invalid_argument] with a diagnostic. *)

val unchecked :
  host:Lcp_graph.Graph.t ->
  vertices:int list ->
  edges:Lcp_graph.Graph.edge list ->
  lane_in:(int * int) list ->
  lane_out:(int * int) list ->
  t
(** The k-lane graph with exactly these parts, without a check: the
    caller guarantees they are valid and already in the form [make]
    returns (vertices sorted without repeats, canonical edges sorted
    without repeats, both terminal maps sorted by lane). {!Merge} builds
    its results this way, from operands [make] has already checked. *)

val validate :
  host:Lcp_graph.Graph.t ->
  vertices:int list ->
  edges:Lcp_graph.Graph.edge list ->
  lane_in:(int * int) list ->
  lane_out:(int * int) list ->
  (unit, string) result

val singleton : host:Lcp_graph.Graph.t -> lane:int -> int -> t
(** A single-vertex k-lane graph (the V-node shape). *)

val single_edge :
  host:Lcp_graph.Graph.t -> lane:int -> t_in:int -> t_out:int -> t
(** A single-edge k-lane graph (the E-node shape); the edge must exist in
    the host and the terminals must differ. *)

val of_path : host:Lcp_graph.Graph.t -> int list -> t
(** The P-node shape: lane [i] has [τᵢⁱⁿ = τᵢᵒᵘᵗ] = the i-th path vertex;
    consecutive path vertices must be host edges. *)

val lanes : t -> int list
val tau_in : t -> int -> int
val tau_out : t -> int -> int
val tau_in_opt : t -> int -> int option
val tau_out_opt : t -> int -> int option
val mem_vertex : t -> int -> bool
val is_connected : t -> bool
(** Connected as a subgraph (using only [edges]). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
