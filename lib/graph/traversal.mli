(** Graph traversals: reachability, components, distances, paths, spanning
    trees. These back the spanning-tree pointer scheme (Prop 2.2) and the
    path choices inside the Prop 4.6 embedding. *)

val bfs_from : Graph.t -> int -> int array
(** [bfs_from g s] is the distance array from [s]; unreachable vertices get
    [-1]. *)

val bfs_tree : Graph.t -> int -> int array
(** Parent array of a BFS tree rooted at [s]; the root and unreachable
    vertices get [-1]. *)

val connected_components : Graph.t -> int list list
(** Vertex sets of the components, each sorted, ordered by smallest member. *)

val component_of : Graph.t -> int -> int list
val is_connected : Graph.t -> bool

val shortest_path : Graph.t -> int -> int -> int list option
(** Vertex sequence from source to target inclusive, or [None]. *)

val shortest_paths : Graph.t -> (int * int) list -> int list option list
(** [shortest_path g s t] for each pair [(s, t)], in order: the same
    paths, from searches that share one set of scratch arrays and stop
    at their target. *)

val any_path : Graph.t -> int -> int -> int list option
(** Some simple path between the endpoints (DFS order), or [None]. *)

val spanning_tree : Graph.t -> root:int -> Graph.edge list
(** Edges of a BFS spanning tree of the component of [root]. *)

val is_acyclic : Graph.t -> bool
(** No cycle anywhere (i.e., the graph is a forest). *)

val is_tree : Graph.t -> bool
val is_path_graph : Graph.t -> bool
(** Connected, all degrees <= 2, acyclic. *)

val is_cycle_graph : Graph.t -> bool

val longest_path_length : Graph.t -> int
(** Number of vertices on a longest simple path (exponential search; small
    graphs only). Used for P_t-minor testing: a graph has a [P_t] minor iff
    it has a path on [t] vertices. *)

val eccentricity : Graph.t -> int -> int
val diameter : Graph.t -> int
(** Max distance inside one component; requires a connected graph. *)
