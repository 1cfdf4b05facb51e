(** Edge deltas for dynamic graphs (the delta sessions of the
    service): the textual delta codec, normalization, application, the
    representation transplant, and the dirty-window closure of a delta,
    which is reported but not relied on (a certificate is global, so a
    session re-proves and re-verifies the whole graph each step). *)

module Graph = Lcp_graph.Graph
module Representation = Lcp_interval.Representation

type delta = { add : Graph.edge list; del : Graph.edge list }

val empty_delta : delta

val delta_size : delta -> int

val is_empty : delta -> bool

val print_delta : delta -> string
(** ["add=0-1,2-3 del=4-5"]; either part is omitted when empty, the
    empty delta prints as [""]. Inverse of [parse_delta]. *)

val parse_delta : string -> (delta, string) result
(** Total parser of the textual form (the daemon's edit frames).
    Accepts only [add=]/[del=] keys with comma-separated [U-V] pairs;
    vertex-range and self-loop checks happen in [normalize], which
    needs the graph. *)

val normalize : Graph.t -> delta -> (delta, string) result
(** Canonicalize against the current graph: orient and deduplicate,
    reject self-loops / out-of-range vertices / edges named in both
    parts, drop no-op adds (edge present) and dels (edge absent).
    Idempotent. *)

val apply : Graph.t -> delta -> Graph.t
(** Apply a normalized delta — removals, then additions. On the empty
    delta this is the identity (physically: [add_edges]/[remove_edge]
    share the unchanged graph). *)

val transplant :
  Representation.t -> Graph.t -> (Representation.t, string) result
(** Reuse a representation's intervals on the edited graph. Removals
    always succeed; an added edge is covered iff its endpoints'
    intervals intersect. Success preserves the width (hence the
    verifier's lane bound) and the whole hierarchy skeleton; [Error]
    means the edit escapes the old windows and the caller must rebuild
    from a fresh representation. *)

val dirty_marks : Representation.t -> delta -> bool array
(** The window-overlap closure of the delta's endpoints under the
    given (already transplanted) representation: [marks.(v)] iff [v]'s
    interval intersects an endpoint's interval. *)

val dirty_count : Representation.t -> delta -> int

module Make (A : Lcp_algebra.Algebra_sig.S) : sig
  module P : module type of Prover.Make (A)
  (** A prover of its own: keeping one instance keeps its composition
      memo warm across calls. *)

  type labeling = P.labeling
end
