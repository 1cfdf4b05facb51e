(** Incremental re-certification of edge deltas (the dynamic-graph
    workload): transplant the interval representation across an edit,
    re-run the prover with warm composition memo, and report exactly
    which labels changed together with the localized verification set.

    The dirty-window invariant: every changed label is incident to the
    window-overlap closure of the delta, and [p_verify] covers every
    vertex whose local view (id, degree, incident labels) differs from
    the previously certified state — so verifying only [p_verify]
    against a fully-verified baseline decides the whole labeling. The
    service layer checks this differentially against full recompute. *)

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

  type labeling = P.labeling

  type patch = {
    p_labels : labeling;
    p_holds : bool;
    p_changed : int;
    p_reused : int;
    p_verify : int list;
    p_dirty_windows : int;
  }

  val patch_labels :
    ?strategy:Prover.strategy ->
    ?max_lanes:int ->
    rep:Representation.t ->
    prev:labeling option ->
    delta:delta ->
    Lcp_pls.Config.t ->
    (patch, string) result
  (** Recompute labels for [cfg] (the edited graph, under [rep]) and
      splice against [prev]: [p_reused] labels are structurally
      identical to the previous certified labeling, [p_changed] are
      refreshed, and [p_verify] is the dirty-plus-boundary set to
      re-verify locally. With [prev = None] everything is new and
      [p_verify] is all vertices. [Error] mirrors [Prover.prepare]
      (empty or disconnected graph, or more lanes than [max_lanes]).
      Keeping one functor instance per session keeps the composition
      memo warm across edits — that is where the locality pays. *)
end
