(** The local verification algorithm V of Theorem 1 (§6.2).

    A pure function of the vertex's local view (its identifier and the
    multiset of labels on its incident edges — nothing else). The checks,
    following Lemmas 6.4/6.5 and the embedding certification of §6.2:

    - the global pointer labels form a valid Prop 2.2 pointer;
    - transported virtual-edge records form simple paths with consecutive
      ranks and consistent payloads; records naming this vertex make it an
      endpoint of the virtual edge, which then joins its G'-edge set;
    - every G'-edge (real or virtual) carries a well-shaped frame stack of
      bounded depth (Obs 5.5) whose lane indices are bounded;
    - all frames of the same hierarchy node agree;
    - E-/P-node members match the local topology (edge counts per claimed
      terminal position, realness masks);
    - every B-node class equals f_B of its parts, with V-node parts
      certified by per-node pointer sub-labels, and bridge endpoints
      checking the bridge edge;
    - every Tree-merge class equals the f_P fold of its member and
      children, with junction vertices checking that claimed children
      actually attach to them;
    - vertices of the root member check that the root class is accepting,
      and the pointer target is a root-member vertex.

    Each instance keeps a group-check memo (under {!Memo.enabled}, capped
    at {!Memo.max_entries}). A hierarchy node's {e pure} sub-checks, the
    class recomputations and interface compares that read only the
    frame's own fields, are skipped when the instance has already passed
    a group check on the same frame value (physical identity of
    immutable values); the per-vertex checks always run. Only passed
    checks are remembered, so verdicts and reasons are those of the
    uncached verifier.

    Each instance also keeps a view memo under the same switch and cap.
    The verdict is a function of the view, so a view the instance has
    accepted before (same id, degree and [max_lanes], and labels that
    are element by element the same immutable values, [==]) is answered
    [Ok ()] without a check. Rejected views are never remembered; a
    bucket holds at most 4 views per id, most recently used first.
    Within a delta session this answers the memory-tier hits, whose
    labeling the session's instance verified when it last served it;
    a new labeling (a fresh proof, a decoded bundle, a disk-tier reload)
    shares no label values with one verified before and runs every
    check. *)

module Make (A : Lcp_algebra.Algebra_sig.S) : sig
  val verify :
    max_lanes:int ->
    A.state Certificate.label Lcp_pls.Scheme.edge_view ->
    (unit, string) result

  val group_table_size : unit -> int
  (** Node ids with remembered frames in this instance's group-check
      memo, for the cap and bound tests. *)

  val group_bucket_max : unit -> int
  (** The most frames remembered under one node id (at most 4). *)

  val view_table_size : unit -> int
  (** Vertex ids with remembered views in this instance's view memo. *)

  val view_bucket_max : unit -> int
  (** The most views remembered under one vertex id (at most 4). *)
end
