(** The Theorem 1 certificate structure (§6.2).

    Every edge of the completion G' carries a stack of frames describing
    the branch of the hierarchical decomposition that contains it — at most
    2k levels by Obs 5.5, each of size O_k(log n) bits. Real edges carry
    their stack directly; each virtual edge's stack rides along its
    embedding path as a transported record (§6.2, "certifying the
    embedding"), at most h(k+1) records per real edge by Prop 4.6.

    The basic information B(Q) of a hierarchy node (Def 6.3) is the [info]
    record: lane set, terminals by vertex identifier, and the homomorphism
    class — an algebra state whose boundary slots are named by the vertex
    identifiers of the terminals, so that prover and verifier compute in
    the same slot language. [node_id] is a prover-chosen serial number that
    lets a vertex group the labels of its incident edges by hierarchy node;
    it carries no trusted content (all consistency is re-checked). *)

type 'state info = {
  node_id : int;
  lanes : int list;
  t_in : (int * int) list;  (** lane ↦ in-terminal vertex id *)
  t_out : (int * int) list;  (** lane ↦ out-terminal vertex id *)
  state : 'state;
}

type kind = KV | KE | KP | KB | KT

type 'state frame =
  | T_frame of {
      member : 'state info * kind;
          (** B(G') and node type of the tree member containing the edge *)
      merged : 'state info;  (** B(Tree-merge(T_{G'})) *)
      is_tree_root : bool;
      member_real : bool list;
          (** for E/P members: realness of each member edge (E: the single
              edge; P: path edges in lane order) — needed to recompute the
              member's class on the real-edge subgraph *)
      children : (int * 'state info) list;
          (** (root-member node id, B(Tree-merge(T_child))) per child *)
    }
  | B_frame of {
      bnode : 'state info;
      i : int;
      j : int;
      left : 'state info * kind;  (** kind ∈ {KV, KT} *)
      right : 'state info * kind;
      bridge_real : bool;  (** whether the bridge edge is a real G edge *)
      left_root_member : int option;
          (** node id of the left tree's root member, when left is a T-node *)
      right_root_member : int option;
      position : [ `Bridge | `Left | `Right ];
          (** where this edge sits inside the B-node *)
      left_ptr : Lcp_pls.Spanning_tree.label option;
          (** per-edge pointer sub-label certifying a V-node part *)
      right_ptr : Lcp_pls.Spanning_tree.label option;
    }

type 'state vrecord = {
  vu : int;  (** id of the first endpoint of the virtual edge *)
  vv : int;
  rank_fwd : int;  (** 1-based rank of this real edge along the path *)
  rank_bwd : int;
  vframes : 'state frame list;  (** the virtual edge's own stack *)
}

type 'state label = {
  frames : 'state frame list;  (** root-first stack of this real edge *)
  global_ptr : Lcp_pls.Spanning_tree.label;
      (** Prop 2.2 pointer to a vertex of the root member, over G *)
  accept_state : bool;
      (** the prover's claim that the root class is accepting; checked by
          every vertex against the root merged state it can see *)
  transported : 'state vrecord list;
}

val kind_code : kind -> int

val encode :
  encode_state:(Lcp_util.Bitenc.writer -> 'state -> unit) ->
  Lcp_util.Bitenc.writer ->
  'state label ->
  unit
(** Bit-exact serialization (for proof-size measurement): the same bits
    as {!encode_plain}.

    A label is written as a table of the distinct info records its own
    stack and its transported stacks mention, in strictly increasing
    [node_id], each in full, followed by the frames, which name each
    info by its [node_id] (DESIGN "Label codec"). The codec therefore
    represents only labels in which one node id names one info; the
    prover's labels all have that form. On a label that names two
    structurally different infos under one id, the encoder raises
    [Invalid_argument].

    Partially applied, [encode ~encode_state] is a {e sharing} encoder:
    over the labels it writes to one stream (one writer, between two
    {!Lcp_util.Bitenc.reset}s), a table entry or a transported stack
    that is physically ([==]) one it has written before is not encoded
    again; the bits written for it before are copied
    ({!Lcp_util.Bitenc.copy_span}). Since only identical immutable
    values are copied, and a record's bits depend neither on where it
    starts nor on the label around it, the stream is byte for byte the
    one {!encode_plain} writes. The memos are emptied when the encoder
    sees another writer, a reset one, or a writer shorter than the
    furthest record it remembers; they keep the last stream's writer
    and values alive until then. [encode_state] must be a function of
    the state alone. *)

val encode_plain :
  encode_state:(Lcp_util.Bitenc.writer -> 'state -> unit) ->
  Lcp_util.Bitenc.writer ->
  'state label ->
  unit
(** The reference encoder: every table entry and every frame is encoded
    where it occurs, with no record kept between labels. *)

val decode :
  decode_state:(Lcp_util.Bitenc.reader -> 'state) ->
  Lcp_util.Bitenc.reader ->
  'state label
(** Inverse of {!encode}, given the state decoder of the property algebra
    in use — certificates really are just the emitted bits (tested by
    round-tripping full labelings). Besides out-of-data and invalid
    field values, a table out of node-id order, an id repeated in the
    table, a table count larger than the bits left, and a frame naming
    an id the table lacks all raise [Invalid_argument]. Within one
    decoded label, every frame that names an id holds the very info of
    the table.

    Partially applied, [decode ~decode_state] is a {e sharing} decoder:
    over the labels it reads from one stream (one reader, between two
    {!Lcp_util.Bitenc.reset_reader}s), a repeated table entry is decoded
    once and its later copies are skipped, and equal frames and equal
    frame stacks ([frames], [vframes]) over the same infos come back
    physically equal, so the verifier's [==] short cuts apply. Each
    label is still exactly the value a fresh decoder computes from its
    bits. The tables are emptied when the decoder sees another reader, a
    repointed one, or a position behind the furthest record it
    remembers; they keep the last stream's buffer and values alive until
    then. A lookup compares at most four candidates, so no stream costs
    more than a constant factor over decoding it without sharing.
    [decode_state] must be a pure function of the bits it reads. *)

val pp_kind : Format.formatter -> kind -> unit
