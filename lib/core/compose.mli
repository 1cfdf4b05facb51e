(** The composition functions f_B and f_P of Prop 6.1, phrased over
    "interfaces" — the identifier-level view of a k-lane graph (lane set
    plus terminals by vertex id). Both the prover and every local verifier
    call exactly this code, so a correct certificate is re-derivable
    bit-for-bit and any deviation is caught by equality.

    All functions raise [Invalid_argument] when a side condition of the
    merge fails (lane overlap, terminal mismatch, slot clashes); the
    verifier converts exceptions into rejection. Every call computes
    its result directly: there is no cache, since each hierarchy node is
    composed once per proof and once per verifier (DESIGN, "Why there
    is no composition memo"). *)

module Make (A : Lcp_algebra.Algebra_sig.S) : sig
  type iface = {
    lanes : int list;  (** sorted *)
    t_in : (int * int) list;  (** lane ↦ vertex id, sorted by lane *)
    t_out : (int * int) list;
  }

  val iface_of_klane : vid:(int -> int) -> Lcp_lanewidth.Klane.t -> iface
  val iface_of_info : 'a Certificate.info -> iface
  val terminals : iface -> int list

  val forget_all : A.state -> A.state
  val accepts : A.state -> bool

  val v_state : iface -> A.state
  (** A V-node: one lane, t_in = t_out. *)

  val e_state : iface -> real:bool -> A.state
  (** An E-node: one lane, distinct terminals, one edge (applied to the
      algebra only when [real]). *)

  val p_state : iface -> mask:bool list -> A.state
  (** A P-node: terminals in lane order form a path; [mask] gives the
      realness of each consecutive edge (length = lanes − 1). *)

  val bridge :
    A.state * iface -> A.state * iface -> i:int -> j:int -> real:bool ->
    A.state * iface
  (** f_B: disjoint union plus the bridge edge between the two lanes'
      out-terminals. *)

  val parent :
    child:A.state * iface -> parent:A.state * iface -> A.state * iface
  (** f_P: checks [T(child) ⊆ T(parent)] and that each child's in-terminal
      id equals the parent's same-lane out-terminal id, then glues and
      forgets the vertices that stop being terminals. *)
end
