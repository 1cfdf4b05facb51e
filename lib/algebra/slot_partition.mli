(** Canonical partitions of a finite slot set, the shared backbone of the
    connectivity-flavoured algebras (connected, acyclic, bipartite). *)

type t
(** A partition of a set of integer slots into classes, in canonical form
    (classes sorted by minimum element, elements sorted). *)

val canonical : int list list -> t
(** The reference normal form: drop empty classes, sort each class, sort
    the classes. Duplicate slots and classes are kept. *)

val empty : t
val add_singleton : t -> int -> t
val merge : t -> int -> int -> t
(** Union the classes of two member slots (no-op if already together). *)

val same_class : t -> int -> int -> bool
val remove : t -> int -> t * bool
(** Drop a slot; the boolean is true when its class became empty. *)

val mem : t -> int -> bool
val slots : t -> int list
val classes : t -> int list list
val class_count : t -> int
val rename : t -> old_slot:int -> new_slot:int -> t
val union : t -> t -> t
(** Disjoint slot sets. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val encode : Lcp_util.Bitenc.writer -> t -> unit

val decode : Lcp_util.Bitenc.reader -> t
(** Inverse of {!encode} for partitions over non-negative slots (encode
    writes absolute values; certification slots are vertex identifiers,
    which are non-negative). A decoded list already in canonical form is
    returned as read; any other goes through {!canonical}. *)

val pp : Format.formatter -> t -> unit
