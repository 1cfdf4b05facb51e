(** Bit-exact binary encoding.

    Proof size is the central complexity measure of a proof labeling scheme
    (paper, §1.1), so certificates are serialized to actual bit strings and
    measured in bits, not approximated from in-memory structure sizes. *)

type writer
(** Append-only bit buffer. Preallocated and growable; appends write
    whole bytes at a time (no per-bit closure or per-bit bounds check on
    the [bits]/[varint] path), and a field of at most 8 bits touches at
    most two bytes. *)

val writer : ?capacity:int -> unit -> writer
(** [writer ~capacity ()] preallocates [capacity] bytes (default 16). *)

val reset : writer -> unit
(** Forget the contents and start a fresh stream in the same buffer —
    reuse a writer across encodes without reallocating. *)

val bit : writer -> bool -> unit
(** [bit w b] appends a single bit. *)

val bits : writer -> width:int -> int -> unit
(** [bits w ~width x] appends the [width] low-order bits of [x],
    most-significant first. Requires [0 <= x < 2^width] and
    [0 <= width <= 62]. *)

val varint : writer -> int -> unit
(** [varint w x] appends a non-negative integer in a self-delimiting
    LEB128-style encoding: groups of 7 bits, low group first, each group
    preceded by a continuation bit. Uses [O(log x)] bits. *)

val length_bits : writer -> int
(** Number of bits appended so far. *)

val to_bytes : writer -> bytes
(** Zero-padded little-endian-by-byte snapshot of the buffer. *)

type reader

val reader : bytes -> reader
val reader_of_writer : writer -> reader

val reset_reader : reader -> bytes -> unit
(** Repoint an existing reader at a new buffer, position 0 — reuse a
    reader across decodes without reallocating. *)

val read_bit : reader -> bool
val read_bits : reader -> width:int -> int
val read_varint : reader -> int
(** The three reads raise [Invalid_argument] when fewer bits remain
    than the field needs; a failing [read_bits] consumes nothing.
    Decoders of untrusted bits (certificate bundles) rely on this to stay
    total. *)

val bits_remaining : reader -> int
(** Bits not yet consumed (includes any zero padding from [to_bytes]). *)

val get_bit : bytes -> int -> bool
(** Read bit [pos] of a buffer in stream order (bit [i] lives in byte
    [i/8] at offset [i mod 8]), without a reader. *)

val flip_bit : bytes -> int -> unit
(** Invert bit [pos] of a buffer in place, in the same stream order —
    the primitive of bit-level fault injection. *)

val varint_size : int -> int
(** Number of bits [varint] would use for this value. *)
