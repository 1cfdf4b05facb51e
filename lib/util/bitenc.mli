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
    reuse a writer across encodes without reallocating. Bumps
    {!writer_epoch}. *)

val writer_epoch : writer -> int
(** How many times {!reset} has emptied this writer. An encoder that
    remembers spans of the stream it writes keys them on
    (writer, epoch): the same writer at a new epoch holds other bits. *)

val bit : writer -> bool -> unit
(** [bit w b] appends a single bit. *)

val bits : writer -> width:int -> int -> unit
(** [bits w ~width x] appends the [width] low-order bits of [x],
    most-significant first. Requires [0 <= x < 2^width] and
    [0 <= width <= 62]. *)

val varint : writer -> int -> unit
(** [varint w x] appends a non-negative integer in a self-delimiting
    LEB128-style encoding: groups of 3 bits, low group first, each group
    preceded by a continuation bit. A value below 8 takes 4 bits; in
    general [4 * ceil(bitlength x / 3)] bits, [O(log x)]. This is the
    one integer code of the repository: certificates, the FMR baseline,
    bundle headers and the store's key bytes all use it. *)

val length_bits : writer -> int
(** Number of bits appended so far. *)

val copy_span : writer -> start:int -> len:int -> unit
(** [copy_span w ~start ~len] appends a copy of the writer's own stream
    bits [\[start, start+len)], 48 bits a step. Raises
    [Invalid_argument], writing nothing, unless the span lies within the
    bits written so far. *)

val to_bytes : writer -> bytes
(** Zero-padded little-endian-by-byte snapshot of the buffer. *)

type reader

val reader : bytes -> reader
val reader_of_writer : writer -> reader

val reset_reader : reader -> bytes -> unit
(** Repoint an existing reader at a new buffer, position 0 — reuse a
    reader across decodes without reallocating. Bumps {!epoch}. *)

val epoch : reader -> int
(** How many times {!reset_reader} has repointed this reader. A decoder
    that caches values by stream position keys them on
    (reader, epoch): the same reader at a new epoch may hold other
    bits, even the same buffer changed in place. *)

val read_bit : reader -> bool
val read_bits : reader -> width:int -> int
val read_varint : reader -> int
(** The three reads raise [Invalid_argument] when fewer bits remain
    than the field needs; a failing [read_bits] consumes nothing.
    Decoders of untrusted bits (certificate bundles) rely on this to stay
    total. *)

val read_n : int -> (unit -> 'a) -> 'a list
(** [read_n n f] calls [f] [n] times, strictly in order, and lists the
    results in that order ([[]] when [n <= 0]). It runs in constant
    stack: when every call of [f] reads at least one bit, a corrupt count
    [n] ends in [f]'s out-of-data error, not in a stack overflow. *)

val bits_remaining : reader -> int
(** Bits not yet consumed (includes any zero padding from [to_bytes]). *)

val position : reader -> int
(** Bits consumed so far: the stream offset of the next read. *)

val skip : reader -> int -> unit
(** [skip r n] consumes [n] bits without decoding them. Raises
    [Invalid_argument] (consuming nothing) when fewer than [n] remain. *)

val span_equal : reader -> int -> int -> len:int -> bool
(** [span_equal r a b ~len]: stream bits [\[a, a+len)] and
    [\[b, b+len)] of [r]'s buffer both lie within the stream and are
    equal. Compares 56 bits at a time and stops at the first difference;
    the reader's position does not move. *)

val span_hash : reader -> int -> len:int -> int
(** A hash of stream bits [\[a, a+len)] and of [len]: equal spans hash
    equal. Costs one step per 56 bits. Raises [Invalid_argument] when
    the span does not lie within the stream. *)

val get_bit : bytes -> int -> bool
(** Read bit [pos] of a buffer in stream order (bit [i] lives in byte
    [i/8] at offset [i mod 8]), without a reader. *)

val flip_bit : bytes -> int -> unit
(** Invert bit [pos] of a buffer in place, in the same stream order —
    the primitive of bit-level fault injection. *)

val varint_size : int -> int
(** Number of bits [varint] would use for this value. *)
