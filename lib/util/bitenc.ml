(* Bit layout (unchanged since the first encoder): stream bit [i] lives
   in byte [i/8] at bit offset [i mod 8]. Writes only ever OR into a
   zero-initialized buffer, so bytes past [len_bits] are always zero.

   [bits]/[read_bits] move whole bytes at a time: a chunk of [take]
   stream bits maps to a contiguous bit field of one target byte, and
   the MSB-first value order vs LSB-first stream order mismatch is a
   single lookup in an 8-bit bit-reversal table. *)

(* [Stdlib.min] is polymorphic: without flambda every call is a compare
   through C, and these run once per byte or per chunk *)
let[@inline] imin (a : int) b = if a < b then a else b

(* rev8.(b) is b with its 8 bits mirrored *)
let rev8 =
  let t = Array.make 256 0 in
  for b = 0 to 255 do
    let r = ref 0 in
    for k = 0 to 7 do
      if b land (1 lsl k) <> 0 then r := !r lor (1 lsl (7 - k))
    done;
    t.(b) <- !r
  done;
  t

type writer = {
  mutable buf : Bytes.t;
  mutable len_bits : int;
  mutable wepoch : int;  (** bumped by [reset] *)
}

let writer ?(capacity = 16) () =
  { buf = Bytes.make (max capacity 1) '\000'; len_bits = 0; wepoch = 0 }

let reset w =
  (* only the used prefix can be nonzero (writes are OR-only) *)
  Bytes.fill w.buf 0 (min (Bytes.length w.buf) ((w.len_bits + 7) / 8)) '\000';
  w.len_bits <- 0;
  w.wepoch <- w.wepoch + 1

let writer_epoch w = w.wepoch

(* Out of line: the hot paths below only call it when a write can cross
   the end of the buffer. *)
let grow w needed_bytes =
  let cap = max needed_bytes (2 * Bytes.length w.buf) in
  let buf = Bytes.make cap '\000' in
  Bytes.blit w.buf 0 buf 0 (Bytes.length w.buf);
  w.buf <- buf

let ensure w needed_bits =
  let needed_bytes = (w.len_bits + needed_bits + 7) / 8 in
  if needed_bytes > Bytes.length w.buf then grow w needed_bytes

let bit w b =
  let pos = w.len_bits in
  let i = pos lsr 3 in
  if i >= Bytes.length w.buf then grow w (i + 1);
  if b then
    Bytes.unsafe_set w.buf i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get w.buf i) lor (1 lsl (pos land 7))));
  w.len_bits <- pos + 1

(* Fast path of [bits] for [1 <= width <= 8]: the bit-reversed value,
   shifted to the write offset, spans at most two bytes. The second byte
   lies past [len_bits], so it is still zero and is set, not OR-ed. *)
let small_bits w width x =
  let pos = w.len_bits in
  let i = pos lsr 3 and off = pos land 7 in
  let last = (pos + width - 1) lsr 3 in
  if last >= Bytes.length w.buf then grow w (last + 1);
  let v = (Array.unsafe_get rev8 x lsr (8 - width)) lsl off in
  Bytes.unsafe_set w.buf i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get w.buf i) lor (v land 0xff)));
  if last > i then Bytes.unsafe_set w.buf last (Char.unsafe_chr (v lsr 8));
  w.len_bits <- pos + width

(* Append the [width] low bits of [x], most-significant first. The chunk
   of [take] bits destined for byte [i] at offset [off] is the top [take]
   remaining bits of [x]; placed LSB-of-chunk-last in stream order, its
   byte contribution is the bit-reversed chunk shifted to [off]. *)
let bits w ~width x =
  assert (width >= 0 && width <= 62);
  assert (x >= 0 && (width = 62 || x < 1 lsl width));
  if width <= 8 then (if width > 0 then small_bits w width x)
  else begin
    ensure w width;
    let pos = ref w.len_bits and remaining = ref width in
    while !remaining > 0 do
      let i = !pos lsr 3 and off = !pos land 7 in
      let take = imin !remaining (8 - off) in
      let chunk = (x lsr (!remaining - take)) land ((1 lsl take) - 1) in
      let placed = Array.unsafe_get rev8 chunk lsr (8 - take) in
      Bytes.unsafe_set w.buf i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get w.buf i) lor (placed lsl off)));
      pos := !pos + take;
      remaining := !remaining - take
    done;
    w.len_bits <- !pos
  end

(* LEB128-style groups of 3 data bits, low group first, each group's
   continuation flag in its stream-first (value-MSB) position. Groups
   go out two to a [small_bits] write: a value below 8 is one 4-bit
   write, one below 64 a single 8-bit write. *)
let rec varint w x =
  assert (x >= 0);
  if x < 8 then small_bits w 4 x
  else if x < 64 then small_bits w 8 (0x80 lor ((x land 7) lsl 4) lor (x lsr 3))
  else begin
    small_bits w 8 (0x88 lor ((x land 7) lsl 4) lor ((x lsr 3) land 7));
    varint w (x lsr 6)
  end

let length_bits w = w.len_bits

let to_bytes w = Bytes.sub w.buf 0 ((w.len_bits + 7) / 8)

type reader = {
  mutable data : Bytes.t;
  mutable total_bits : int;
  mutable pos : int;
  mutable epoch : int;  (** bumped by [reset_reader] *)
}

let reader data = { data; total_bits = 8 * Bytes.length data; pos = 0; epoch = 0 }

let reset_reader r data =
  r.data <- data;
  r.total_bits <- 8 * Bytes.length data;
  r.pos <- 0;
  r.epoch <- r.epoch + 1

let reader_of_writer w =
  { data = to_bytes w; total_bits = w.len_bits; pos = 0; epoch = 0 }

let out_of_data () = invalid_arg "Bitenc.read_bit: out of data"

(* Every read checks [pos + width <= total_bits] first, and [total_bits]
   never exceeds [8 * Bytes.length data], so the unchecked byte accesses
   below stay inside the buffer. *)
let read_bit r =
  let pos = r.pos in
  if pos >= r.total_bits then out_of_data ();
  r.pos <- pos + 1;
  Char.code (Bytes.unsafe_get r.data (pos lsr 3)) land (1 lsl (pos land 7))
  <> 0

(* [width <= 8] stream bits from [pos], MSB-first, without a bounds
   check: at most two bytes *)
let peek_small r pos width =
  let i = pos lsr 3 and off = pos land 7 in
  let lo = Char.code (Bytes.unsafe_get r.data i) in
  let word =
    if off + width > 8 then
      lo lor (Char.code (Bytes.unsafe_get r.data (i + 1)) lsl 8)
    else lo
  in
  Array.unsafe_get rev8 ((word lsr off) land ((1 lsl width) - 1))
  lsr (8 - width)

(* Fast path of [read_bits] for [1 <= width <= 8]. *)
let small_read r width =
  let pos = r.pos in
  if pos + width > r.total_bits then out_of_data ();
  r.pos <- pos + width;
  peek_small r pos width

let read_bits r ~width =
  assert (width >= 0 && width <= 62);
  if width <= 8 then (if width = 0 then 0 else small_read r width)
  else begin
    if r.pos + width > r.total_bits then out_of_data ();
    let acc = ref 0 in
    let pos = ref r.pos and remaining = ref width in
    while !remaining > 0 do
      let i = !pos lsr 3 and off = !pos land 7 in
      let take = imin !remaining (8 - off) in
      let chunk =
        (Char.code (Bytes.unsafe_get r.data i) lsr off) land ((1 lsl take) - 1)
      in
      acc := (!acc lsl take) lor (Array.unsafe_get rev8 chunk lsr (8 - take));
      pos := !pos + take;
      remaining := !remaining - take
    done;
    r.pos <- !pos;
    !acc
  end

(* Groups are read two to an 8-bit peek while 8 bits remain, one at a
   time near the end of the stream. Top-level recursion with explicit
   arguments, so a read allocates no closure. *)
let rec read_varint_from r acc shift =
  let pos = r.pos in
  if pos + 8 <= r.total_bits then begin
    let y = peek_small r pos 8 in
    let acc = acc lor (((y lsr 4) land 7) lsl shift) in
    if y < 0x80 then begin
      r.pos <- pos + 4;
      acc
    end
    else begin
      r.pos <- pos + 8;
      let acc = acc lor ((y land 7) lsl (shift + 3)) in
      if y land 8 = 0 then acc else read_varint_from r acc (shift + 6)
    end
  end
  else
    let y = small_read r 4 in
    let acc = acc lor ((y land 7) lsl shift) in
    if y land 8 <> 0 then read_varint_from r acc (shift + 3) else acc

let read_varint r = read_varint_from r 0 0

let[@tail_mod_cons] rec read_n n f =
  if n <= 0 then []
  else
    let x = f () in
    x :: read_n (n - 1) f

let bits_remaining r = r.total_bits - r.pos

let position r = r.pos

let epoch r = r.epoch

let skip r n =
  if n < 0 || r.pos + n > r.total_bits then out_of_data ();
  r.pos <- r.pos + n

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Stream bits [pos, pos + width) of [data] as an int, stream bit [pos]
   in bit 0 (raw stream order, not the MSB-first value order of
   [read_bits]). [width <= 56], so with [pos land 7 <= 7] the field sits
   in the low 63 bits of the 8-byte little-endian word at [pos / 8];
   [Int64.to_int] keeps exactly those, and applied straight to the
   unchecked load it compiles to a plain load, with no boxed int64.
   Near the end of the buffer the word is assembled from the bytes that
   exist. Callers keep [pos + width <= 8 * Bytes.length data]. *)
let raw_chunk data pos width =
  let i = pos lsr 3 in
  let word =
    if i + 8 <= Bytes.length data then
      if Sys.big_endian then Int64.to_int (bswap64 (get64u data i))
      else Int64.to_int (get64u data i)
    else begin
      let w = ref 0 in
      for j = Bytes.length data - 1 downto i do
        w := (!w lsl 8) lor Char.code (Bytes.unsafe_get data j)
      done;
      !w
    end
  in
  (word lsr (pos land 7)) land ((1 lsl width) - 1)

let chunk_bits = 56

(* [copy_span] moves 48 bits a step: shifted to a destination offset of
   at most 7, a chunk fills at most 55 bits of the 64-bit word it is
   OR-ed into, so the word's top bit, which [Int64.to_int] drops and
   [Int64.of_int] sign-extends, is never part of it. *)
let copy_chunk_bits = 48

(* OR [chunk] into the stream at bit [d]. Bits from [d] on are still
   zero, so this fills the partly written byte of [d] and sets the
   rest; callers keep [d / 8 + 8 <= Bytes.length buf]. *)
let put_chunk buf d chunk =
  let i = d lsr 3 in
  if Sys.big_endian then
    set64u buf i
      (bswap64
         (Int64.of_int
            (Int64.to_int (bswap64 (get64u buf i)) lor (chunk lsl (d land 7)))))
  else
    set64u buf i
      (Int64.of_int (Int64.to_int (get64u buf i) lor (chunk lsl (d land 7))))

(* Top-level recursion with explicit arguments and no [min] (which
   compares polymorphically): a copy allocates nothing. [src + len <=
   dst], so no chunk reads bits this copy has written. *)
let rec copy_chunks buf src dst len =
  if len > copy_chunk_bits then begin
    put_chunk buf dst (raw_chunk buf src copy_chunk_bits);
    copy_chunks buf (src + copy_chunk_bits) (dst + copy_chunk_bits)
      (len - copy_chunk_bits)
  end
  else put_chunk buf dst (raw_chunk buf src len)

let copy_span w ~start ~len =
  if start < 0 || len < 0 || start > w.len_bits - len then
    invalid_arg "Bitenc.copy_span: out of range";
  if len > 0 then begin
    (* room for the 8-byte word under the last destination bit *)
    ensure w (len + 64);
    copy_chunks w.buf start w.len_bits len;
    w.len_bits <- w.len_bits + len
  end

let in_stream r a len = a >= 0 && len >= 0 && a + len <= r.total_bits

(* Top-level recursion with explicit arguments: a compare or a hash
   allocates nothing. *)
let rec chunks_equal data a b len k =
  k >= len
  ||
  let w = imin chunk_bits (len - k) in
  raw_chunk data (a + k) w = raw_chunk data (b + k) w
  && chunks_equal data a b len (k + w)

let span_equal r a b ~len =
  in_stream r a len && in_stream r b len
  && (a = b || chunks_equal r.data a b len 0)

(* One multiply per chunk, then a 64-bit finalizer cut to OCaml's
   63-bit ints: multiplication only carries low bits upward, so the
   shifts fold the high bits back into the low ones that a power-of-two
   table indexes by. *)
let rec hash_chunks data a len h k =
  if k >= len then
    let h = (h lxor (h lsr 32)) * 0x2545f4914f6cdd1d in
    h lxor (h lsr 29)
  else
    let w = imin chunk_bits (len - k) in
    hash_chunks data a len
      ((h lxor raw_chunk data (a + k) w) * 0x100000001b3)
      (k + w)

let span_hash r a ~len =
  if not (in_stream r a len) then invalid_arg "Bitenc.span_hash: out of range";
  hash_chunks r.data a len len 0

let get_bit data pos =
  if pos < 0 || pos >= 8 * Bytes.length data then
    invalid_arg "Bitenc.get_bit: out of range";
  Char.code (Bytes.get data (pos / 8)) land (1 lsl (pos mod 8)) <> 0

let flip_bit data pos =
  if pos < 0 || pos >= 8 * Bytes.length data then
    invalid_arg "Bitenc.flip_bit: out of range";
  let i = pos / 8 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor (1 lsl (pos mod 8))))

let varint_size x =
  let rec go x acc = if x < 8 then acc + 4 else go (x lsr 3) (acc + 4) in
  go x 0
