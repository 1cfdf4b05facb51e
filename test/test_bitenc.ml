(* Unit and property tests for the bit-exact encoder. *)

open Test_util
module B = Lcp_util.Bitenc

let roundtrip_bits () =
  let w = B.writer () in
  B.bit w true;
  B.bit w false;
  B.bits w ~width:5 19;
  B.bits w ~width:12 4095;
  check_int "length" (1 + 1 + 5 + 12) (B.length_bits w);
  let r = B.reader_of_writer w in
  check "b1" true (B.read_bit r);
  check "b2" false (B.read_bit r);
  check_int "5 bits" 19 (B.read_bits r ~width:5);
  check_int "12 bits" 4095 (B.read_bits r ~width:12)

let roundtrip_varint () =
  let values = [ 0; 1; 5; 7; 8; 63; 64; 127; 128; 300; 511; 512; 16383; 16384; 123456789 ] in
  let w = B.writer () in
  List.iter (B.varint w) values;
  let r = B.reader_of_writer w in
  List.iter (fun v -> check_int "varint" v (B.read_varint r)) values

let varint_size_matches () =
  List.iter
    (fun v ->
      let w = B.writer () in
      B.varint w v;
      check_int (Printf.sprintf "size %d" v) (B.varint_size v)
        (B.length_bits w))
    [ 0; 1; 7; 8; 63; 64; 127; 128; 511; 512; 16383; 16384; 1 lsl 30 ]

let varint_logarithmic () =
  (* varint of x uses O(log x) bits *)
  List.iter
    (fun bits ->
      let x = (1 lsl bits) - 1 in
      check "log size" true (B.varint_size x <= 8 * ((bits / 7) + 1)))
    [ 7; 14; 21; 28; 35; 42 ]

let empty_writer () =
  let w = B.writer () in
  check_int "empty" 0 (B.length_bits w);
  check_int "bytes" 0 (Bytes.length (B.to_bytes w))

let out_of_data () =
  let w = B.writer () in
  B.bit w true;
  let r = B.reader_of_writer w in
  ignore (B.read_bit r);
  Alcotest.check_raises "eof" (Invalid_argument "Bitenc.read_bit: out of data")
    (fun () -> ignore (B.read_bit r))

let prop_varint_roundtrip =
  qcheck "varint roundtrip" QCheck.(int_bound 1_000_000_000) (fun x ->
      let w = B.writer () in
      B.varint w x;
      let r = B.reader_of_writer w in
      B.read_varint r = x)

let prop_bit_sequence =
  qcheck "bit sequence roundtrip"
    QCheck.(list bool)
    (fun bits ->
      let w = B.writer () in
      List.iter (B.bit w) bits;
      let r = B.reader_of_writer w in
      List.for_all (fun b -> B.read_bit r = b) bits)

(* the word-at-a-time fast paths must write exactly the bytes the
   per-[bit] encoding defines: same stream, one bit at a time *)
let reference_bits w ~width x =
  for j = width - 1 downto 0 do
    B.bit w (x land (1 lsl j) <> 0)
  done

let rec reference_varint w x =
  if x < 8 then begin
    B.bit w false;
    reference_bits w ~width:3 x
  end
  else begin
    B.bit w true;
    reference_bits w ~width:3 (x land 7);
    reference_varint w (x lsr 3)
  end

let arb_ops =
  QCheck.(
    list
      (oneof
         [
           map (fun b -> `Bit b) bool;
           map
             (fun (width, x) -> `Bits (width, x land ((1 lsl width) - 1)))
             (pair (int_range 1 24) (int_bound ((1 lsl 24) - 1)));
           map (fun x -> `Varint x) (int_bound 1_000_000_000);
         ]))

let prop_word_vs_per_bit =
  qcheck ~count:300 "bits/varint byte-identical to the per-bit reference"
    arb_ops
    (fun ops ->
      let w = B.writer () and wr = B.writer () in
      List.iter
        (fun op ->
          match op with
          | `Bit b ->
              B.bit w b;
              B.bit wr b
          | `Bits (width, x) ->
              B.bits w ~width x;
              reference_bits wr ~width x
          | `Varint x ->
              B.varint w x;
              reference_varint wr x)
        ops;
      B.length_bits w = B.length_bits wr
      && Bytes.equal (B.to_bytes w) (B.to_bytes wr))

let prop_read_bits_vs_per_bit =
  qcheck ~count:200 "read_bits/read_varint agree with per-bit reads" arb_ops
    (fun ops ->
      let w = B.writer () in
      List.iter
        (fun op ->
          match op with
          | `Bit b -> B.bit w b
          | `Bits (width, x) -> B.bits w ~width x
          | `Varint x -> B.varint w x)
        ops;
      let r = B.reader_of_writer w in
      let rr = B.reader_of_writer w in
      let read_bits_ref width =
        let acc = ref 0 in
        for _ = 1 to width do
          acc := (!acc lsl 1) lor (if B.read_bit rr then 1 else 0)
        done;
        !acc
      in
      List.for_all
        (fun op ->
          match op with
          | `Bit b -> B.read_bit r = b && B.read_bit rr = b
          | `Bits (width, _) -> B.read_bits r ~width = read_bits_ref width
          | `Varint x ->
              B.read_varint r = x
              && (* reference decode, bit by bit *)
              let rec go acc shift =
                let continue_ = B.read_bit rr in
                let group = read_bits_ref 3 in
                let acc = acc lor (group lsl shift) in
                if continue_ then go acc (shift + 3) else acc
              in
              go 0 0 = x)
        ops)

let writer_reset_reuse () =
  let w = B.writer ~capacity:4 () in
  B.varint w 987654;
  B.bits w ~width:11 1234;
  let first = B.to_bytes w in
  B.reset w;
  check_int "reset length" 0 (B.length_bits w);
  B.varint w 987654;
  B.bits w ~width:11 1234;
  check "same bytes after reset+rewrite" true (Bytes.equal first (B.to_bytes w));
  let r = B.reader (Bytes.make 2 '\255') in
  check_int "pre-reset read" 255 (B.read_bits r ~width:8);
  B.reset_reader r first;
  check_int "reader reset decodes" 987654 (B.read_varint r)

(* The read fast paths (widths <= 8, two-group varints) against reads
   of the stream one bit at a time, on streams of every length mod 8:
   reads that end exactly at [total_bits], reads inside the last byte,
   and reads past the end, which must raise [Invalid_argument] (bundle
   decoding turns exactly that exception into an [Error]). *)
let arb_stream_and_reads =
  QCheck.(
    pair
      (list_of_size Gen.(int_range 1 120) bool)
      (list_of_size Gen.(int_range 1 40)
         (oneof
            [
              map (fun w -> `Bits w) (int_range 0 8);
              map (fun w -> `Bits w) (int_range 9 62);
              always `Varint;
              always `Bit;
            ])))

let reads_match_stream stream_bits total reader ops =
  let value pos width =
    let acc = ref 0 in
    for i = pos to pos + width - 1 do
      acc := (!acc lsl 1) lor if stream_bits i then 1 else 0
    done;
    !acc
  in
  (* reference varint: 4-bit groups, flag first, low group first *)
  let rec varint pos acc shift =
    if pos + 4 > total then None
    else
      let y = value pos 4 in
      let acc = acc lor ((y land 7) lsl shift) in
      if y land 8 <> 0 then varint (pos + 4) acc (shift + 3)
      else Some (acc, pos + 4)
  in
  let out_of_data f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let rec go pos = function
    | [] -> true
    | op :: rest -> (
        let expected =
          match op with
          | `Bit -> if pos < total then Some (value pos 1, pos + 1) else None
          | `Bits w ->
              if pos + w <= total then Some (value pos w, pos + w) else None
          | `Varint -> varint pos 0 0
        in
        let read () =
          match op with
          | `Bit -> if B.read_bit reader then 1 else 0
          | `Bits width -> B.read_bits reader ~width
          | `Varint -> B.read_varint reader
        in
        match expected with
        | None -> out_of_data read
        | Some (v, pos') ->
            read () = v
            && B.bits_remaining reader = total - pos'
            && go pos' rest)
  in
  go 0 ops

let prop_fast_reads_vs_per_bit =
  qcheck ~count:500 "fast reads = per-bit reads, to the last bit and past it"
    arb_stream_and_reads (fun (bits, ops) ->
      let w = B.writer () in
      List.iter (B.bit w) bits;
      let arr = Array.of_list bits in
      let len = Array.length arr in
      (* a writer's stream: [total_bits] need not be a multiple of 8 *)
      reads_match_stream (fun i -> arr.(i)) len (B.reader_of_writer w) ops
      (* the padded byte buffer: reads may end in its last byte *)
      && reads_match_stream
           (fun i -> i < len && arr.(i))
           (8 * ((len + 7) / 8))
           (B.reader (B.to_bytes w))
           ops)

let reads_end_exactly_at_total () =
  for len = 1 to 24 do
    let w = B.writer () in
    for i = 0 to len - 1 do
      B.bit w (i mod 3 = 0)
    done;
    for width = 1 to min len 8 do
      let r = B.reader_of_writer w in
      ignore (B.read_bits r ~width:(len - width) : int);
      let v = B.read_bits r ~width in
      let expected = ref 0 in
      for i = len - width to len - 1 do
        expected := (!expected lsl 1) lor if i mod 3 = 0 then 1 else 0
      done;
      check_int (Printf.sprintf "len %d: last %d bits" len width) !expected v;
      check_int "nothing left" 0 (B.bits_remaining r);
      check_int "a zero-width read at the end" 0 (B.read_bits r ~width:0);
      Alcotest.check_raises "one bit past the end"
        (Invalid_argument "Bitenc.read_bit: out of data") (fun () ->
          ignore (B.read_bits r ~width:1 : int))
    done
  done;
  (* a varint cut off inside its group is out of data, not a value *)
  let w = B.writer () in
  B.varint w 300;
  let r = B.reader (Bytes.sub (B.to_bytes w) 0 1) in
  Alcotest.check_raises "truncated varint"
    (Invalid_argument "Bitenc.read_bit: out of data") (fun () ->
      ignore (B.read_varint r : int))

(* The span primitives of the sharing certificate decoder against
   per-bit definitions, on a writer's stream (any length mod 8) and on
   its padded byte buffer, so the end-of-buffer word assembly of
   [span_equal]/[span_hash] is covered: two spans are equal iff every
   bit agrees, equal spans hash equal, and a span not inside the stream
   is never equal. Each stream repeats a prefix so that long equal spans
   occur. *)
let arb_span_stream =
  let open QCheck in
  let gen st =
    let base = List.init (Random.State.int st 90) (fun _ -> Random.State.bool st) in
    let bits = base @ base @ List.init (Random.State.int st 20) (fun _ -> Random.State.bool st) in
    let len = List.length bits in
    let pick () = Random.State.int st (len + 2) - 1 in
    let spans = List.init 20 (fun _ -> (pick (), pick (), Random.State.int st 130)) in
    let spans = (0, List.length base, List.length base) :: spans in
    (bits, spans)
  in
  make
    ~print:(fun (bits, _) -> Printf.sprintf "%d bits" (List.length bits))
    gen

let prop_span_primitives =
  qcheck ~count:300 "span_equal/span_hash = per-bit spans, to the last byte"
    arb_span_stream (fun (bits, spans) ->
      let w = B.writer () in
      List.iter (B.bit w) bits;
      let arr = Array.of_list bits in
      let check_reader r total =
        let bit i = i < Array.length arr && arr.(i) in
        let inside a len = a >= 0 && len >= 0 && a + len <= total in
        List.for_all
          (fun (a, b, len) ->
            let expected =
              inside a len && inside b len
              && List.for_all (fun i -> bit (a + i) = bit (b + i)) (List.init len Fun.id)
            in
            B.span_equal r a b ~len = expected
            && ((not expected) || B.span_hash r a ~len = B.span_hash r b ~len))
          spans
        && B.position r = 0
      in
      check_reader (B.reader_of_writer w) (List.length bits)
      && check_reader (B.reader (B.to_bytes w)) (8 * Bytes.length (B.to_bytes w)))

let position_skip_epoch () =
  let w = B.writer () in
  B.bits w ~width:12 0xabc;
  B.varint w 300;
  let r = B.reader_of_writer w in
  check_int "starts at 0" 0 (B.position r);
  B.skip r 12;
  check_int "skip moves the position" 12 (B.position r);
  check_int "the next field is read after the skip" 300 (B.read_varint r);
  check_int "position = bits consumed" (B.length_bits w) (B.position r);
  Alcotest.check_raises "skipping past the end"
    (Invalid_argument "Bitenc.read_bit: out of data") (fun () -> B.skip r 1);
  check_int "a failed skip consumes nothing" (B.length_bits w) (B.position r);
  let e = B.epoch r in
  B.reset_reader r (B.to_bytes w);
  check_int "reset_reader bumps the epoch" (e + 1) (B.epoch r);
  check_int "and rewinds" 0 (B.position r);
  Alcotest.check_raises "a span past the end has no hash"
    (Invalid_argument "Bitenc.span_hash: out of range") (fun () ->
      ignore (B.span_hash r 20 ~len:100 : int))

(* [copy_span] against a copy made one bit at a time: for every source
   and destination alignment mod 8 and every length 0..300 (so every
   multiple of the 48-bit step up to 288, and the lengths around them),
   the writer holds the prefix followed by the span's bits, and nothing
   else is set in its buffer. *)
let copy_span_vs_per_bit () =
  let rng = Random.State.make [| 8 |] in
  let source = Array.init 320 (fun _ -> Random.State.bool rng) in
  for src_align = 0 to 7 do
    for dst_align = 0 to 7 do
      (* a prefix of more than [src_align + 300] bits whose end sits at
         [dst_align] mod 8, so every span below fits inside it *)
      let prefix = 312 + dst_align in
      for len = 0 to 300 do
        let w = B.writer () and wr = B.writer () in
        for i = 0 to prefix - 1 do
          B.bit w source.(i);
          B.bit wr source.(i)
        done;
        B.copy_span w ~start:src_align ~len;
        for i = src_align to src_align + len - 1 do
          B.bit wr source.(i)
        done;
        if
          B.length_bits w <> B.length_bits wr
          || not (Bytes.equal (B.to_bytes w) (B.to_bytes wr))
        then
          Alcotest.failf "copy of %d bits from offset %d to offset %d" len
            src_align prefix
      done
    done
  done

(* a stream that copies itself whole, again and again, from a one-byte
   buffer: every copy grows the buffer; and a span that ends exactly at
   the last bit written *)
let copy_span_growth_and_end () =
  let w = B.writer ~capacity:1 () and wr = B.writer ~capacity:1 () in
  let stream = ref [ true; false; true; true; false ] in
  List.iter (B.bit w) !stream;
  List.iter (B.bit wr) !stream;
  for _ = 1 to 10 do
    B.copy_span w ~start:0 ~len:(B.length_bits w);
    List.iter (B.bit wr) !stream;
    stream := !stream @ !stream
  done;
  check_int "5 * 2^10 bits" (5 * 1024) (B.length_bits w);
  check "self-copies = the doubled stream" true
    (Bytes.equal (B.to_bytes w) (B.to_bytes wr));
  let total = B.length_bits w in
  let tail = List.filteri (fun i _ -> i >= total - 77) !stream in
  B.copy_span w ~start:(total - 77) ~len:77;
  List.iter (B.bit wr) tail;
  check "a span ending at length_bits" true
    (B.length_bits w = B.length_bits wr
    && Bytes.equal (B.to_bytes w) (B.to_bytes wr))

let copy_span_out_of_range () =
  let w = B.writer () in
  B.varint w 300;
  B.bits w ~width:5 17;
  let before = B.to_bytes w and len = B.length_bits w in
  List.iter
    (fun (start, n) ->
      Alcotest.check_raises
        (Printf.sprintf "span [%d, %d + %d)" start start n)
        (Invalid_argument "Bitenc.copy_span: out of range") (fun () ->
          B.copy_span w ~start ~len:n);
      check "nothing written" true
        (B.length_bits w = len && Bytes.equal (B.to_bytes w) before))
    [ (-1, 4); (0, -1); (0, len + 1); (len, 1); (len - 3, 4); (max_int, 2) ]

let writer_epoch () =
  let w = B.writer () in
  let e = B.writer_epoch w in
  B.varint w 5;
  check_int "writing keeps the epoch" e (B.writer_epoch w);
  B.reset w;
  check_int "reset bumps the epoch" (e + 1) (B.writer_epoch w);
  B.reset w;
  check_int "every reset bumps it" (e + 2) (B.writer_epoch w)

let suite =
  ( "bitenc",
    [
      test "roundtrip bits" roundtrip_bits;
      test "roundtrip varint" roundtrip_varint;
      test "varint_size matches writer" varint_size_matches;
      test "varint is logarithmic" varint_logarithmic;
      test "empty writer" empty_writer;
      test "reading past the end fails" out_of_data;
      prop_varint_roundtrip;
      prop_bit_sequence;
      prop_word_vs_per_bit;
      prop_read_bits_vs_per_bit;
      test "writer/reader reset and reuse" writer_reset_reuse;
      prop_fast_reads_vs_per_bit;
      test "reads ending exactly at total_bits" reads_end_exactly_at_total;
      prop_span_primitives;
      test "position, skip and epoch" position_skip_epoch;
      test "copy_span = per-bit copy, all alignments" copy_span_vs_per_bit;
      test "copy_span: growth, span at the end" copy_span_growth_and_end;
      test "copy_span out of range writes nothing" copy_span_out_of_range;
      test "reset bumps the writer epoch" writer_epoch;
    ] )
