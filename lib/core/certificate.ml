module Bitenc = Lcp_util.Bitenc

type 'state info = {
  node_id : int;
  lanes : int list;
  t_in : (int * int) list;
  t_out : (int * int) list;
  state : 'state;
}

type kind = KV | KE | KP | KB | KT

type 'state frame =
  | T_frame of {
      member : 'state info * kind;
      merged : 'state info;
      is_tree_root : bool;
      member_real : bool list;
      children : (int * 'state info) list;
    }
  | B_frame of {
      bnode : 'state info;
      i : int;
      j : int;
      left : 'state info * kind;
      right : 'state info * kind;
      bridge_real : bool;
      left_root_member : int option;
      right_root_member : int option;
      position : [ `Bridge | `Left | `Right ];
      left_ptr : Lcp_pls.Spanning_tree.label option;
      right_ptr : Lcp_pls.Spanning_tree.label option;
    }

type 'state vrecord = {
  vu : int;
  vv : int;
  rank_fwd : int;
  rank_bwd : int;
  vframes : 'state frame list;
}

type 'state label = {
  frames : 'state frame list;
  global_ptr : Lcp_pls.Spanning_tree.label;
  accept_state : bool;
  transported : 'state vrecord list;
}

let kind_code = function KV -> 0 | KE -> 1 | KP -> 2 | KB -> 3 | KT -> 4

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | KV -> "V"
    | KE -> "E"
    | KP -> "P"
    | KB -> "B"
    | KT -> "T")

let encode_lane_map w m =
  Bitenc.varint w (List.length m);
  List.iter
    (fun (lane, v) ->
      Bitenc.varint w lane;
      Bitenc.varint w v)
    m

let encode_info encode_state w info =
  Bitenc.varint w info.node_id;
  Bitenc.varint w (List.length info.lanes);
  List.iter (fun l -> Bitenc.varint w l) info.lanes;
  encode_lane_map w info.t_in;
  encode_lane_map w info.t_out;
  encode_state w info.state

let encode_ptr w (p : Lcp_pls.Spanning_tree.label) =
  Bitenc.varint w p.Lcp_pls.Spanning_tree.target;
  match p.Lcp_pls.Spanning_tree.parent with
  | None -> Bitenc.bit w false
  | Some (d, c) ->
      Bitenc.bit w true;
      Bitenc.varint w d;
      Bitenc.varint w c

let encode_opt_int w = function
  | None -> Bitenc.bit w false
  | Some x ->
      Bitenc.bit w true;
      Bitenc.varint w x

let encode_opt_ptr w = function
  | None -> Bitenc.bit w false
  | Some p ->
      Bitenc.bit w true;
      encode_ptr w p

(* [info] writes an info record: [encode_info encode_state] itself, or
   the sharing encoder's memo of it. One frame layout serves both. *)
let encode_frame info w frame =
  match frame with
  | T_frame { member = minfo, mkind; merged; is_tree_root; member_real; children }
    ->
      Bitenc.bit w false;
      info w minfo;
      Bitenc.bits w ~width:3 (kind_code mkind);
      info w merged;
      Bitenc.bit w is_tree_root;
      Bitenc.varint w (List.length member_real);
      List.iter (fun b -> Bitenc.bit w b) member_real;
      Bitenc.varint w (List.length children);
      List.iter
        (fun (nid, cinfo) ->
          Bitenc.varint w nid;
          info w cinfo)
        children
  | B_frame
      {
        bnode;
        i;
        j;
        left = linfo, lkind;
        right = rinfo, rkind;
        bridge_real;
        left_root_member;
        right_root_member;
        position;
        left_ptr;
        right_ptr;
      } ->
      Bitenc.bit w true;
      info w bnode;
      Bitenc.varint w i;
      Bitenc.varint w j;
      info w linfo;
      Bitenc.bits w ~width:3 (kind_code lkind);
      info w rinfo;
      Bitenc.bits w ~width:3 (kind_code rkind);
      Bitenc.bit w bridge_real;
      encode_opt_int w left_root_member;
      encode_opt_int w right_root_member;
      Bitenc.bits w ~width:2
        (match position with `Bridge -> 0 | `Left -> 1 | `Right -> 2);
      encode_opt_ptr w left_ptr;
      encode_opt_ptr w right_ptr

(* Own [frames] and transported [vframes] share one encoding: a count,
   then the frames. *)
let encode_stack frame w frames =
  Bitenc.varint w (List.length frames);
  List.iter (frame w) frames

(* [vstack w v] writes [v.vframes] as a stack *)
let encode_label frame vstack w label =
  encode_stack frame w label.frames;
  encode_ptr w label.global_ptr;
  Bitenc.bit w label.accept_state;
  Bitenc.varint w (List.length label.transported);
  List.iter
    (fun v ->
      Bitenc.varint w v.vu;
      Bitenc.varint w v.vv;
      Bitenc.varint w v.rank_fwd;
      Bitenc.varint w v.rank_bwd;
      vstack w v)
    label.transported

let encode_plain ~encode_state =
  let frame = encode_frame (encode_info encode_state) in
  encode_label frame (fun w v -> encode_stack frame w v.vframes)

let decode_lane_map r =
  let n = Bitenc.read_varint r in
  Bitenc.read_n n (fun () ->
      let lane = Bitenc.read_varint r in
      let v = Bitenc.read_varint r in
      (lane, v))

let decode_info decode_state r =
  let node_id = Bitenc.read_varint r in
  let nlanes = Bitenc.read_varint r in
  let lanes = Bitenc.read_n nlanes (fun () -> Bitenc.read_varint r) in
  let t_in = decode_lane_map r in
  let t_out = decode_lane_map r in
  let state = decode_state r in
  { node_id; lanes; t_in; t_out; state }

let decode_ptr r =
  let target = Bitenc.read_varint r in
  if Bitenc.read_bit r then begin
    let d = Bitenc.read_varint r in
    let c = Bitenc.read_varint r in
    { Lcp_pls.Spanning_tree.target; parent = Some (d, c) }
  end
  else { Lcp_pls.Spanning_tree.target; parent = None }

let kind_of_code = function
  | 0 -> KV
  | 1 -> KE
  | 2 -> KP
  | 3 -> KB
  | 4 -> KT
  | c -> invalid_arg (Printf.sprintf "Certificate.decode: kind code %d" c)

let decode_frame info r =
  if not (Bitenc.read_bit r) then begin
    let minfo = info r in
    let mkind = kind_of_code (Bitenc.read_bits r ~width:3) in
    let merged = info r in
    let is_tree_root = Bitenc.read_bit r in
    let nreal = Bitenc.read_varint r in
    let member_real = Bitenc.read_n nreal (fun () -> Bitenc.read_bit r) in
    let nchildren = Bitenc.read_varint r in
    let children =
      Bitenc.read_n nchildren (fun () ->
          let nid = Bitenc.read_varint r in
          let cinfo = info r in
          (nid, cinfo))
    in
    T_frame { member = (minfo, mkind); merged; is_tree_root; member_real; children }
  end
  else begin
    let bnode = info r in
    let i = Bitenc.read_varint r in
    let j = Bitenc.read_varint r in
    let linfo = info r in
    let lkind = kind_of_code (Bitenc.read_bits r ~width:3) in
    let rinfo = info r in
    let rkind = kind_of_code (Bitenc.read_bits r ~width:3) in
    let bridge_real = Bitenc.read_bit r in
    let opt_int () =
      if Bitenc.read_bit r then Some (Bitenc.read_varint r) else None
    in
    let left_root_member = opt_int () in
    let right_root_member = opt_int () in
    let position =
      match Bitenc.read_bits r ~width:2 with
      | 0 -> `Bridge
      | 1 -> `Left
      | 2 -> `Right
      | c -> invalid_arg (Printf.sprintf "Certificate.decode: position %d" c)
    in
    let opt_ptr () = if Bitenc.read_bit r then Some (decode_ptr r) else None in
    let left_ptr = opt_ptr () in
    let right_ptr = opt_ptr () in
    B_frame
      {
        bnode; i; j;
        left = (linfo, lkind);
        right = (rinfo, rkind);
        bridge_real; left_root_member; right_root_member;
        position; left_ptr; right_ptr;
      }
  end

(* ---------------------------------------------------------------- *)
(* the sharing decoder                                               *)

(* One bundle repeats the same records many times: the B(Q) of a node
   appears in every frame that mentions Q, a frame in every stack of its
   branch, and a virtual edge's stack on every edge of its path. A
   partially applied [decode ~decode_state] keeps three tables over the
   stream it reads, so that each repeat is decoded once:

   - info records are keyed by a hash of their first [key_bits] bits; a
     candidate is confirmed by comparing its whole bit span with the
     bits at the read position, and the match is skipped, not decoded;
   - frames are decoded (their infos come from the first table) and
     then keyed by a hash of their whole span, stacks by their frames'
     keys, so equal frames and equal frame lists come back physically
     equal.

   A value is only ever returned for a span whose bits equal the bits it
   was decoded from, in the same buffer, so every decoded value is the
   function of its own bits that the plain decoder computes. Bit spans
   of complete records are prefix-free, so at most one candidate can
   match. A bucket holds at most [max_cands] candidates, and a compare
   stops at the first differing 56-bit chunk, within the shorter of the
   two records: a lookup costs at most a constant times decoding the
   record it finds. *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* keys are spread already: [Bitenc.span_hash] values here, node ids
     and mixed virtual-edge ids in the sharing encoder below *)
  let hash = Fun.id
end)

type 'a cand = { start : int; len : int; value : 'a }

let key_bits = 48
let max_cands = 4

let cands tbl key = match Int_tbl.find tbl key with cs -> cs | exception Not_found -> []

(* the candidate whose bits recur at [pos]; [Not_found] if none *)
let rec find_at r pos = function
  | [] -> raise_notrace Not_found
  | c :: rest ->
      if Bitenc.span_equal r c.start pos ~len:c.len then c else find_at r pos rest

type 'state tables = {
  mutable reader : Bitenc.reader;
  mutable epoch : int;
  mutable high : int;  (** the furthest end of any remembered span *)
  mutable frame_key : int;  (** the span hash of the frame read last *)
  infos : 'state info cand list Int_tbl.t;
  frames : 'state frame cand list Int_tbl.t;
  stacks : 'state frame list cand list Int_tbl.t;
}

let sharing_decoder decode_state =
  let t =
    {
      reader = Bitenc.reader Bytes.empty;
      epoch = 0;
      high = 0;
      frame_key = 0;
      infos = Int_tbl.create 16;
      frames = Int_tbl.create 16;
      stacks = Int_tbl.create 16;
    }
  in
  (* [cs]: the candidates already under [key] *)
  let remember tbl key cs r start value =
    let stop = Bitenc.position r in
    if stop > t.high then t.high <- stop;
    if List.compare_length_with cs max_cands < 0 then
      Int_tbl.replace tbl key ({ start; len = stop - start; value } :: cs)
  in
  let info r =
    let pos = Bitenc.position r in
    let key =
      Bitenc.span_hash r pos ~len:(min key_bits (Bitenc.bits_remaining r))
    in
    let cs = cands t.infos key in
    match find_at r pos cs with
    | c ->
        Bitenc.skip r c.len;
        c.value
    | exception Not_found ->
        let v = decode_info decode_state r in
        remember t.infos key cs r pos v;
        v
  in
  (* [v] was decoded from [pos, position r): the remembered value with
     the same bits, if any, else [v] *)
  let hashcons tbl key r pos v =
    let cs = cands tbl key in
    match find_at r pos cs with
    | c -> c.value
    | exception Not_found ->
        remember tbl key cs r pos v;
        v
  in
  let frame r =
    let pos = Bitenc.position r in
    let v = decode_frame info r in
    let key = Bitenc.span_hash r pos ~len:(Bitenc.position r - pos) in
    t.frame_key <- key;
    hashcons t.frames key r pos v
  in
  (* Own [frames] and transported [vframes] share one encoding: a count,
     then the frames. A stack's key combines its frames' span hashes, a
     function of its bits that costs no second pass over them. *)
  let stack r =
    let pos = Bitenc.position r in
    let n = Bitenc.read_varint r in
    let key = ref n in
    let frames =
      Bitenc.read_n n (fun () ->
          let f = frame r in
          key := (!key lxor t.frame_key) * 0x100000001b3;
          f)
    in
    hashcons t.stacks !key r pos frames
  in
  fun r ->
    if r != t.reader || Bitenc.epoch r <> t.epoch || Bitenc.position r < t.high
    then begin
      Int_tbl.clear t.infos;
      Int_tbl.clear t.frames;
      Int_tbl.clear t.stacks;
      t.reader <- r;
      t.epoch <- Bitenc.epoch r;
      t.high <- 0
    end;
    let frames = stack r in
    let global_ptr = decode_ptr r in
    let accept_state = Bitenc.read_bit r in
    let ntrans = Bitenc.read_varint r in
    let transported =
      Bitenc.read_n ntrans (fun () ->
          let vu = Bitenc.read_varint r in
          let vv = Bitenc.read_varint r in
          let rank_fwd = Bitenc.read_varint r in
          let rank_bwd = Bitenc.read_varint r in
          let vframes = stack r in
          { vu; vv; rank_fwd; rank_bwd; vframes })
    in
    { frames; global_ptr; accept_state; transported }

(* the tables are made at the first read: a decoder that never reads
   costs one closure and one ref *)
let decode ~decode_state =
  let shared = ref None in
  fun r ->
    match !shared with
    | Some d -> d r
    | None ->
        let d = sharing_decoder decode_state in
        shared := Some d;
        d r

(* ---------------------------------------------------------------- *)
(* the sharing encoder                                               *)

(* The mirror of the sharing decoder. The prover hands out one physical
   value per info record and one [vframes] list per virtual edge, and the
   sharing decoder hands out one per distinct record, so a bundle's
   repeats are mostly the {e same} values. A partially applied
   [encode ~encode_state] keeps two tables over the stream it writes:

   - info records, keyed by [node_id];
   - transported stacks, keyed by their virtual edge [(vu, vv)].

   A candidate is served only when it is physically the value being
   written ([==]); then the bits written for it the first time, at
   [start, start + len) of the same writer's stream, are appended again
   with [Bitenc.copy_span] instead of being re-encoded. The values are
   immutable and [encode_state] is a function of its state alone, and a
   record's encoding does not depend on the bit offset it starts at, so
   the copy is exactly the bits a fresh encode would write: every byte,
   every label's size and the bundle's size are those of
   [encode_plain]. A miss, a key collision or a full bucket only costs
   a plain encode. *)

type 'state enc_tables = {
  mutable writer : Bitenc.writer;
  mutable wepoch : int;
  mutable whigh : int;  (** the furthest end of any remembered span *)
  e_infos : 'state info cand list Int_tbl.t;
  e_stacks : 'state frame list cand list Int_tbl.t;
}

(* the candidate that is [v] itself; [Not_found] if none *)
let rec find_phys v = function
  | [] -> raise_notrace Not_found
  | c :: rest -> if c.value == v then c else find_phys v rest

let sharing_encoder encode_state =
  let t =
    {
      writer = Bitenc.writer ~capacity:1 ();
      wepoch = 0;
      whigh = 0;
      e_infos = Int_tbl.create 64;
      e_stacks = Int_tbl.create 64;
    }
  in
  (* the bits [v] was written as before, else [encode w v] *)
  let memo tbl key encode w v =
    let cs = cands tbl key in
    match find_phys v cs with
    | c -> Bitenc.copy_span w ~start:c.start ~len:c.len
    | exception Not_found ->
        let start = Bitenc.length_bits w in
        encode w v;
        let stop = Bitenc.length_bits w in
        if stop > t.whigh then t.whigh <- stop;
        if List.compare_length_with cs max_cands < 0 then
          Int_tbl.replace tbl key ({ start; len = stop - start; value = v } :: cs)
  in
  let plain_info = encode_info encode_state in
  let info w i = memo t.e_infos i.node_id plain_info w i in
  let frame = encode_frame info in
  let plain_stack = encode_stack frame in
  let vstack w v =
    memo t.e_stacks ((v.vu * 0x9e3779b1) lxor v.vv) plain_stack w v.vframes
  in
  fun w label ->
    if
      w != t.writer
      || Bitenc.writer_epoch w <> t.wepoch
      || Bitenc.length_bits w < t.whigh
    then begin
      Int_tbl.clear t.e_infos;
      Int_tbl.clear t.e_stacks;
      t.writer <- w;
      t.wepoch <- Bitenc.writer_epoch w;
      t.whigh <- 0
    end;
    encode_label frame vstack w label

(* the tables are made at the first write, as the decoder's are *)
let encode ~encode_state =
  let shared = ref None in
  fun w label ->
    match !shared with
    | Some e -> e w label
    | None ->
        let e = sharing_encoder encode_state in
        shared := Some e;
        e w label
