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

let encode_frame encode_state w frame =
  match frame with
  | T_frame { member = minfo, mkind; merged; is_tree_root; member_real; children }
    ->
      Bitenc.bit w false;
      encode_info encode_state w minfo;
      Bitenc.bits w ~width:3 (kind_code mkind);
      encode_info encode_state w merged;
      Bitenc.bit w is_tree_root;
      Bitenc.varint w (List.length member_real);
      List.iter (fun b -> Bitenc.bit w b) member_real;
      Bitenc.varint w (List.length children);
      List.iter
        (fun (nid, cinfo) ->
          Bitenc.varint w nid;
          encode_info encode_state w cinfo)
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
      encode_info encode_state w bnode;
      Bitenc.varint w i;
      Bitenc.varint w j;
      encode_info encode_state w linfo;
      Bitenc.bits w ~width:3 (kind_code lkind);
      encode_info encode_state w rinfo;
      Bitenc.bits w ~width:3 (kind_code rkind);
      Bitenc.bit w bridge_real;
      let opt_int = function
        | None -> Bitenc.bit w false
        | Some x ->
            Bitenc.bit w true;
            Bitenc.varint w x
      in
      opt_int left_root_member;
      opt_int right_root_member;
      Bitenc.bits w ~width:2
        (match position with `Bridge -> 0 | `Left -> 1 | `Right -> 2);
      let opt_ptr = function
        | None -> Bitenc.bit w false
        | Some p ->
            Bitenc.bit w true;
            encode_ptr w p
      in
      opt_ptr left_ptr;
      opt_ptr right_ptr

let encode ~encode_state w label =
  Bitenc.varint w (List.length label.frames);
  List.iter (encode_frame encode_state w) label.frames;
  encode_ptr w label.global_ptr;
  Bitenc.bit w label.accept_state;
  Bitenc.varint w (List.length label.transported);
  List.iter
    (fun v ->
      Bitenc.varint w v.vu;
      Bitenc.varint w v.vv;
      Bitenc.varint w v.rank_fwd;
      Bitenc.varint w v.rank_bwd;
      Bitenc.varint w (List.length v.vframes);
      List.iter (encode_frame encode_state w) v.vframes)
    label.transported

(* List.init applies its function in unspecified order; decoding must read
   strictly left to right *)
let rec read_n n f = if n <= 0 then [] else
  let x = f () in
  x :: read_n (n - 1) f

let decode_lane_map r =
  let n = Bitenc.read_varint r in
  read_n n (fun () ->
      let lane = Bitenc.read_varint r in
      let v = Bitenc.read_varint r in
      (lane, v))

let decode_info decode_state r =
  let node_id = Bitenc.read_varint r in
  let nlanes = Bitenc.read_varint r in
  let lanes = read_n nlanes (fun () -> Bitenc.read_varint r) in
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
    let member_real = read_n nreal (fun () -> Bitenc.read_bit r) in
    let nchildren = Bitenc.read_varint r in
    let children =
      read_n nchildren (fun () ->
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

module Span_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Fun.id (* keys are [Bitenc.span_hash] values, already mixed *)
end)

type 'a cand = { start : int; len : int; value : 'a }

let key_bits = 48
let max_cands = 4

let cands tbl key = match Span_tbl.find tbl key with cs -> cs | exception Not_found -> []

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
  infos : 'state info cand list Span_tbl.t;
  frames : 'state frame cand list Span_tbl.t;
  stacks : 'state frame list cand list Span_tbl.t;
}

let sharing_decoder decode_state =
  let t =
    {
      reader = Bitenc.reader Bytes.empty;
      epoch = 0;
      high = 0;
      frame_key = 0;
      infos = Span_tbl.create 16;
      frames = Span_tbl.create 16;
      stacks = Span_tbl.create 16;
    }
  in
  (* [cs]: the candidates already under [key] *)
  let remember tbl key cs r start value =
    let stop = Bitenc.position r in
    if stop > t.high then t.high <- stop;
    if List.compare_length_with cs max_cands < 0 then
      Span_tbl.replace tbl key ({ start; len = stop - start; value } :: cs)
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
      read_n n (fun () ->
          let f = frame r in
          key := (!key lxor t.frame_key) * 0x100000001b3;
          f)
    in
    hashcons t.stacks !key r pos frames
  in
  fun r ->
    if r != t.reader || Bitenc.epoch r <> t.epoch || Bitenc.position r < t.high
    then begin
      Span_tbl.clear t.infos;
      Span_tbl.clear t.frames;
      Span_tbl.clear t.stacks;
      t.reader <- r;
      t.epoch <- Bitenc.epoch r;
      t.high <- 0
    end;
    let frames = stack r in
    let global_ptr = decode_ptr r in
    let accept_state = Bitenc.read_bit r in
    let ntrans = Bitenc.read_varint r in
    let transported =
      read_n ntrans (fun () ->
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
