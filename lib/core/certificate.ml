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

(* ---------------------------------------------------------------- *)
(* the info table                                                    *)

(* A label opens with a table of the distinct info records its own
   stack and its transported stacks mention, in strictly increasing
   [node_id], each written in full; a frame then names an info by its
   [node_id] alone. One table per encoder or decoder is reused from
   label to label: arrays that only grow, and a fill count. The ids are
   kept sorted, in an int array that shifts without a write barrier;
   [at] maps each to its info's slot in [entries], where infos stay in
   the order they were added. *)
type 'state table = {
  mutable ids : int array;  (** strictly increasing below [size] *)
  mutable at : int array;  (** [entries.(at.(p)).node_id = ids.(p)] *)
  mutable entries : 'state info array;
  mutable size : int;
}

let new_table () = { ids = [||]; at = [||]; entries = [||]; size = 0 }

(* the info in slot [p] of the sorted order *)
let entry t p = Array.unsafe_get t.entries (Array.unsafe_get t.at p)

(* the slot of [id] among [ids.(lo) .. ids.(hi - 1)], which increase
   strictly; [-(insertion point) - 1] if absent. Binary over large
   ranges; a short one is scanned, which predicts better. *)
let rec search (ids : int array) (id : int) lo hi =
  if hi - lo > 16 then begin
    let mid = (lo + hi) lsr 1 in
    let m = Array.unsafe_get ids mid in
    if m = id then mid
    else if m < id then search ids id (mid + 1) hi
    else search ids id lo mid
  end
  else scan ids id lo hi

and scan ids id p hi =
  if p >= hi then -p - 1
  else
    let m = Array.unsafe_get ids p in
    if m < id then scan ids id (p + 1) hi else if m = id then p else -p - 1

(* room for [n] entries; [info] fills the fresh slots *)
let reserve t n info =
  if n > Array.length t.ids then begin
    let cap = max n (max 16 (2 * Array.length t.ids)) in
    let ids = Array.make cap 0 and at = Array.make cap 0 in
    let entries = Array.make cap info in
    Array.blit t.ids 0 ids 0 t.size;
    Array.blit t.at 0 at 0 t.size;
    Array.blit t.entries 0 entries 0 t.size;
    t.ids <- ids;
    t.at <- at;
    t.entries <- entries
  end

(* [info] into the table, unless its node id is there already. The
   codec represents only labels in which one node id names one info, so
   another info under a present id is an error. Prover labels hand out
   one physical value per info, so [==] settles nearly every repeat
   before the structural compare. *)
let add t info =
  let id = info.node_id in
  let s = search t.ids id 0 t.size in
  if s >= 0 then begin
    let e = Array.unsafe_get t.entries (Array.unsafe_get t.at s) in
    if e != info && e <> info then
      invalid_arg
        (Printf.sprintf "Certificate.encode: node id %d names two infos" id)
  end
  else begin
    let p = -s - 1 and n = t.size in
    if n = Array.length t.ids then reserve t (n + 1) info;
    let ids = t.ids and at = t.at in
    for q = n downto p + 1 do
      Array.unsafe_set ids q (Array.unsafe_get ids (q - 1));
      Array.unsafe_set at q (Array.unsafe_get at (q - 1))
    done;
    Array.unsafe_set ids p id;
    Array.unsafe_set at p n;
    t.entries.(n) <- info;
    t.size <- n + 1
  end

(* Top-level recursion with explicit arguments: collecting a label's
   table allocates nothing once the arrays are large enough. *)
let rec add_children t = function
  | [] -> ()
  | (_, c) :: rest ->
      add t c;
      add_children t rest

let add_frame t = function
  | T_frame { member = m, _; merged; children; _ } ->
      add t m;
      add t merged;
      add_children t children
  | B_frame { bnode; left = l, _; right = r, _; _ } ->
      add t bnode;
      add t l;
      add t r

let rec add_stack t = function
  | [] -> ()
  | f :: rest ->
      add_frame t f;
      add_stack t rest

let rec add_transported t = function
  | [] -> ()
  | v :: rest ->
      add_stack t v.vframes;
      add_transported t rest

let collect t label =
  t.size <- 0;
  add_stack t label.frames;
  add_transported t label.transported

(* ---------------------------------------------------------------- *)
(* encoding                                                          *)

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

(* a frame names an info by its node id; the label's table holds it *)
let encode_ref w info = Bitenc.varint w info.node_id

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

(* A frame's bits are a function of the frame alone (infos by node id),
   not of the label around it. *)
let encode_frame w frame =
  match frame with
  | T_frame { member = minfo, mkind; merged; is_tree_root; member_real; children }
    ->
      Bitenc.bit w false;
      encode_ref w minfo;
      Bitenc.bits w ~width:3 (kind_code mkind);
      encode_ref w merged;
      Bitenc.bit w is_tree_root;
      Bitenc.varint w (List.length member_real);
      List.iter (fun b -> Bitenc.bit w b) member_real;
      Bitenc.varint w (List.length children);
      List.iter
        (fun (nid, cinfo) ->
          Bitenc.varint w nid;
          encode_ref w cinfo)
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
      encode_ref w bnode;
      Bitenc.varint w i;
      Bitenc.varint w j;
      encode_ref w linfo;
      Bitenc.bits w ~width:3 (kind_code lkind);
      encode_ref w rinfo;
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
let rec write_frames w = function
  | [] -> ()
  | f :: rest ->
      encode_frame w f;
      write_frames w rest

let encode_stack w frames =
  Bitenc.varint w (List.length frames);
  write_frames w frames

(* The label: its info table, then its own stack, pointer, accept bit
   and transported records. [entries w t] writes the collected table's
   entries in order ([encode_info encode_state] on each, or the sharing
   encoder's copies of them) and [vstack w v] writes [v.vframes] as a
   stack. *)
let encode_label entries vstack t w label =
  collect t label;
  Bitenc.varint w t.size;
  entries w t;
  encode_stack w label.frames;
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

let plain_vstack w v = encode_stack w v.vframes

let encode_plain ~encode_state =
  let entries w t =
    for p = 0 to t.size - 1 do
      encode_info encode_state w (entry t p)
    done
  in
  encode_label entries plain_vstack (new_table ())

(* ---------------------------------------------------------------- *)
(* decoding                                                          *)

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

(* The table of the label at [r], entries read by [info]: a count no
   larger than the bits left, then entries in strictly increasing node
   id. Anything else is not a label of this codec. *)
let decode_table info t r =
  let n = Bitenc.read_varint r in
  if n < 0 || n > Bitenc.bits_remaining r then
    invalid_arg (Printf.sprintf "Certificate.decode: table of %d infos" n);
  t.size <- 0;
  for p = 0 to n - 1 do
    let i = info r in
    if p > 0 then begin
      let prev = Array.unsafe_get t.ids (p - 1) in
      if i.node_id = prev then
        invalid_arg
          (Printf.sprintf "Certificate.decode: node id %d twice in the table"
             prev)
      else if i.node_id < prev then
        invalid_arg
          (Printf.sprintf "Certificate.decode: node id %d after %d in the table"
             i.node_id prev)
    end;
    reserve t (p + 1) i;
    t.ids.(p) <- i.node_id;
    t.at.(p) <- p;
    t.entries.(p) <- i;
    t.size <- p + 1
  done

let decode_ref t r =
  let id = Bitenc.read_varint r in
  let s = search t.ids id 0 t.size in
  if s < 0 then
    invalid_arg
      (Printf.sprintf "Certificate.decode: node id %d is not in the table" id);
  entry t s

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

(* Top-level readers with explicit arguments: a frame's lists and
   options cost no closure. Like [Bitenc.read_n], the list readers run
   in constant stack. *)
let[@tail_mod_cons] rec read_bools r n =
  if n <= 0 then []
  else
    let b = Bitenc.read_bit r in
    b :: read_bools r (n - 1)

let[@tail_mod_cons] rec read_children t r n =
  if n <= 0 then []
  else
    let nid = Bitenc.read_varint r in
    let cinfo = decode_ref t r in
    (nid, cinfo) :: read_children t r (n - 1)

let read_opt_int r = if Bitenc.read_bit r then Some (Bitenc.read_varint r) else None
let read_opt_ptr r = if Bitenc.read_bit r then Some (decode_ptr r) else None

let decode_frame t r =
  if not (Bitenc.read_bit r) then begin
    let minfo = decode_ref t r in
    let mkind = kind_of_code (Bitenc.read_bits r ~width:3) in
    let merged = decode_ref t r in
    let is_tree_root = Bitenc.read_bit r in
    let member_real = read_bools r (Bitenc.read_varint r) in
    let children = read_children t r (Bitenc.read_varint r) in
    T_frame { member = (minfo, mkind); merged; is_tree_root; member_real; children }
  end
  else begin
    let bnode = decode_ref t r in
    let i = Bitenc.read_varint r in
    let j = Bitenc.read_varint r in
    let linfo = decode_ref t r in
    let lkind = kind_of_code (Bitenc.read_bits r ~width:3) in
    let rinfo = decode_ref t r in
    let rkind = kind_of_code (Bitenc.read_bits r ~width:3) in
    let bridge_real = Bitenc.read_bit r in
    let left_root_member = read_opt_int r in
    let right_root_member = read_opt_int r in
    let position =
      match Bitenc.read_bits r ~width:2 with
      | 0 -> `Bridge
      | 1 -> `Left
      | 2 -> `Right
      | c -> invalid_arg (Printf.sprintf "Certificate.decode: position %d" c)
    in
    let left_ptr = read_opt_ptr r in
    let right_ptr = read_opt_ptr r in
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
   sits in the table of every label that mentions Q, a frame in every
   stack of its branch, and a virtual edge's stack on every edge of its
   path. A partially applied [decode ~decode_state] keeps three tables
   over the stream it reads, so that each repeat is decoded once:

   - table entries (info records) are keyed by a hash of their first
     [key_bits] bits; a candidate is confirmed by comparing its whole
     bit span with the bits at the read position, and the match is
     skipped, not decoded;
   - frames are decoded (their infos come from the label's table) and
     then keyed by a hash of their whole span, stacks by their frames'
     keys, so equal frames and equal frame lists come back physically
     equal.

   A frame's bits name its infos by node id only, so equal frame bits
   in two labels whose tables differ are different frames. A cached
   frame is therefore served only when its bits are equal {e and} the
   infos it holds are physically the ones this label's table gives for
   those ids; a cached stack only when its bits are equal and its
   frames are physically the ones just decoded. Info records, which are
   complete in their own bits, need only the bit compare.

   A value is only ever returned for a span whose bits equal the bits it
   was decoded from, in the same buffer, resolved against infos equal
   to this label's, so every decoded value is the function of its own
   label's bits that a fresh decoder computes. Bit spans of complete
   records are prefix-free, so at most one info candidate can match. A
   bucket holds at most [max_cands] candidates, and a compare stops at
   the first differing 56-bit chunk, within the shorter of the two
   records: a lookup costs at most a constant times decoding the record
   it finds. *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* keys are spread already: they are [Bitenc.span_hash] values *)
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

(* the candidate whose bits recur at [pos] and that is [same] as [v] *)
let rec find_same same r pos v = function
  | [] -> raise_notrace Not_found
  | c :: rest ->
      if Bitenc.span_equal r c.start pos ~len:c.len && same c.value v then c
      else find_same same r pos v rest

let rec same_children a b =
  match (a, b) with
  | (_, x) :: a, (_, y) :: b -> x == y && same_children a b
  | [], [] -> true
  | _ -> false

(* two frames with equal bits hold physically the same infos *)
let same_infos a b =
  match (a, b) with
  | T_frame a, T_frame b ->
      fst a.member == fst b.member
      && a.merged == b.merged
      && same_children a.children b.children
  | B_frame a, B_frame b ->
      a.bnode == b.bnode && fst a.left == fst b.left && fst a.right == fst b.right
  | _ -> false

let rec same_frames a b =
  match (a, b) with
  | x :: a, y :: b -> x == y && same_frames a b
  | [], [] -> true
  | _ -> false

type 'state tables = {
  mutable reader : Bitenc.reader;
  mutable epoch : int;
  mutable high : int;  (** the furthest end of any remembered span *)
  mutable frame_key : int;  (** the span hash of the frame read last *)
  mutable stack_key : int;  (** the key of the stack being read *)
  infos : 'state info cand list Int_tbl.t;
  frames : 'state frame cand list Int_tbl.t;
  stacks : 'state frame list cand list Int_tbl.t;
  table : 'state table;  (** the table of the label being read *)
}

let sharing_decoder decode_state =
  let t =
    {
      reader = Bitenc.reader Bytes.empty;
      epoch = 0;
      high = 0;
      frame_key = 0;
      stack_key = 0;
      infos = Int_tbl.create 16;
      frames = Int_tbl.create 16;
      stacks = Int_tbl.create 16;
      table = new_table ();
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
     the same bits that is [same] as [v], if any, else [v] *)
  let hashcons tbl same key r pos v =
    let cs = cands tbl key in
    match find_same same r pos v cs with
    | c -> c.value
    | exception Not_found ->
        remember tbl key cs r pos v;
        v
  in
  let frame r =
    let pos = Bitenc.position r in
    let v = decode_frame t.table r in
    let key = Bitenc.span_hash r pos ~len:(Bitenc.position r - pos) in
    t.frame_key <- key;
    hashcons t.frames same_infos key r pos v
  in
  (* Own [frames] and transported [vframes] share one encoding: a count,
     then the frames. A stack's key combines its frames' span hashes, a
     function of its bits that costs no second pass over them. *)
  let[@tail_mod_cons] rec frames r n =
    if n <= 0 then []
    else
      let f = frame r in
      t.stack_key <- (t.stack_key lxor t.frame_key) * 0x100000001b3;
      f :: frames r (n - 1)
  in
  let stack r =
    let pos = Bitenc.position r in
    let n = Bitenc.read_varint r in
    t.stack_key <- n;
    let fs = frames r n in
    hashcons t.stacks same_frames t.stack_key r pos fs
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
    decode_table info t.table r;
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
   [encode ~encode_state] keeps two memos over the stream it writes:

   - table entries (info records), keyed by [node_id];
   - transported stacks, keyed by their virtual edge [(vu, vv)].

   A memo entry is served only when it is physically the value being
   written ([==]); then the bits written for it before, at
   [start, start + len) of the same writer's stream, are appended again
   with [Bitenc.copy_span] instead of being re-encoded. The values are
   immutable and [encode_state] is a function of its state alone, and a
   record's encoding depends neither on the bit offset it starts at nor
   on the label around it (frames name infos by node id, not by table
   position), so the copy is exactly the bits a fresh encode would
   write: every byte, every label's size and the bundle's size are
   those of [encode_plain]. A miss or a key collision only costs a
   plain encode. *)

(* A memo: int key -> the span a value was last written at, and the
   value. Open addressing over flat arrays with one entry per key (a
   new value under a key replaces the old one), so a lookup is a
   multiply and a probe or two, an insert allocates nothing once the
   arrays are large enough, and emptying is a generation bump. *)
type 'a memo = {
  mutable slots : int array;
      (** 4 ints a slot: key, generation, start, length; a slot is live
          when its generation is [gen] *)
  mutable vals : 'a array;
  mutable gen : int;
  mutable live : int;
}

let new_memo () = { slots = [||]; vals = [||]; gen = 1; live = 0 }

let clear_memo m =
  m.gen <- m.gen + 1;
  m.live <- 0

let capacity m = Array.length m.vals

(* the slot of [key], else [-(free slot) - 1]; the memo is never full,
   and its capacity is a power of two *)
let rec probe m (key : int) s =
  let i = 4 * s in
  if Array.unsafe_get m.slots (i + 1) <> m.gen then -s - 1
  else if Array.unsafe_get m.slots i = key then s
  else probe m key ((s + 1) land (capacity m - 1))

let home m key = ((key * 0x2545f4914f6cdd1d) lsr 20) land (capacity m - 1)

(* the slot of [key] when it holds [v] itself, else [-1] *)
let find_memo m key v =
  if m.live = 0 then -1
  else
    let s = probe m key (home m key) in
    if s >= 0 && Array.unsafe_get m.vals s == v then s else -1

let span_start m s = Array.unsafe_get m.slots ((4 * s) + 2)
let span_len m s = Array.unsafe_get m.slots ((4 * s) + 3)
let move_span m s start = Array.unsafe_set m.slots ((4 * s) + 2) start

let rec set_memo m key start len v =
  if 2 * (m.live + 1) > capacity m then begin
    let old_slots = m.slots and old_vals = m.vals and old_gen = m.gen in
    let cap = max 16 (2 * capacity m) in
    m.slots <- Array.make (4 * cap) 0;
    m.vals <- Array.make cap v;
    m.gen <- 1;
    m.live <- 0;
    Array.iteri
      (fun s x ->
        let i = 4 * s in
        if old_slots.(i + 1) = old_gen then
          set_memo m old_slots.(i) old_slots.(i + 2) old_slots.(i + 3) x)
      old_vals
  end;
  let s = probe m key (home m key) in
  let s = if s >= 0 then s else -s - 1 in
  let i = 4 * s in
  if m.slots.(i + 1) <> m.gen then m.live <- m.live + 1;
  m.slots.(i) <- key;
  m.slots.(i + 1) <- m.gen;
  m.slots.(i + 2) <- start;
  m.slots.(i + 3) <- len;
  m.vals.(s) <- v

let vkey v = (v.vu * 0x9e3779b1) lxor v.vv

type 'state enc_tables = {
  mutable writer : Bitenc.writer;
  mutable wepoch : int;
  mutable whigh : int;  (** the furthest end of any remembered span *)
  e_infos : 'state info memo;
  e_stacks : 'state frame list memo;
  e_table : 'state table;  (** the table of the label being written *)
  mutable run_start : int;  (** a copy not yet made: its source span *)
  mutable run_len : int;
}

(* the slot of [v]'s stack in the stack memo, else [-1] *)
let find_vstack m v =
  if m.live = 0 then -1
  else
    let key = vkey v in
    let s = probe m key (home m key) in
    if s >= 0 && Array.unsafe_get m.vals s == v.vframes then s else -1

let sharing_encoder encode_state =
  let t =
    {
      writer = Bitenc.writer ~capacity:1 ();
      wepoch = 0;
      whigh = 0;
      e_infos = new_memo ();
      e_stacks = new_memo ();
      e_table = new_table ();
      run_start = 0;
      run_len = 0;
    }
  in
  let remembered stop = if stop > t.whigh then t.whigh <- stop in
  let flush w =
    if t.run_len > 0 then begin
      Bitenc.copy_span w ~start:t.run_start ~len:t.run_len;
      t.run_len <- 0
    end
  in
  (* A table's entries sit end to end, so consecutive hits whose
     remembered spans also sit end to end are one copy. A hit's span
     moves to where this label puts it, so the next label's runs follow
     the newest table, which shares most of its entries. *)
  let entries w tb =
    let m = t.e_infos in
    for p = 0 to tb.size - 1 do
      let i = entry tb p in
      let s = find_memo m i.node_id i in
      if s >= 0 then begin
        let start = span_start m s and len = span_len m s in
        let dst = Bitenc.length_bits w + t.run_len in
        if t.run_len > 0 && t.run_start + t.run_len = start then
          t.run_len <- t.run_len + len
        else begin
          flush w;
          t.run_start <- start;
          t.run_len <- len
        end;
        move_span m s dst;
        remembered (dst + len)
      end
      else begin
        flush w;
        let start = Bitenc.length_bits w in
        encode_info encode_state w i;
        let stop = Bitenc.length_bits w in
        remembered stop;
        set_memo m i.node_id start (stop - start) i
      end
    done;
    flush w
  in
  let vstack w v =
    let m = t.e_stacks in
    let s = find_vstack m v in
    if s >= 0 then
      Bitenc.copy_span w ~start:(span_start m s) ~len:(span_len m s)
    else begin
      let start = Bitenc.length_bits w in
      encode_stack w v.vframes;
      let stop = Bitenc.length_bits w in
      remembered stop;
      set_memo m (vkey v) start (stop - start) v.vframes
    end
  in
  fun w label ->
    if
      w != t.writer
      || Bitenc.writer_epoch w <> t.wepoch
      || Bitenc.length_bits w < t.whigh
    then begin
      clear_memo t.e_infos;
      clear_memo t.e_stacks;
      t.writer <- w;
      t.wepoch <- Bitenc.writer_epoch w;
      t.whigh <- 0
    end;
    encode_label entries vstack t.e_table w label

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
