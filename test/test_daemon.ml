(* Daemon-layer tests: the wire protocol (framing, incremental
   reassembly, codec round-trips), the Timing percentile-merge edge
   cases a long-lived multi-process daemon exercises (empty sample
   sets, single-sample stages, workers that recorded nothing for a
   stage), the protocol model ([Server_core] driven in-process against
   a model of the protocol), and end-to-end scenarios of a real forked
   certd-server on a tmp socket: canonical output byte-identical to a
   batch run, admission control, the live stats endpoint, crash/respawn
   under a fault plan, external worker kills, SIGTERM drain, garbage
   and pre-hello frames, a delta session, the refusal table, the
   pidfile lock and a journal across SIGKILL; and [Client]'s failure
   paths (a batch across a SIGKILL, fake peers that refuse, misnumber
   or repeat replies).

   Runs as its own executable; `dune build @daemon` runs it in
   isolation. *)

module Wire = Lcp_service.Wire
module Server = Lcp_service.Server
module Client = Lcp_service.Client
module Engine = Lcp_service.Engine
module Manifest = Lcp_service.Manifest
module Stats = Lcp_service.Stats
module Timing = Lcp_service.Timing
module Blob = Lcp_service.Blob_io

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
  go 0

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp_test_daemon_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---------------------------------------------------------------- *)
(* framing                                                           *)

let frame_roundtrip () =
  let rfd, wfd = Unix.pipe () in
  (* total must fit the pipe buffer (64 KiB): these writes have no
     concurrent reader *)
  let payloads = [ ""; "x"; "hello\nworld"; String.make 40_000 'q' ] in
  List.iter (fun p -> Wire.write_frame wfd p) payloads;
  Unix.close wfd;
  List.iter
    (fun expected ->
      match Wire.read_frame rfd with
      | Some got -> check_str "frame round-trips" expected got
      | None -> Alcotest.fail "premature EOF")
    payloads;
  check "clean EOF reads as None" true (Wire.read_frame rfd = None);
  Unix.close rfd;
  (* a torn frame — EOF inside the payload — is an error, not an end *)
  let rfd, wfd = Unix.pipe () in
  let b = Bytes.of_string "\x00\x00\x00\x10abc" in
  ignore (Unix.write wfd b 0 (Bytes.length b));
  Unix.close wfd;
  (match Wire.read_frame rfd with
  | exception Sys_error e -> check "says mid-frame" true (contains e "mid-frame")
  | Some _ | None -> Alcotest.fail "torn frame must raise");
  Unix.close rfd;
  (* the length cap guards both directions *)
  let rfd, wfd = Unix.pipe () in
  (match Wire.write_frame wfd (String.make (Wire.max_frame + 1) 'z') with
  | exception Sys_error e -> check "cap named" true (contains e "cap")
  | () -> Alcotest.fail "over-cap write must raise");
  let b = Bytes.of_string "\xff\xff\xff\xff" in
  ignore (Unix.write wfd b 0 4);
  (match Wire.read_frame rfd with
  | exception Sys_error e -> check "cap named" true (contains e "cap")
  | _ -> Alcotest.fail "over-cap length prefix must raise");
  Unix.close rfd;
  Unix.close wfd

let conn_reassembly () =
  (* one byte at a time: frames must pop out whole, exactly once *)
  let c = Wire.conn_create () in
  let payloads = [ "alpha"; ""; "beta\ngamma" ] in
  let stream = Buffer.create 64 in
  List.iter
    (fun p ->
      let rfd, wfd = Unix.pipe () in
      Wire.write_frame wfd p;
      Unix.close wfd;
      let chunk = Bytes.create 4096 in
      let n = Unix.read rfd chunk 0 4096 in
      Buffer.add_subbytes stream chunk 0 n;
      Unix.close rfd)
    payloads;
  let bytes = Buffer.to_bytes stream in
  let got = ref [] in
  Bytes.iter
    (fun ch ->
      Wire.conn_feed c (Bytes.make 1 ch) 1;
      let rec drain () =
        match Wire.conn_next c with
        | Some p ->
            got := p :: !got;
            drain ()
        | None -> ()
      in
      drain ())
    bytes;
  check "drip-fed frames arrive in order" true (List.rev !got = payloads);
  check_int "no residue" 0 (Wire.conn_buffered c);
  (* all at once: every frame pops from a single feed *)
  let c = Wire.conn_create () in
  Wire.conn_feed c bytes (Bytes.length bytes);
  List.iter
    (fun expected ->
      match Wire.conn_next c with
      | Some got -> check_str "bulk-fed frame" expected got
      | None -> Alcotest.fail "frame missing from bulk feed")
    payloads;
  check "no phantom frame" true (Wire.conn_next c = None)

let conn_frame_limits () =
  (* a payload of exactly [max_frame] bytes is legal and must
     reassemble whole; zero-length frames on both sides must pop as
     their own (empty) payloads, not be absorbed into it *)
  let big = String.make Wire.max_frame 'x' in
  let stream =
    Bytes.of_string (Wire.frame "" ^ Wire.frame big ^ Wire.frame "")
  in
  let c = Wire.conn_create () in
  (* feed in socket-read-sized chunks so the cap-sized frame is split
     across many feeds *)
  let chunk = 65536 in
  let off = ref 0 and got = ref [] in
  while !off < Bytes.length stream do
    let n = min chunk (Bytes.length stream - !off) in
    Wire.conn_feed c (Bytes.sub stream !off n) n;
    let rec drain () =
      match Wire.conn_next c with
      | Some p ->
          got := p :: !got;
          drain ()
      | None -> ()
    in
    drain ();
    off := !off + n
  done;
  (match List.rev !got with
  | [ ""; p; "" ] ->
      check_int "cap-sized payload intact" Wire.max_frame (String.length p);
      check "cap-sized payload unmangled" true (String.equal p big)
  | fs -> Alcotest.failf "expected 3 frames, got %d" (List.length fs));
  check_int "no residue" 0 (Wire.conn_buffered c);
  (* one byte over the cap refuses at encode time... *)
  (match Wire.frame (String.make (Wire.max_frame + 1) 'z') with
  | exception Sys_error e -> check "cap named" true (contains e "cap")
  | _ -> Alcotest.fail "over-cap frame must raise");
  (* ...and a hostile length prefix poisons the connection in conn_next
     rather than provoking a giant allocation *)
  let c = Wire.conn_create () in
  Wire.conn_feed c (Bytes.of_string "\xff\x00\x00\x00rest") 8;
  match Wire.conn_next c with
  | exception Sys_error e -> check "cap named" true (contains e "cap")
  | _ -> Alcotest.fail "over-cap prefix must raise in conn_next"

(* ---------------------------------------------------------------- *)
(* codec round-trips                                                 *)

(* single-space-separated words: the codec's reason fields live on the
   head line where runs of spaces collapse, so the generator avoids
   them (real reasons are printf-built and single-spaced) *)
let words_gen =
  QCheck.Gen.(
    map (String.concat " ")
      (list_size (int_range 1 6)
         (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))))

let line_gen =
  QCheck.Gen.(
    map
      (fun (id, n) -> Printf.sprintf "id=%s gen=path n=%d property=connected k=2 seed=1" id n)
      (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 12)) (int_range 1 50)))

let request_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (serial, canonical, deadline, line) ->
              Wire.Submit
                {
                  serial = abs serial;
                  canonical;
                  deadline_ms = Float.of_int (abs deadline);
                  line;
                })
            (quad small_signed_int bool small_signed_int line_gen) );
        ( 2,
          map
            (fun (serial, deadline, (sid, resume), line) ->
              Wire.Delta_open
                {
                  serial = abs serial;
                  deadline_ms = Float.of_int (abs deadline);
                  sid;
                  resume;
                  line;
                })
            (quad small_signed_int small_signed_int
               (pair
                  (string_size ~gen:(char_range 'a' 'z') (int_range 1 16))
                  bool)
               line_gen) );
        ( 1,
          map
            (fun v -> Wire.Hello { version = 1 + abs v })
            small_signed_int );
        ( 2,
          map
            (fun (serial, deadline, full, ops) ->
              Wire.Delta_edit
                {
                  serial = abs serial;
                  deadline_ms = Float.of_int (abs deadline);
                  full;
                  ops;
                })
            (quad small_signed_int small_signed_int bool
               (* an empty edit line is a legal no-op batch and must
                  survive the trip distinctly from "no body" *)
               (oneof [ return ""; return "add=0-1,2-3 del=4-5"; words_gen ])) );
        (1, return Wire.Stats_req);
        (1, return Wire.Ping);
        (1, return Wire.Shutdown);
      ])

let request_arb = QCheck.make ~print:Wire.encode_request request_gen

let request_roundtrip =
  qcheck "decode_request inverts encode_request" request_arb (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok req' -> req' = req
      | Error _ -> false)

let response_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map
            (fun (serial, id, status) ->
              Wire.Report
                {
                  serial = abs serial;
                  id;
                  status;
                  json = Printf.sprintf "{\"id\":\"%s\"}" id;
                  canonical = Printf.sprintf "{\"id\":\"%s\",\"verdict\":\"served\"}" id;
                })
            (triple small_signed_int
               (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
               (oneofl [ "served_fresh"; "served_cached"; "failed" ])) );
        ( 2,
          map
            (fun (serial, reason) ->
              Wire.Overloaded { serial = abs serial; reason })
            (pair small_signed_int words_gen) );
        ( 2,
          map
            (fun (serial, reason) -> Wire.Err { serial = abs serial; reason })
            (pair small_signed_int words_gen) );
        ( 2,
          map
            (fun (serial, id, status) ->
              Wire.Dreport
                {
                  serial = abs serial;
                  id;
                  status;
                  json = Printf.sprintf "{\"id\":\"%s\"}" id;
                  canonical =
                    Printf.sprintf "{\"id\":\"%s\",\"verdict\":\"served\"}" id;
                  patch = "{\"mode\":\"patched\",\"edits\":1,\"reused\":7}";
                })
            (triple small_signed_int
               (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
               (oneofl [ "served_fresh"; "served_cached"; "declined"; "unsound" ])) );
        (1, map (fun s -> Wire.Stats_reply ("{\"x\":" ^ string_of_int (abs s) ^ "}")) small_signed_int);
        (1, return Wire.Pong);
        (1, map (fun v -> Wire.Hello_ok { version = 1 + abs v }) small_signed_int);
      ])

let response_arb = QCheck.make ~print:Wire.encode_response response_gen

let response_roundtrip =
  qcheck "decode_response inverts encode_response" response_arb (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok resp' -> resp' = resp
      | Error _ -> false)

let decoder_is_total =
  qcheck ~count:500 "decoders never raise on junk" QCheck.(string)
    (fun payload ->
      (match Wire.decode_request payload with Ok _ | Error _ -> true)
      && match Wire.decode_response payload with Ok _ | Error _ -> true)

let delta_codec_rejects_malformed () =
  let req p = match Wire.decode_request p with Ok _ -> true | Error _ -> false in
  let resp p =
    match Wire.decode_response p with Ok _ -> true | Error _ -> false
  in
  check "dopen without body" false (req "dopen 1 0.0 0 s");
  check "dopen negative deadline" false
    (req "dopen 1 -5.0 0 s\nid=x gen=path n=4 property=connected k=1 seed=1");
  (* the protocol-1 dopen shape (no sid, no resume flag) must no longer
     decode: an old client gets a descriptive error, not a silently
     un-resumable session *)
  check "v1 dopen frame rejected" false
    (req "dopen 1 0.0\nid=x gen=path n=4 property=connected k=1 seed=1");
  check "v2 dopen frame accepted" true
    (req "dopen 1 0.0 0 s7\nid=x gen=path n=4 property=connected k=1 seed=1");
  check "dopen resume flag out of range" false
    (req "dopen 1 0.0 2 s7\nid=x gen=path n=4 property=connected k=1 seed=1");
  check "dopen empty sid" false
    (req "dopen 1 0.0 0 \nid=x gen=path n=4 property=connected k=1 seed=1");
  check "hello accepted" true (req "hello 2");
  check "hello needs a version" false (req "hello");
  check "hello non-numeric version" false (req "hello two");
  check "hello with body" false (req "hello 2\nx");
  check "hello-ok accepted" true (resp "hello-ok 2");
  check "hello-ok with body" false (resp "hello-ok 2\nx");
  check "dedit full flag out of range" false (req "dedit 1 2 0.0\nadd=0-1");
  check "dedit without body" false (req "dedit 1 1 0.0");
  check "dedit non-numeric serial" false (req "dedit one 0 0.0\nadd=0-1");
  check "dedit empty ops is a legal no-op batch" true (req "dedit 1 0 0.0\n");
  check "dreport three-line body" false (resp "dreport 1 ok\nid\njson\ncanon");
  check "dreport five-line body" false (resp "dreport 1 ok\na\nb\nc\nd\ne");
  check "dreport trailing header garbage" false
    (resp "dreport 1 ok extra\na\nb\nc\nd");
  check "dreport well-formed accepted" true (resp "dreport 1 ok\na\nb\nc\nd")

(* ---------------------------------------------------------------- *)
(* Timing percentile merges (the daemon's cross-process cases)       *)

let find_line t stage =
  List.find_opt (fun l -> l.Timing.l_stage = stage) (Timing.report t)

let timing_empty_merge () =
  let parent = Timing.create () in
  (* absorbing a worker that recorded nothing changes nothing *)
  Timing.absorb parent (Timing.samples (Timing.create ()));
  check "still no lines" true (Timing.report parent = []);
  Timing.record parent Timing.Prove 2.0;
  Timing.absorb parent (Timing.samples (Timing.create ()));
  match find_line parent "prove" with
  | Some l ->
      check_int "count unchanged by empty merge" 1 l.Timing.l_count;
      check "p50 is the sample" true (l.Timing.l_p50 = 2.0)
  | None -> Alcotest.fail "prove line vanished"

let timing_single_sample () =
  let t = Timing.create () in
  Timing.record t Timing.Verify 7.5;
  match find_line t "verify" with
  | Some l ->
      check_int "count 1" 1 l.Timing.l_count;
      check "all percentiles equal the one sample" true
        (l.Timing.l_p50 = 7.5 && l.Timing.l_p90 = 7.5 && l.Timing.l_p99 = 7.5
       && l.Timing.l_max = 7.5 && l.Timing.l_total_ms = 7.5)
  | None -> Alcotest.fail "single sample produced no line"

(* [l]'s percentile [p] lies within 1/16 of the exact value [x] *)
let within_bound p x = Float.abs (p -. x) <= x /. 16.0

let timing_partial_worker_merge () =
  (* worker 1 recorded prove only; worker 2 recorded verify only; the
     merged report must treat each stage as the exact union — a stage
     one worker never saw must not dilute the other's percentiles *)
  let prove_values = [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0 ] in
  let w1 = Timing.create () and w2 = Timing.create () in
  List.iter (fun v -> Timing.record w1 Timing.Prove v) prove_values;
  Timing.record w2 Timing.Verify 42.0;
  let parent = Timing.create () in
  Timing.absorb parent (Timing.samples w1);
  Timing.absorb parent (Timing.samples w2);
  let unsharded = Timing.create () in
  List.iter (fun v -> Timing.record unsharded Timing.Prove v) prove_values;
  (match find_line parent "prove" with
  | Some l ->
      check_int "prove count is w1's alone" 9 l.Timing.l_count;
      check "prove line equals the unsharded sink's" true
        (Some l = find_line unsharded "prove");
      check "prove p50 within the bound of 5.0" true (within_bound l.Timing.l_p50 5.0);
      check "prove p99 within the bound of 9.0" true (within_bound l.Timing.l_p99 9.0)
  | None -> Alcotest.fail "prove line missing");
  (match find_line parent "verify" with
  | Some l ->
      check_int "verify count is w2's alone" 1 l.Timing.l_count;
      check "verify percentiles undiluted" true
        (l.Timing.l_p50 = 42.0 && l.Timing.l_p99 = 42.0)
  | None -> Alcotest.fail "verify line missing");
  check "unrecorded stages stay absent" true (find_line parent "parse" = None)

let timing_merge_equals_sequential () =
  (* absorbing shards must give byte-for-byte the percentiles of one
     sink holding every sample *)
  let values = List.init 101 (fun i -> float_of_int ((i * 37) mod 101)) in
  let whole = Timing.create () in
  List.iter (fun v -> Timing.record whole Timing.Encode v) values;
  let parent = Timing.create () in
  let shard = Timing.create () in
  List.iteri
    (fun i v ->
      Timing.record shard Timing.Encode v;
      if i mod 7 = 0 then Timing.absorb parent (Timing.flush shard))
    values;
  Timing.absorb parent (Timing.flush shard);
  match (find_line whole "encode", find_line parent "encode") with
  | Some a, Some b -> check "sharded merge = sequential" true (a = b)
  | _ -> Alcotest.fail "encode line missing"

let timing_flush_discipline () =
  (* flush hands over each sample exactly once — the invariant that
     stops a long-lived worker double-counting its history *)
  let w = Timing.create () in
  let absorbed () =
    let parent = Timing.create () in
    Timing.absorb parent (Timing.flush w);
    parent
  in
  Timing.record w Timing.Store 1.0;
  Timing.add_counter w "view_hit" 3;
  let first = absorbed () in
  check "flush carries the sample" true
    (match find_line first "store" with
    | Some l -> l.Timing.l_count = 1 && l.Timing.l_p50 = 1.0
    | None -> false);
  check "flush carries counters" true
    (List.assoc "view_hit" (Timing.counters first) = 3);
  let second = absorbed () in
  check "second flush is empty" true
    (Timing.report second = [] && Timing.counters second = []);
  Timing.record w Timing.Store 9.0;
  let third = absorbed () in
  check "post-flush samples are fresh" true
    (match find_line third "store" with
    | Some l -> l.Timing.l_count = 1 && l.Timing.l_p50 = 9.0
    | None -> false)

(* A sink never grows: recording 10^6 samples, or absorbing 10^5
   per-job flushes, leaves it the size it had after the first 100. *)
let timing_constant_size () =
  let ms i = Float.pow 2.0 (float_of_int ((i * 7919) mod 31_000) /. 1000.0 -. 10.0) in
  let stage i = List.nth Timing.stages (i mod 5) in
  let sink = Timing.create () in
  let size_at_100 = ref 0 in
  for i = 1 to 1_000_000 do
    Timing.record sink (stage i) (ms i);
    if i = 100 then size_at_100 := Obj.reachable_words (Obj.repr sink)
  done;
  check_int "10^6 samples: size after the first 100" !size_at_100
    (Obj.reachable_words (Obj.repr sink));
  let worker = Timing.create () and parent = Timing.create () in
  for i = 1 to 100_000 do
    Timing.record worker Timing.Parse (ms i);
    Timing.record worker Timing.Store (ms (i + 1));
    Timing.record worker Timing.Verify (ms (i + 2));
    Timing.set_counter worker "view_hit" (i mod 3);
    Timing.set_counter worker "minor_words" 1000;
    Timing.absorb parent (Timing.flush worker);
    if i = 100 then size_at_100 := Obj.reachable_words (Obj.repr parent)
  done;
  check_int "10^5 absorbed flushes: size after the first 100" !size_at_100
    (Obj.reachable_words (Obj.repr parent));
  check "every absorbed sample counted" true
    (match find_line parent "verify" with
    | Some l -> l.Timing.l_count = 100_000
    | None -> false)

(* random samples over the bucket range, each with a stage and a shard,
   and the order the shards are absorbed in *)
let sharded_samples_arb =
  let open QCheck.Gen in
  (* log2 of the duration in ms, stage index, shard *)
  let sample = triple (float_range (-10.0) 19.99) (int_bound 4) (int_bound 7) in
  QCheck.make
    ~print:(fun (xs, order) ->
      Printf.sprintf "%d samples, shard order %s" (List.length xs)
        (String.concat "," (List.map string_of_int order)))
    (pair (list_size (int_range 1 300) sample) (shuffle_l (List.init 8 Fun.id)))

let timing_sharded_property =
  qcheck ~count:300 "timing: any sharding and absorb order = the whole run"
    sharded_samples_arb (fun (xs, order) ->
      let xs =
        List.map (fun (e, s, shard) -> (Float.pow 2.0 e, List.nth Timing.stages s, shard)) xs
      in
      let whole = Timing.create () in
      let shards = Array.init 8 (fun _ -> Timing.create ()) in
      List.iter
        (fun (ms, stage, shard) ->
          Timing.record whole stage ms;
          Timing.record shards.(shard) stage ms)
        xs;
      let parent = Timing.create () in
      List.iter (fun i -> Timing.absorb parent (Timing.flush shards.(i))) order;
      let exact stage q =
        let of_stage (ms, s, _) = if Timing.stage_name s = stage then Some ms else None in
        let sorted = Array.of_list (List.sort compare (List.filter_map of_stage xs)) in
        let n = Array.length sorted in
        sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
      in
      Timing.report parent = Timing.report whole
      && List.for_all
           (fun l ->
             within_bound l.Timing.l_p50 (exact l.Timing.l_stage 0.50)
             && within_bound l.Timing.l_p90 (exact l.Timing.l_stage 0.90)
             && within_bound l.Timing.l_p99 (exact l.Timing.l_stage 0.99))
           (Timing.report whole))

(* ---------------------------------------------------------------- *)
(* end-to-end: a real daemon on a tmp socket                         *)

let jobs_lines =
  [
    "id=e2e-ring gen=cycle n=12 property=connected k=2 seed=1";
    "id=e2e-tree gen=tree n=16 gseed=5 property=acyclic k=2 seed=2";
    "id=e2e-ladder gen=ladder n=12 property=bipartite k=2 seed=3";
    "id=e2e-star gen=star n=9 property=triangle_free k=2 seed=4";
    "id=e2e-path gen=path n=10 property=perfect_matching k=1 seed=5";
  ]

let parse_lines lines =
  List.map
    (fun l ->
      match Manifest.parse l with
      | Ok [ j ] -> j
      | _ -> Alcotest.failf "bad test job line %S" l)
    lines

let start_server cfg =
  match Server.spawn cfg with Ok pid -> pid | Error e -> Alcotest.fail e

(* a connection that has not yet said hello — only the handshake tests
   want one of these *)
let dial_raw path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let read_response fd =
  match Wire.read_frame fd with
  | None -> Alcotest.fail "server closed the connection"
  | Some p -> (
      match Wire.decode_response p with
      | Ok r -> r
      | Error e -> Alcotest.failf "bad response: %s" e)

let dial path =
  match Client.connect path with
  | Ok c -> c.Client.fd
  | Error e -> Alcotest.failf "dial: %s" (Client.message e)

let submit fd serial line =
  Wire.write_frame fd
    (Wire.encode_request
       (Wire.Submit { serial; canonical = true; deadline_ms = 0.0; line }))

let stats fd =
  Wire.write_frame fd (Wire.encode_request Wire.Stats_req);
  match read_response fd with
  | Wire.Stats_reply json -> json
  | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r)

let stop_server ?(signal = Sys.sigterm) pid =
  Unix.kill pid signal;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
      Alcotest.fail "server killed by signal instead of draining"

(* SIGKILL and reap [pid] unless it is reaped already (then it is no
   child of ours any more, and is left alone) *)
let kill_and_reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

(* [f pid] against a daemon started from [cfg], and the daemon stopped
   whatever [f] does: when [f] returns, it must drain cleanly on
   SIGTERM (the [label] check; [~drain:false] when [f] stops it
   itself); when [f] raises, as a failing assertion does, it is
   SIGKILLed and reaped before the failure propagates, so no test
   leaves a daemon running *)
let with_server ?(label = "clean drain") ?(drain = true) cfg f =
  let pid = start_server cfg in
  Fun.protect
    ~finally:(fun () -> kill_and_reap pid)
    (fun () ->
      let v = f pid in
      if drain then check_int label 0 (stop_server pid);
      v)

let base_cfg ~socket_path ~workers =
  {
    Server.socket_path;
    workers;
    queue_cap = 16;
    client_cap = 8;
    make_engine = (fun ~worker:_ timing -> Engine.create ~timing ());
    verbose = false;
    journal_dir = None;
    journal_fsync = `Every 8;
    journal_checkpoint = 256;
  }

(* [Client.submit_all]'s serial-indexed reports, in the canonical
   order: stable sort by id over submission order *)
let canonical_lines (reports : Client.report array) =
  Array.to_list reports
  |> List.stable_sort (fun (a : Client.report) b -> compare a.id b.id)
  |> List.map (fun (r : Client.report) -> r.canonical)
  |> String.concat "\n"

(* [Client.submit_all] of [lines] over a fresh connection to [path] *)
let submit_all ?log path lines =
  Result.bind (Client.connect path) (fun c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.submit_all ?log c ~window:16 ~deadline_ms:0.0
            (Array.of_list (parse_lines lines))))

let batch_lines lines =
  Stats.canonical_lines (fst (Engine.run_jobs (Engine.create ()) (parse_lines lines)))

let daemon_matches_batch () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      with_server ~label:"clean SIGTERM drain"
        (base_cfg ~socket_path ~workers:2)
        (fun _ ->
        (match submit_all socket_path jobs_lines with
        | Ok reports ->
            check_str "daemon canonical output = batch canonical output"
              (batch_lines jobs_lines) (canonical_lines reports)
        | Error e -> Alcotest.fail (Client.message e)));
      check "socket unlinked after drain" true
        (not (Sys.file_exists socket_path)))

let daemon_backpressure () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let cfg =
        { (base_cfg ~socket_path ~workers:1) with queue_cap = 1; client_cap = 1 }
      in
      with_server cfg (fun _ ->
        let fd = dial socket_path in
        (* a burst far over both caps: the excess must be refused with
           Overloaded, not buffered *)
        let burst = 10 in
        for i = 0 to burst - 1 do
          submit fd i "id=burst gen=tree n=40 gseed=7 property=acyclic k=3 seed=9"
        done;
        let reports = ref 0 and refused = ref 0 in
        for _ = 1 to burst do
          match read_response fd with
          | Wire.Report _ -> incr reports
          | Wire.Overloaded { reason; _ } ->
              incr refused;
              check "reason names a cap" true
                (contains reason "cap" || contains reason "draining")
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r)
        done;
        check "some jobs served" true (!reports >= 1);
        check "excess refused, not buffered" true (!refused >= 1);
        check_int "every submission answered" burst (!reports + !refused);
        (* the stats endpoint must agree *)
        let json = stats fd in
        check "stats counts refusals" true
          (contains json "\"rejected_overload\":"
          && contains json "\"rejected_quota\":");
        Unix.close fd))

let daemon_stats_endpoint () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      with_server (base_cfg ~socket_path ~workers:2) (fun _ ->
        let fd = dial socket_path in
        List.iteri (fun i line -> submit fd i line) jobs_lines;
        List.iter (fun _ -> ignore (read_response fd)) jobs_lines;
        let json = stats fd in
        check "submitted counted" true (contains json "\"submitted\":5");
        check "completed counted" true (contains json "\"completed\":5");
        check "workers reported" true (contains json "\"configured\":2");
        check "queue cap surfaced" true (contains json "\"cap\":16");
        (* worker samples reach the endpoint's percentiles *)
        check "stage percentiles present" true
          (contains json "\"stage\":\"prove\"" && contains json "\"p99_ms\":");
        (* ping still answered while idle *)
        Wire.write_frame fd (Wire.encode_request Wire.Ping);
        (match read_response fd with
        | Wire.Pong -> ()
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        Unix.close fd))


let json_int json field =
  match Hashtbl.find_opt (Client.stat_ints json) field with
  | Some v -> v
  | None -> Alcotest.failf "field %s missing from %s" field json

(* a daemon's stats carry its workers' stage histograms and counters
   with no configuration: every engine times, every Done ships. The
   jobs are then replayed: each replay is a hit on a bundle the worker
   accepted under the same ids, served with no verify. One worker, so
   that every replay meets its own first run's store. *)
let daemon_default_stats () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let json =
        with_server (base_cfg ~socket_path ~workers:1) (fun _ ->
            let fd = dial socket_path in
            let n = List.length jobs_lines in
            List.iteri (fun i line -> submit fd i line) jobs_lines;
            List.iter (fun _ -> ignore (read_response fd)) jobs_lines;
            List.iteri (fun i line -> submit fd (n + i) line) jobs_lines;
            List.iter (fun _ -> ignore (read_response fd)) jobs_lines;
            let json = stats fd in
            Unix.close fd;
            json)
      in
      let n = List.length jobs_lines in
      check "a verify stage with one sample per distinct job" true
        (contains json (Printf.sprintf "{\"stage\":\"verify\",\"count\":%d," n));
      List.iter
        (fun name ->
          check (name ^ " counter present") true
            (contains json (Printf.sprintf "\"%s\":" name)))
        [ "view_hit"; "lanes_fallback"; "minor_words"; "hit_known" ];
      check_int "every replay a known hit" n (json_int json "hit_known");
      check "minor words counted" true (json_int json "minor_words" > 0))

let daemon_crash_respawn () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let cache = Filename.concat dir "cache" in
      (* pre-create the shared disk tier so the fault plan's op counter
         starts at the record writes, not the mkdir *)
      Sys.mkdir cache 0o755;
      let plan =
        match Blob.parse_plan "crash@3" with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      let cfg =
        {
          (base_cfg ~socket_path ~workers:2) with
          make_engine =
            (fun ~worker:_ timing ->
              (* every worker incarnation: two mutating ops succeed (one
                 record = tmp write + rename), then the process dies on
                 the next store write *)
              let io = fst (Blob.inject ~plan Blob.real) in
              Engine.create ~cache_dir:cache ~io ~timing ());
        }
      in
      with_server ~label:"clean drain after crashes" cfg (fun _ ->
        let fd = dial socket_path in
        (* distinct instances: every job is a cache miss, so each wants a
           store write and the workers keep crashing and respawning *)
        let lines =
          List.init 8 (fun i ->
              Printf.sprintf
                "id=c%d gen=path n=%d property=connected k=2 seed=1" i (6 + i))
        in
        List.iteri (fun i line -> submit fd i line) lines;
        let served = ref 0 and failed = ref 0 in
        List.iter
          (fun _ ->
            match read_response fd with
            | Wire.Report { status; _ } ->
                if
                  List.mem status
                    [ "served_fresh"; "served_cached"; "served_degraded" ]
                then incr served
                else incr failed
            | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r))
          lines;
        check_int "every job reached a terminal reply" 8 (!served + !failed);
        check "most jobs served despite crashes" true (!served >= 6);
        let json = stats fd in
        check "workers died and were respawned" true
          (json_int json "restarts" >= 2);
        check "crashed jobs were requeued" true (json_int json "requeued" >= 1);
        check_int "no slot permanently stopped" 0 (json_int json "stopped");
        check_int "full pool alive after every crash" 2 (json_int json "live");
        Unix.close fd))

(* the server's worker pids are not on the wire; on Linux /proc names a
   process's children, which is exactly the external-kill (OOM, admin)
   scenario the supervisor must survive *)
let children_of pid =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some
        (String.split_on_char ' ' line
        |> List.filter_map int_of_string_opt)

let daemon_idle_worker_death () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      with_server (base_cfg ~socket_path ~workers:1) (fun pid ->
        let fd = dial socket_path in
        (* prove the worker serves, then kill it while it sits idle *)
        submit fd 0 (List.hd jobs_lines);
        (match read_response fd with
        | Wire.Report _ -> ()
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        (match children_of pid with
        | None | Some [] -> () (* no /proc children file: cannot stage it *)
        | Some kids ->
            List.iter
              (fun k ->
                try Unix.kill k Sys.sigkill with Unix.Unix_error _ -> ())
              kids;
            Unix.sleepf 0.05;
            (* a submission against the dead slot must not wedge dispatch:
               the daemon has to notice the EOF, respawn, and answer *)
            submit fd 1 (List.nth jobs_lines 1);
            (match Unix.select [ fd ] [] [] 30.0 with
            | [], _, _ ->
                Alcotest.fail "daemon wedged after an idle worker death"
            | _ -> ());
            (match read_response fd with
            | Wire.Report { serial; _ } ->
                check_int "answered after respawn" 1 serial
            | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
            let json = stats fd in
            check "the death was counted as a restart" true
              (json_int json "restarts" >= 1));
        Unix.close fd))

let daemon_sigterm_drains_inflight () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      with_server ~drain:false (base_cfg ~socket_path ~workers:1) (fun pid ->
        let fd = dial socket_path in
        (* queue several slow-ish jobs, then fire SIGTERM immediately:
           every accepted job must still be answered before the close *)
        let lines =
          List.init 4 (fun i ->
              Printf.sprintf
                "id=drain%d gen=tree n=%d gseed=%d property=acyclic k=3 seed=2" i
                (30 + i) i)
        in
        List.iteri (fun i line -> submit fd i line) lines;
        Unix.kill pid Sys.sigterm;
        let answered = ref 0 in
        List.iter
          (fun _ ->
            match read_response fd with
            | Wire.Report _ -> incr answered
            | Wire.Overloaded _ ->
                (* a job that raced the drain gate: refused, not dropped *)
                incr answered
            | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r))
          lines;
        check_int "every accepted job answered during drain" 4 !answered;
        check "connection closed after drain" true (Wire.read_frame fd = None);
        Unix.close fd;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, Unix.WEXITED c -> Alcotest.failf "drain exited %d" c
        | _ -> Alcotest.fail "server killed by signal"));
      check "socket unlinked" true (not (Sys.file_exists socket_path)))

let daemon_rejects_garbage () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      with_server (base_cfg ~socket_path ~workers:1) (fun _ ->
        let fd = dial socket_path in
        Wire.write_frame fd "frobnicate 7";
        (match read_response fd with
        | Wire.Err { reason; _ } ->
            check "names the bad verb" true (contains reason "frobnicate")
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        (* a bad job line is an Err tied to its serial, and the
           connection keeps working afterwards *)
        Wire.write_frame fd
          (Wire.encode_request
             (Wire.Submit
                { serial = 3; canonical = false; deadline_ms = 0.0; line = "nonsense" }));
        (match read_response fd with
        | Wire.Err { serial; _ } -> check_int "serial echoed" 3 serial
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        submit fd 4 (List.hd jobs_lines);
        (match read_response fd with
        | Wire.Report { serial; _ } -> check_int "connection survives" 4 serial
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        Unix.close fd))

let daemon_delta_session () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      with_server (base_cfg ~socket_path ~workers:2) (fun _ ->
        let fd = dial socket_path in
        (* an edit before any open is a protocol error, not a crash *)
        Wire.write_frame fd
          (Wire.encode_request
             (Wire.Delta_edit
                { serial = 0; deadline_ms = 0.0; full = false; ops = "add=0-1" }));
        (match read_response fd with
        | Wire.Err { serial; reason } ->
            check_int "serial echoed" 0 serial;
            check "asks for a dopen" true (contains reason "dopen")
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        (* open a session, then stream edits: replies must be Dreports in
           submission order, ids suffixed per edit, patch info attached *)
        Wire.write_frame fd
          (Wire.encode_request
             (Wire.Delta_open
                {
                  serial = 1;
                  deadline_ms = 0.0;
                  sid = "t-dyn";
                  resume = false;
                  line = "id=dyn gen=path n=24 property=connected k=2 seed=7";
                }));
        (match read_response fd with
        | Wire.Dreport { serial; id; status; patch; _ } ->
            check_int "open serial" 1 serial;
            check_str "open id" "dyn" id;
            check_str "open served" "served_fresh" status;
            check "open patch mode" true (contains patch "\"mode\":\"open\"")
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        let edits = [ "del=3-4"; "add=3-4"; "add=0-5 del=5-6"; "" ] in
        List.iteri
          (fun i ops ->
            Wire.write_frame fd
              (Wire.encode_request
                 (Wire.Delta_edit
                    { serial = 2 + i; deadline_ms = 0.0; full = false; ops })))
          edits;
        List.iteri
          (fun i _ ->
            match read_response fd with
            | Wire.Dreport { serial; id; status; patch; canonical; _ } ->
                check_int "edit serial in stream order" (2 + i) serial;
                check_str "edit id suffixed"
                  (Printf.sprintf "dyn#e%04d" (i + 1))
                  id;
                check "edit reached a verdict" true
                  (status <> "failed" && status <> "input_error");
                check "patch info is json" true (contains patch "\"mode\":");
                check "canonical line carries the verdict" true
                  (contains canonical "\"verdict\":")
            | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r))
          edits;
        (* a malformed edit line is an input error pinned to its serial,
           and the session survives it *)
        Wire.write_frame fd
          (Wire.encode_request
             (Wire.Delta_edit
                { serial = 6; deadline_ms = 0.0; full = false; ops = "frob=1-2" }));
        (match read_response fd with
        | Wire.Dreport { serial; status; _ } ->
            check_int "bad edit serial" 6 serial;
            check_str "bad edit is an input error" "input_error" status
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        Wire.write_frame fd
          (Wire.encode_request
             (Wire.Delta_edit
                { serial = 7; deadline_ms = 0.0; full = true; ops = "add=3-4" }));
        (match read_response fd with
        | Wire.Dreport { serial; patch; _ } ->
            check_int "session survives a bad edit" 7 serial;
            check "forced full recompute labelled" true
              (contains patch "\"mode\":\"full\""
              || contains patch "\"mode\":\"cached\"")
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        (* the verifier-memo counters ride the live stats endpoint *)
        let json = stats fd in
        check "counters object present" true (contains json "\"counters\":{");
        check "view misses surfaced" true (json_int json "view_miss" >= 1);
        check "view hits surfaced" true (json_int json "view_hit" >= 0);
        check "group misses surfaced" true (json_int json "group_miss" >= 0);
        check "lane fallbacks surfaced" true (json_int json "lanes_fallback" >= 0);
        Unix.close fd))

(* the mandatory handshake: a frame before hello — garbage, an honest
   v1 frame, anything — gets one descriptive error naming the expected
   exchange, then the connection is closed; a wrong version gets a
   mismatch error naming both versions *)
let daemon_requires_hello () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      with_server (base_cfg ~socket_path ~workers:1) (fun _ ->
        (* an old (protocol-1) client submitting straight away *)
        let fd = dial_raw socket_path in
        submit fd 0 (List.hd jobs_lines);
        (match read_response fd with
        | Wire.Err { reason; _ } ->
            check "error names the handshake" true (contains reason "hello");
            check "error names the server version" true
              (contains reason (string_of_int Wire.protocol_version))
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        check "connection closed after the error" true (Wire.read_frame fd = None);
        Unix.close fd;
        (* a future client speaking a version we do not *)
        let fd = dial_raw socket_path in
        Wire.write_frame fd
          (Wire.encode_request
             (Wire.Hello { version = Wire.protocol_version + 1 }));
        (match read_response fd with
        | Wire.Err { reason; _ } ->
            check "mismatch error names both versions" true
              (contains reason "mismatch"
              && contains reason (string_of_int (Wire.protocol_version + 1)))
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        check "mismatched client hung up on" true (Wire.read_frame fd = None);
        Unix.close fd;
        (* an undecodable first frame, ditto: the decode error is served,
           then the connection is cut instead of waiting for more junk *)
        let fd = dial_raw socket_path in
        Wire.write_frame fd "frobnicate 7";
        (match read_response fd with
        | Wire.Err { reason; _ } ->
            check "garbage pre-hello named" true (contains reason "frobnicate")
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        check "garbage client hung up on" true (Wire.read_frame fd = None);
        Unix.close fd;
        (* and none of it hurt a well-behaved client *)
        let fd = dial socket_path in
        submit fd 9 (List.hd jobs_lines);
        (match read_response fd with
        | Wire.Report { serial; _ } -> check_int "server still serves" 9 serial
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        Unix.close fd))

(* a second server on a live socket must refuse to start (the pidfile
   lock), and a server started over a SIGKILLed predecessor's leftovers
   must take over the stale socket *)
let daemon_pidfile_lock () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      with_server ~drain:false (base_cfg ~socket_path ~workers:1) (fun pid ->
        (* the contender must lose while the first server holds the lock *)
        flush stdout;
        flush stderr;
        (match Unix.fork () with
        | 0 ->
            Unix.close Unix.stderr;
            (try Server.run (base_cfg ~socket_path ~workers:1)
             with Sys_error _ -> Unix._exit 2);
            Unix._exit 0
        | contender -> (
            match Unix.waitpid [] contender with
            | _, Unix.WEXITED 2 -> ()
            | _, s ->
                Alcotest.failf "contender did not lose the lock race (%s)"
                  (match s with
                  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                  | _ -> "signal")));
        (* the incumbent is unharmed by the contender's attempt *)
        let fd = dial socket_path in
        submit fd 0 (List.hd jobs_lines);
        (match read_response fd with
        | Wire.Report _ -> ()
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        Unix.close fd;
        (* SIGKILL the incumbent: socket + pidfile left behind, lock
           released by the kernel — a new server must take over *)
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid));
      check "socket left behind by SIGKILL" true (Sys.file_exists socket_path);
      with_server ~label:"takeover server drains cleanly"
        (base_cfg ~socket_path ~workers:1)
        (fun _ ->
        let fd = dial socket_path in
        submit fd 1 (List.hd jobs_lines);
        (match read_response fd with
        | Wire.Report _ -> ()
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        Unix.close fd))

(* the tentpole end-to-end: open a journaled session, apply edits,
   SIGKILL the daemon mid-life, restart it on the same socket+journal,
   resume — the journaled replies dedup byte-for-byte and the stream
   continues where it left off *)
let daemon_journal_resume () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let cfg =
        {
          (base_cfg ~socket_path ~workers:1) with
          journal_dir = Some (Filename.concat dir "journal");
          journal_fsync = `Always;
        }
      in
      with_server ~drain:false cfg (fun pid ->
        let fd = dial socket_path in
        let dopen ~resume serial =
          Wire.write_frame fd
            (Wire.encode_request
               (Wire.Delta_open
                  {
                    serial;
                    deadline_ms = 0.0;
                    sid = "t-resume";
                    resume;
                    line =
                      (if resume then ""
                       else "id=dyn gen=path n=24 property=connected k=2 seed=7");
                  }))
        in
        let dedit serial ops =
          Wire.write_frame fd
            (Wire.encode_request
               (Wire.Delta_edit { serial; deadline_ms = 0.0; full = false; ops }))
        in
        let dreport what =
          match read_response fd with
          | Wire.Dreport { serial; canonical; _ } -> (serial, canonical)
          | r ->
              Alcotest.failf "unexpected reply to %s: %s" what
                (Wire.encode_response r)
        in
        dopen ~resume:false 0;
        let _, open_canonical = dreport "open" in
        let edits = [ "del=3-4"; "add=3-4"; "add=0-5 del=5-6" ] in
        let firsts =
          List.mapi
            (fun i ops ->
              dedit (i + 1) ops;
              dreport "edit")
            edits
        in
        (* die without warning; socket, pidfile, journal all left behind *)
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Unix.close fd;
        with_server cfg (fun _ ->
          let fd = dial socket_path in
          dopen ~resume:true 0;
          let _, resumed_open = dreport "resumed open" in
          check_str "resumed open reply is the journaled one byte-for-byte"
            open_canonical resumed_open;
          (* a client that never saw its last reply resends it: the journal
             answers, byte-identical, without recomputing *)
          dedit 3 "add=0-5 del=5-6";
          let s, dedup_canonical = dreport "deduplicated resend" in
          check_int "resent serial echoed" 3 s;
          check_str "journal-dedup reply byte-identical"
            (snd (List.nth firsts 2))
            dedup_canonical;
          (* ... and the stream continues against the rebuilt graph *)
          dedit 4 "add=7-9";
          let s, _ = dreport "post-resume edit" in
          check_int "stream continues past the crash" 4 s;
          (* a serial further ahead than the journal is a lost edit: the
             daemon must refuse it descriptively, not diverge silently *)
          dedit 9 "add=0-1";
          (match read_response fd with
          | Wire.Err { serial; reason } ->
              check_int "gap serial echoed" 9 serial;
              check "gap named" true (contains reason "serial gap")
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
          (* resumption is single-writer: a second connection is refused
             while this one holds the session *)
          let fd2 = dial socket_path in
          Wire.write_frame fd2
            (Wire.encode_request
               (Wire.Delta_open
                  {
                    serial = 0;
                    deadline_ms = 0.0;
                    sid = "t-resume";
                    resume = true;
                    line = "";
                  }));
          (match read_response fd2 with
          | Wire.Err { reason; _ } -> check "busy named" true (contains reason "busy")
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
          Unix.close fd2;
          (* durability counters ride the stats endpoint *)
          let json = stats fd in
          check "resumed counted" true (json_int json "resumed" >= 1);
          check "rebuilt steps counted" true (json_int json "rebuilt_steps" >= 3);
          check "no resume mismatches" true (json_int json "resume_mismatch" = 0);
          check "dedup served counted" true (json_int json "dedup_served" >= 1);
          Unix.close fd);
        (* an unknown session stays unknown after everything *)
        with_server cfg (fun _ ->
          let fd = dial socket_path in
          Wire.write_frame fd
            (Wire.encode_request
               (Wire.Delta_open
                  {
                    serial = 0;
                    deadline_ms = 0.0;
                    sid = "never-opened";
                    resume = true;
                    line = "";
                  }));
          (match read_response fd with
          | Wire.Err { reason; _ } ->
              check "unknown sid named" true (contains reason "never-opened")
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
          Unix.close fd)))

(* every refusal a well-formed request can draw before it is queued:
   one Err per request, echoing its serial, with the exact reason *)
let daemon_refusals () =
  with_temp_dir (fun dir ->
      let dopen ?(resume = false) serial sid =
        Wire.Delta_open
          {
            serial;
            deadline_ms = 0.0;
            sid;
            resume;
            line =
              (if resume then ""
               else "id=held gen=path n=8 property=connected k=2 seed=1");
          }
      in
      let submit_line serial line =
        Wire.Submit { serial; canonical = true; deadline_ms = 0.0; line }
      in
      let refusals ~journal cases =
        let socket_path = Filename.concat dir "r.sock" in
        let cfg =
          {
            (base_cfg ~socket_path ~workers:1) with
            journal_dir =
              (if journal then Some (Filename.concat dir "journal") else None);
          }
        in
        with_server cfg (fun _ ->
          (* another client holds the session "held" for the whole table *)
          let holder = dial socket_path in
          Wire.write_frame holder (Wire.encode_request (dopen 0 "held"));
          (match read_response holder with
          | Wire.Dreport _ -> ()
          | r -> Alcotest.failf "holder's open: %s" (Wire.encode_response r));
          let fd = dial socket_path in
          List.iter
            (fun (what, req, reason) ->
              Wire.write_frame fd (Wire.encode_request req);
              match (req, read_response fd) with
              | ( ( Wire.Submit { serial; _ }
                  | Wire.Delta_open { serial; _ }
                  | Wire.Delta_edit { serial; _ } ),
                  Wire.Err e ) ->
                  check_int (what ^ ": serial echoed") serial e.serial;
                  check_str (what ^ ": reason") reason e.reason
              | _, r ->
                  Alcotest.failf "%s: unexpected reply %s" what
                    (Wire.encode_response r))
            cases;
          Unix.close fd;
          Unix.close holder)
      in
      refusals ~journal:false
        [
          ( "dedit before any dopen",
            Wire.Delta_edit
              { serial = 11; deadline_ms = 0.0; full = false; ops = "add=0-1" },
            "no delta session open; send a dopen first" );
          ("submit with no job line", submit_line 12 "", "no job in submission");
          ( "submit with two job lines",
            submit_line 13
              (String.concat "\n" [ List.hd jobs_lines; List.nth jobs_lines 1 ]),
            "a submission is exactly one job line" );
          ( "fresh dopen of a held sid",
            dopen 14 "held",
            "session held busy: another client holds it" );
          ( "resume without a journal",
            dopen ~resume:true 15 "held",
            "resume unavailable: the server runs without a journal" );
        ];
      refusals ~journal:true
        [
          ( "resume of an unknown sid",
            dopen ~resume:true 16 "ghost",
            "unknown session ghost: nothing to resume" );
        ])

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* a dead worker's store counters stay in the stats endpoint's totals
   after its replacement reports its own *)
let daemon_store_counters_survive_death () =
  with_temp_dir (fun dir ->
      let cache = Filename.concat dir "cache" in
      let line = List.hd jobs_lines in
      (* seed one record, then rot one byte of its payload: the daemon's
         worker finds it corrupt, quarantines it and proves afresh *)
      ignore
        (Engine.run_jobs (Engine.create ~cache_dir:cache ()) (parse_lines [ line ]));
      let path =
        match
          List.filter
            (fun f -> Filename.check_suffix f ".cert")
            (Array.to_list (Sys.readdir cache))
        with
        | [ f ] -> Filename.concat cache f
        | fs -> Alcotest.failf "expected one record, found %d" (List.length fs)
      in
      let rotten = Bytes.of_string (read_file path) in
      let last = Bytes.length rotten - 1 in
      Bytes.set rotten last
        (Char.chr (Char.code (Bytes.get rotten last) lxor 1));
      write_file path (Bytes.to_string rotten);
      let socket_path = Filename.concat dir "d.sock" in
      let cfg =
        {
          (base_cfg ~socket_path ~workers:1) with
          make_engine =
            (fun ~worker:_ timing -> Engine.create ~cache_dir:cache ~timing ());
        }
      in
      with_server cfg (fun pid ->
        let fd = dial socket_path in
        submit fd 0 line;
        (match read_response fd with
        | Wire.Report { status; _ } ->
            check_str "the corrupt hit is proved afresh" "served_fresh" status
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
        (match children_of pid with
        | None | Some [] -> () (* no /proc children file: cannot stage it *)
        | Some kids ->
            List.iter
              (fun k -> try Unix.kill k Sys.sigkill with Unix.Unix_error _ -> ())
              kids;
            Unix.sleepf 0.05;
            submit fd 1 (List.nth jobs_lines 1);
            (match read_response fd with
            | Wire.Report { serial; _ } ->
                check_int "the replacement serves" 1 serial
            | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
            let json = stats fd in
            check "the dead worker's corrupt record still counted" true
              (json_int json "corrupt" >= 1);
            check "its quarantine still counted" true
              (json_int json "quarantined" >= 1));
        Unix.close fd))
(* ---------------------------------------------------------------- *)
(* the client's failure paths                                        *)

(* A forked peer that speaks raw [Wire] frames: it accepts one client,
   answers its hello, then answers each further request with [answer]
   until the client hangs up. *)
let fake_peer path answer =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let fd, _ = Unix.accept lfd in
      let rec serve () =
        match Wire.read_frame fd with
        | Some p ->
            (match Wire.decode_request p with
            | Ok (Wire.Hello { version }) -> [ Wire.Hello_ok { version } ]
            | Ok req -> answer req
            | Error _ -> [])
            |> List.iter (fun r -> Wire.write_frame fd (Wire.encode_response r));
            serve ()
        | None | (exception _) -> ()
      in
      serve ();
      Unix._exit 0
  | pid ->
      Unix.close lfd;
      pid

(* [submit_all] of [lines] against a fake peer *)
let submit_to_fake_peer lines answer =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "f.sock" in
      let peer = fake_peer path answer in
      let got = submit_all path lines in
      ignore (Unix.waitpid [] peer);
      got)

let report serial =
  let id = Printf.sprintf "s%d" serial in
  Wire.Report { serial; id; status = "served_fresh"; json = "{}"; canonical = id }

let client_overload_cap () =
  match
    submit_to_fake_peer [ List.hd jobs_lines ] (function
      | Wire.Submit { serial; _ } -> [ Wire.Overloaded { serial; reason = "queue full" } ]
      | _ -> [])
  with
  | Error (Client.Overloaded_cap (what, n, reason)) ->
      check_str "names the job" "job e2e-ring" what;
      check_int "gives up at the cap" 100 n;
      check_str "keeps the last reason" "queue full" reason
  | Error e -> Alcotest.failf "wrong error: %s" (Client.message e)
  | Ok _ -> Alcotest.fail "a job refused forever was reported served"

let client_bad_serial () =
  List.iter
    (fun bad ->
      match
        submit_to_fake_peer jobs_lines (function
          | Wire.Submit _ -> [ report bad ]
          | _ -> [])
      with
      | Error (Client.Bad_response m) ->
          check "names the serial" true (contains m (string_of_int bad))
      | Error e -> Alcotest.failf "wrong error: %s" (Client.message e)
      | Ok _ -> Alcotest.fail "an out-of-range serial was accepted")
    [ List.length jobs_lines; -1; 99 ]

let client_duplicate_replies () =
  match
    submit_to_fake_peer jobs_lines (function
      | Wire.Submit { serial; _ } -> [ report serial; report serial ]
      | _ -> [])
  with
  | Ok reports ->
      check "each serial answered once, by its own reply" true
        (Array.to_list reports
        |> List.mapi (fun i (r : Client.report) -> r.id = Printf.sprintf "s%d" i)
        |> List.for_all Fun.id);
      check_int "one report per job" (List.length jobs_lines) (Array.length reports)
  | Error e -> Alcotest.fail (Client.message e)

exception Timed_out

(* [submit_all] across a SIGKILL: a forked helper waits until the
   daemon has answered some jobs, kills it and starts a replacement on
   the same socket. Every serial must come back once, and the reports
   must be the batch driver's. *)
let client_exactly_once_across_kill () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "k.sock" in
      let cfg =
        { (base_cfg ~socket_path ~workers:1) with queue_cap = 64; client_cap = 64 }
      in
      let lines =
        List.init 48 (fun i ->
            Printf.sprintf
              "id=k%02d gen=tree n=%d gseed=%d property=acyclic k=3 seed=2" i
              (40 + (i mod 7)) i)
      in
      with_server ~drain:false cfg (fun pid ->
        flush stdout;
        flush stderr;
        let helper =
          match Unix.fork () with
          | 0 ->
              let rec until_progress c =
                match Client.rpc c Wire.Stats_req with
                | Ok (Wire.Stats_reply j)
                  when Hashtbl.find (Client.stat_ints j) "completed" >= 8 ->
                    ()
                | Ok _ ->
                    Unix.sleepf 0.002;
                    until_progress c
                | Error _ -> Unix._exit 3
              in
              (match Client.connect socket_path with
              | Ok c -> until_progress c
              | Error _ -> Unix._exit 3);
              Unix.kill pid Sys.sigkill;
              (* the killed daemon is not this process's child to reap:
                 retry until the kernel has released its instance lock.
                 The replacement's exit status is the helper's. *)
              let rec replace tries =
                match Server.spawn cfg with
                | Ok pid2 -> (
                    match Unix.waitpid [] pid2 with
                    | _, Unix.WEXITED c -> c
                    | _ -> 4)
                | Error _ when tries < 100 ->
                    Unix.sleepf 0.01;
                    replace (tries + 1)
                | Error _ -> 5
              in
              Unix._exit (replace 0)
          | h -> h
        in
        let notices = ref [] and helper_status = ref (Unix.WEXITED 0) in
        let got =
          Fun.protect
            ~finally:(fun () ->
              ignore (Unix.alarm 0);
              Sys.set_signal Sys.sigalrm Sys.Signal_default;
              (* the replacement is the helper's child; its pid is in the
                 pidfile every daemon writes *)
              (match
                 int_of_string_opt (String.trim (read_file (socket_path ^ ".pid")))
               with
              | Some pid2 when pid2 <> pid -> Unix.kill pid2 Sys.sigterm
              | _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
              ignore (Unix.waitpid [] pid);
              helper_status := snd (Unix.waitpid [] helper))
            (fun () ->
              (* a client that waits forever for a lost reply fails here *)
              Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out));
              ignore (Unix.alarm 60);
              submit_all ~log:(fun m -> notices := m :: !notices) socket_path lines)
        in
        check "the replacement drained cleanly" true
          (!helper_status = Unix.WEXITED 0);
        match got with
        | Error e -> Alcotest.fail (Client.message e)
        | Ok reports ->
            check "the kill landed mid-stream" true
              (List.exists (fun m -> contains m "resubmit") !notices);
            check_int "one report per job" 48 (Array.length reports);
            check_str "canonical lines = the batch driver's" (batch_lines lines)
              (canonical_lines reports)))

(* ---------------------------------------------------------------- *)
(* the protocol model: Server_core driven in-process                 *)

(* [Server_core] is the daemon with its I/O cut away, so this test
   plays the shell: it feeds generated events to the core and runs its
   actions as [Server] does, with each worker simulated in-process by
   the real [Worker.handler] over a memory-only [Engine]. Beside the
   core runs a model of the protocol over plain lists. After every
   step, the replies, journal appends, closes, spawns and warnings the
   model predicts must equal the core's, in order; each job the core
   sends must be the one the dispatch rules pick; no idle worker may
   be left beside work it could run; and the model's counters must
   equal the stats endpoint's. At quiescence [submitted = completed +
   dropped], nothing waits, and a worker holds a session only for a
   live client pinned to it. *)

module Core = Lcp_service.Server_core
module Worker = Lcp_service.Worker
module Journal = Lcp_service.Journal
module Cert_store = Lcp_service.Cert_store

let broken fmt = Printf.ksprintf failwith fmt

(* a journal directory in memory, so that a trace can restart the
   daemon on it; [fault] fails the next append *)
let mem_io fault : Blob.t =
  let files = Hashtbl.create 4 and dirs = Hashtbl.create 2 in
  let read p = try Hashtbl.find files p with Not_found -> raise (Sys_error p) in
  let append p s =
    if !fault then (fault := false; raise (Sys_error (p ^ ": No space left on device")));
    Hashtbl.replace files p ((try read p with Sys_error _ -> "") ^ s)
  in
  { Blob.read_file = read; write_file = Hashtbl.replace files; append_file = append;
    sync = ignore; rename = (fun a b -> Hashtbl.replace files b (read a); Hashtbl.remove files a);
    remove = Hashtbl.remove files; list_dir = (fun _ -> [||]);
    mkdir = (fun d -> Hashtbl.replace dirs d ());
    file_exists = (fun p -> Hashtbl.mem files p || Hashtbl.mem dirs p);
    is_directory = Hashtbl.mem dirs; mtime = (fun _ -> 0.0); touch = ignore }

type req =
  | Submit of int  (** a line of [lines] *)
  | Open of int * int  (** a sid of [sids], a line *)
  | Resume of int
  | Edit of int * bool  (** an edit of [ops], full *)
  | Resend  (** the client's last edit serial again *)
  | Gap  (** an edit serial two past the next *)
  | Ping | Stats | Shutdown

type cmd =
  | Connect of bool  (** and say hello *)
  | Hello of int * bool  (** a client, the right version *)
  | Req of int * req
  | Garbage of int
  | Hangup of int * bool  (** a client, with a clean EOF *)
  | Work of int  (** a slot says Ready, or answers its next frame *)
  | Pump of int  (** a slot's frames fully leave the parent *)
  | Kill of int
  | Fail_start of int  (** a slot that is not yet ready fails to start *)
  | Jfault  (** the next journal append fails *)
  | Drain
  | Restart  (** SIGKILL the daemon, start it again on its journal *)

let lines =
  [| "id=ma gen=path n=5 property=connected k=2 seed=1";
     "id=mb gen=cycle n=6 property=bipartite k=2 seed=2";
     "id=mc gen=star n=5 property=acyclic k=2 seed=3"; "nonsense"; "";
     "id=ma gen=path n=5 property=connected k=2 seed=1\nid=mc gen=star n=5 property=acyclic k=2 seed=3" |]

let sids = [| "s0"; "s1" |]
let ops = [| "add=0-2"; "del=0-1"; "add=0-1"; ""; "frob=1-2" |]

let show_cmd =
  let p = Printf.sprintf in
  function
  | Connect b -> if b then "connect" else "connect (no hello)"
  | Hello (c, ok) -> p "c%d hello %s" c (if ok then "ok" else "wrong")
  | Req (c, r) -> p "c%d %s" c (match r with
      | Submit l -> p "submit %S" lines.(l)
      | Open (s, l) -> p "dopen %s %S" sids.(s) lines.(l)
      | Resume s -> "resume " ^ sids.(s)
      | Edit (o, full) -> p "dedit %S%s" ops.(o) (if full then " full" else "")
      | Resend -> "dedit (resend)" | Gap -> "dedit (gap)"
      | Ping -> "ping" | Stats -> "stats" | Shutdown -> "shutdown")
  | Garbage c -> p "c%d garbage" c
  | Hangup (c, eof) -> p "c%d %s" c (if eof then "eof" else "abandon")
  | Work s -> p "w%d work" s | Pump s -> p "w%d pump" s | Kill s -> p "w%d kill" s
  | Fail_start s -> p "w%d fail-start" s
  | Jfault -> "journal fault" | Drain -> "drain" | Restart -> "restart"

(* -- the model -- *)

type mjob = {
  uid : float;  (** the request's deadline, which names it in a [Send] *)
  owner : int;
  serial : int;
  job : Manifest.job;  (** for an edit, the session's base *)
  kind : [ `Submit | `Open | `Edit of bool * string ];
  sid : string option;
  line : string;
  expect : string option;  (** a resume rebuild: the journaled line *)
  mutable retried : bool;
}

type mclient = {
  id : int;
  mutable hello : bool;
  mutable closing : bool;
  mutable q : mjob list;
  mutable slot : int option;
  mutable base : Manifest.job option;
  mutable sid : string option;
}

type mslot = { mutable live : bool; mutable ready : bool; mutable busy : mjob option;
               mutable deaths : int; mutable stopped : bool }

type model = {
  qcap : int;
  ccap : int;
  journal : Journal.t option;  (** read, as the core reads it *)
  slots : mslot array;
  mutable clients : mclient list;  (** newest first, as the core keeps them *)
  mutable retry : mjob list;
  mutable rr : int;
  mutable draining : bool;
  mutable quitting : int list;
  n : (string, int) Hashtbl.t;  (** counters by their stats-endpoint name *)
  mutable want : Core.action list;  (** this step's, newest first *)
}

let get m k = Option.value ~default:0 (Hashtbl.find_opt m.n k)
let bump m k = Hashtbl.replace m.n k (get m k + 1)
let want m a = m.want <- a :: m.want
let find m id = List.find_opt (fun c -> c.id = id) m.clients
let reply m c r = want m (Core.Reply (c.id, r))
let err m c serial reason = reply m c (Wire.Err { serial; reason })
let depth m = List.fold_left (fun a c -> a + List.length c.q) (List.length m.retry) m.clients
let drop m j = if j.expect = None then bump m "dropped"

let dreport serial (r : Journal.reply) =
  Wire.Dreport { serial; id = r.r_id; status = r.r_status; json = r.r_json;
                 canonical = r.r_canonical; patch = r.r_patch }

let finish ?(journaled = true) m j (r : Stats.job_report) patch =
  match j.expect with
  | Some e ->
      bump m "rebuilt_steps";
      if e <> Stats.to_canonical_json r then bump m "resume_mismatch"
  | None -> (
      bump m "completed";
      List.iter (bump m)
        (match r.r_status with
        | Served_fresh | Served_cached -> [ "served" ]
        | Served_degraded -> [ "served"; "served_degraded" ]
        | Declined -> [ "declined" ] | Input_error _ -> [ "input_error" ]
        | Unsound _ -> [ "unsound" ] | Failed _ -> [ "failed" ]);
      let s = { Journal.r_id = r.r_id; r_status = Stats.status_name r.r_status;
                r_json = Stats.to_json r; r_canonical = Stats.to_canonical_json r; r_patch = patch } in
      (match (if journaled then m.journal else None), j.sid, j.kind with
      | Some _, Some sid, `Open ->
          want m (Core.Journal (Opened { sid; serial = j.serial; line = j.line; reply = s }))
      | Some _, Some sid, `Edit (full, ops) ->
          want m (Core.Journal (Stepped { sid; serial = j.serial; full; ops; reply = s }))
      | _ -> ());
      match (find m j.owner, j.kind) with
      | None, _ -> ()
      | Some c, `Submit ->
          reply m c (Wire.Report { serial = j.serial; id = s.r_id; status = s.r_status;
                                   json = s.r_json; canonical = s.r_canonical })
      | Some c, _ -> reply m c (dreport j.serial s))

(* a parent-made failure: replied, never journaled; a rebuild has no
   report to check, so none *)
let fail m j msg =
  if j.expect = None then
    finish ~journaled:false m j
      { Stats.r_id = j.job.job_id; r_property = j.job.property; r_k = j.job.k; r_n = 0;
        r_m = 0; r_status = Failed msg; r_cache_hit = false; r_prove_ms = 0.0;
        r_verify_ms = 0.0; r_total_ms = 0.0; r_label_bits = 0; r_bundle_bits = 0;
        r_reject_reasons = []; r_retries = 1 }
      "{}"

(* dispatch: the first retry the slot may run, else round-robin over
   the queue heads it may run *)
let pick m s =
  let eligible j =
    match j.kind with
    | `Edit _ -> Option.bind (find m j.owner) (fun c -> c.slot) = Some s
    | _ -> true
  in
  match List.find_opt eligible m.retry with
  | Some j -> Some j
  | None -> (
      let heads = List.filter (fun c -> c.q <> [] && eligible (List.hd c.q)) m.clients in
      let heads = List.sort (fun a b -> compare a.id b.id) heads in
      match (List.find_opt (fun c -> c.id > m.rr) heads, heads) with
      | Some c, _ | None, c :: _ -> Some (List.hd c.q)
      | None, [] -> None)

let on_send m s msg =
  let w = m.slots.(s) in
  let is j = match (msg, j.kind) with
    | Worker.Job { deadline_ms; _ }, `Submit -> deadline_ms = j.uid
    | Worker.Delta_job { client; deadline_ms; op; _ }, k -> (
        client = j.owner && deadline_ms = j.uid
        && match (op, k) with
           | Worker.Dopen _, `Open -> true
           | Worker.Dedit { full; ops }, `Edit (f, o) -> full = f && ops = o
           | _ -> false)
    | _ -> false
  in
  match msg with
  | Worker.Quit when List.mem s m.quitting -> m.quitting <- List.filter (( <> ) s) m.quitting
  | Worker.Delta_close _ when w.live -> ()
  | _ -> (
      match pick m s with
      | Some j when w.live && w.ready && w.busy = None && is j ->
          if List.memq j m.retry then m.retry <- List.filter (( != ) j) m.retry
          else Option.iter (fun c -> c.q <- List.tl c.q; m.rr <- c.id) (find m j.owner);
          w.busy <- Some j;
          if j.kind = `Open then Option.iter (fun c -> c.slot <- Some s) (find m j.owner)
      | _ -> broken "slot %d was sent a message the rules do not allow" s)

let hang_up m c reason =
  bump m "bad_hello";
  c.closing <- true;
  err m c (-1) reason;
  want m (Core.Close c.id)

let admitted m c serial =
  let refuse k fmt =
    Printf.ksprintf (fun reason -> bump m k; reply m c (Wire.Overloaded { serial; reason }); false) fmt
  in
  if m.draining then refuse "rejected_overload" "server is draining"
  else if depth m >= m.qcap then refuse "rejected_overload" "admission queue full (cap %d)" m.qcap
  else if List.length c.q >= m.ccap then refuse "rejected_quota" "client quota exceeded (cap %d)" m.ccap
  else true

let parse m c serial line =
  match Manifest.parse line with
  | Ok [ j ] -> Some j
  | r ->
      bump m "parse_errors";
      err m c serial (match r with Error e -> e | Ok [] -> "no job in submission"
                                 | Ok _ -> "a submission is exactly one job line");
      None

let enqueue m c j =
  if j.expect = None then bump m "submitted";
  c.q <- c.q @ [ j ];
  Hashtbl.replace m.n "max_depth" (max (depth m) (get m "max_depth"))

let drain m = if not m.draining then (m.draining <- true; want m Core.Stop_listening)

let request m c payload =
  let job ?sid ?(line = "") ?expect ~serial ~uid job kind =
    { uid; owner = c.id; serial; job; kind; sid; line; expect; retried = false }
  in
  let v = Wire.protocol_version in
  match Wire.decode_request payload with
  | Error e -> if c.hello then err m c (-1) e else hang_up m c e
  | Ok (Hello { version }) when version = v -> c.hello <- true; reply m c (Wire.Hello_ok { version })
  | Ok (Hello { version }) ->
      hang_up m c (Printf.sprintf "protocol version mismatch: client speaks %d, server speaks %d" version v)
  | Ok _ when not c.hello ->
      hang_up m c (Printf.sprintf "expected hello (this server speaks protocol version %d); upgrade the client" v)
  | Ok Ping -> reply m c Wire.Pong
  | Ok Stats_req -> reply m c (Wire.Stats_reply "")
  | Ok Shutdown -> reply m c Wire.Pong; drain m
  | Ok (Submit { serial; deadline_ms = uid; line; _ }) ->
      if admitted m c serial then
        Option.iter (fun j -> enqueue m c (job ~serial ~uid j `Submit)) (parse m c serial line)
  | Ok (Delta_open { serial; deadline_ms = uid; sid; resume; line }) -> (
      if resume && m.journal = None then
        err m c serial "resume unavailable: the server runs without a journal"
      else if List.exists (fun c' -> c'.id <> c.id && c'.sid = Some sid) m.clients then
        err m c serial (Printf.sprintf "session %s busy: another client holds it" sid)
      else if admitted m c serial then
        match Option.map (fun jr -> Journal.find jr sid) m.journal with
        | Some None when resume ->
            err m c serial (Printf.sprintf "unknown session %s: nothing to resume" sid)
        | Some (Some z) when resume ->
            let base = List.hd (Result.get_ok (Manifest.parse z.z_line)) in
            c.sid <- Some sid; c.base <- Some base;
            bump m "resumed";
            reply m c (dreport serial z.z_open);
            let rebuild kind (r : Journal.reply) =
              enqueue m c (job ~sid ~line:z.z_line ~expect:r.r_canonical ~serial:(-1) ~uid base kind)
            in
            rebuild `Open z.z_open;
            List.iter (fun (p : Journal.step) -> rebuild (`Edit (p.p_full, p.p_ops)) p.p_reply)
              (List.rev z.z_steps)
        | _ ->
            Option.iter
              (fun j ->
                c.base <- Some j; c.sid <- Some sid;
                enqueue m c (job ~sid ~line ~serial ~uid j `Open))
              (parse m c serial line))
  | Ok (Delta_edit { serial; deadline_ms = uid; full; ops }) -> (
      let z = match (m.journal, c.sid) with
        | Some jr, Some sid -> Option.map (fun z -> (jr, z)) (Journal.find jr sid) | _ -> None in
      match (c.base, z) with
      | None, _ -> err m c serial "no delta session open; send a dopen first"
      | Some _, Some (jr, z) when serial >= 1 && serial <= z.z_applied -> (
          match Journal.reply_for jr ~sid:z.z_sid ~serial with
          | Some r -> bump m "dedup_served"; reply m c (dreport serial r)
          | None -> err m c serial "edit already applied but its reply has been compacted out of the journal")
      | Some _, Some (_, z) when serial > z.z_applied + 1 ->
          err m c serial
            (Printf.sprintf "serial gap: expected %d, got %d — an edit was lost in flight"
               (z.z_applied + 1) serial)
      | Some base, _ ->
          if admitted m c serial then enqueue m c (job ?sid:c.sid ~serial ~uid base (`Edit (full, ops))))

let session_lost = "delta session lost with its worker; reopen"

let died m s ~delivered =
  let w = m.slots.(s) in
  w.live <- false;
  Option.iter
    (fun j ->
      w.busy <- None;
      if find m j.owner = None then drop m j
      else if not delivered then m.retry <- m.retry @ [ j ]
      else if j.kind <> `Open && j.kind <> `Submit then fail m j session_lost
      else if j.retried then
        fail m j (Printf.sprintf "worker died twice running this job (last in slot %d)" s)
      else (j.retried <- true; bump m "requeued"; m.retry <- m.retry @ [ j ]))
    w.busy;
  let pending_open cid = List.exists (fun j -> j.owner = cid && j.kind = `Open) m.retry in
  let orphan j = match j.kind with `Edit _ -> fail m j session_lost; false | _ -> true in
  List.iter
    (fun c ->
      if c.slot = Some s then begin
        c.slot <- None;
        if not (pending_open c.id) then begin
          (* the edits before the client's next open, if any, are lost *)
          let rec split = function
            | j :: rest when j.kind <> `Open -> let a, b = split rest in (j :: a, b)
            | rest -> ([], rest)
          in
          let before, after = split c.q in
          c.q <- List.filter orphan before @ after;
          if not (List.exists (fun j -> j.kind = `Open) c.q) then c.base <- None
        end
      end)
    m.clients;
  m.retry <-
    List.filter
      (fun j -> match find m j.owner with
         | Some c when c.slot = None && not (pending_open c.id) -> orphan j
         | _ -> true)
      m.retry;
  if not w.ready then (w.deaths <- w.deaths + 1; w.stopped <- w.deaths >= 3);
  if not w.stopped then begin
    bump m "restarts";
    w.live <- true;
    w.ready <- false;
    want m (Core.Spawn s)
  end

let model_event m ev =
  (match ev with
  | Core.Tick _ | From_worker (_, (Crashed _ | Bye _)) -> ()
  | Connected id ->
      m.clients <- { id; hello = false; closing = false; q = []; slot = None; base = None;
                     sid = None } :: m.clients
  | Frame (id, p) -> Option.iter (fun c -> if not c.closing then request m c p) (find m id)
  | Gone { client; eof } ->
      Option.iter
        (fun c ->
          (match (eof, c.sid, m.journal) with
          | true, Some sid, Some jr when Journal.find jr sid <> None ->
              want m (Core.Journal (Closed { sid }))
          | _ -> ());
          m.clients <- List.filter (fun c' -> c'.id <> client) m.clients;
          List.iter (drop m) (c.q @ List.filter (fun j -> j.owner = client) m.retry);
          m.retry <- List.filter (fun j -> j.owner <> client) m.retry)
        (find m client)
  | From_worker (s, Ready) -> m.slots.(s).ready <- true; m.slots.(s).deaths <- 0
  | From_worker (s, Done { report; patch; _ }) ->
      let j = Option.get m.slots.(s).busy in
      m.slots.(s).busy <- None;
      finish m j report (Option.value ~default:"{}" patch)
  | From_worker (s, Failed msg) ->
      want m (Core.Warn (Printf.sprintf "certd-server worker %d: cannot start: %s" s msg))
  | Worker_eof { slot; delivered } -> died m slot ~delivered
  | Drain -> drain m
  | Journal_failed _ -> bump m "journal_errors"
  | Finish ->
      Array.iteri (fun s w -> if w.live then (m.quitting <- s :: m.quitting; w.live <- false)) m.slots);
  (* with every slot stopped, whatever waits fails at once *)
  if Array.for_all (fun w -> w.stopped) m.slots then begin
    List.iter (fun j -> fail m j "no live workers remain") m.retry;
    List.iter (fun c -> List.iter (fun j -> fail m j "no live workers remain") c.q; c.q <- []) m.clients;
    m.retry <- []
  end

(* -- the harness: the shell's part, played in-process -- *)

type slot = {
  mutable h : Worker.handler option;  (** the live incarnation *)
  pipe : Worker.to_worker Queue.t;  (** sent, not yet answered *)
  mutable said_ready : bool;
  mutable delivered : bool;  (** the last job frame fully left *)
  mutable store : Cert_store.stats option;  (** as of its last [Done] *)
}

type sim = {
  cfg : int * int * int * bool;  (** workers, queue cap, client cap, journal *)
  io : Blob.t;
  fault : bool ref;
  ws : slot array;
  mutable core : Core.t option;  (** both set by [boot] *)
  mutable m : model option;
  mutable conns : int list;  (** open connections, oldest first *)
  serials : (int, int ref * int ref) Hashtbl.t;  (** next submit, next edit *)
  mutable next_id : int;
  mutable uid : float;
  mutable retired : Cert_store.stats;
}

let seen = Hashtbl.create 32

let action_key = function
  | Core.Reply (c, Wire.Stats_reply _) -> Printf.sprintf "reply %d stats" c
  | Reply (c, r) -> Printf.sprintf "reply %d %s" c (Wire.encode_response r)
  | Close c -> Printf.sprintf "close %d" c
  | Spawn s -> Printf.sprintf "spawn %d" s
  | Journal r -> "journal " ^ Journal.encode_record r
  | Stop_listening -> "stop listening"
  | Warn s -> "warn " ^ s
  | Send _ | Log _ -> ""

let event_name = function
  | Core.Tick _ -> "Tick" | Connected _ -> "Connected" | Frame _ -> "Frame" | Gone _ -> "Gone"
  | From_worker _ -> "From_worker" | Worker_eof _ -> "Worker_eof" | Drain -> "Drain"
  | Journal_failed _ -> "Journal_failed" | Finish -> "Finish"

let action_name = function
  | Core.Reply _ -> "Reply" | Close _ -> "Close" | Send _ -> "Send" | Spawn _ -> "Spawn"
  | Journal _ -> "Journal" | Stop_listening -> "Stop_listening" | Log _ -> "Log" | Warn _ -> "Warn"

let core x = Option.get x.core
let model x = Option.get x.m

let compare_counters x =
  let got = Client.stat_ints (Core.stats_json (core x)) and m = model x in
  let store = Array.fold_left (fun a w -> Option.fold ~none:a ~some:(Cert_store.add_stats a) w.store) x.retired x.ws in
  let count p = Array.fold_left (fun n w -> if p w then n + 1 else n) 0 m.slots in
  List.iter
    (fun (k, v) ->
      if Hashtbl.find got k <> v then broken "stats %s: the core says %d, the model %d" k (Hashtbl.find got k) v)
    ([ ("depth", depth m); ("inflight", count (fun w -> w.busy <> None)); ("live", count (fun w -> w.live));
       ("stopped", count (fun w -> w.stopped)); ("hits", store.hits); ("misses", store.misses);
       ("insertions", store.insertions) ]
    @ List.map (fun k -> (k, get m k))
        [ "submitted"; "completed"; "served"; "served_degraded"; "declined"; "failed"; "input_error";
          "unsound"; "requeued"; "dropped"; "rejected_overload"; "rejected_quota"; "parse_errors";
          "restarts"; "max_depth"; "resumed"; "rebuilt_steps"; "resume_mismatch"; "dedup_served";
          "journal_errors"; "bad_hello" ])

let spawn x s =
  let w = x.ws.(s) in
  w.h <- Some (Worker.handler ~make_engine:(fun timing -> Engine.create ~timing ()));
  Queue.clear w.pipe;
  w.said_ready <- false;
  w.delivered <- true;
  w.store <- None

(* one step: the core and the model take the event, they must agree,
   then the actions run as the shell runs them *)
let rec feed x ev =
  let m = model x in
  m.want <- [];
  let acts = Core.step (core x) ev in
  model_event m ev;
  Hashtbl.replace seen (event_name ev) ();
  List.iter
    (fun a ->
      Hashtbl.replace seen (action_name a) ();
      match a with Core.Send (s, msg) -> on_send m s msg | _ -> ())
    acts;
  let keys l = List.filter (( <> ) "") (List.map action_key l) in
  if keys acts <> keys (List.rev m.want) then
    broken "on %s the core did\n  %s\nbut the model expects\n  %s" (event_name ev)
      (String.concat "\n  " (keys acts)) (String.concat "\n  " (keys (List.rev m.want)));
  if m.quitting <> [] then broken "a live slot was not dismissed";
  Array.iteri
    (fun s w -> if w.live && w.ready && w.busy = None && pick m s <> None then broken "slot %d idles beside work" s)
    m.slots;
  compare_counters x;
  let later = ref [] in
  List.iter
    (function
      | Core.Close c ->
          x.conns <- List.filter (( <> ) c) x.conns;
          later := Core.Gone { client = c; eof = false } :: !later
      | Send (s, msg) ->
          let w = x.ws.(s) in
          if w.h <> None then Queue.push msg w.pipe;
          (match msg with Worker.Job _ | Delta_job _ -> w.delivered <- false | _ -> ())
      | Spawn s -> spawn x s
      | Journal r -> (
          try Journal.append (Option.get m.journal) r
          with Sys_error e -> later := Core.Journal_failed e :: !later)
      | Reply _ | Stop_listening | Log _ | Warn _ -> ())
    acts;
  List.iter (feed x) (List.rev !later)

(* a daemon start: a core on the journal the last one left, beside
   the model of a fresh daemon *)
let boot x =
  let workers, queue_cap, client_cap, journaled = x.cfg in
  let journal =
    if journaled then Some (Journal.create ~io:x.io ~fsync:`Never ~checkpoint_every:8 ~dir:"j" ())
    else None
  in
  let core, acts = Core.create ~workers ~queue_cap ~client_cap ~verbose:true ~journal ~now:0.0 in
  let slot () = { live = true; ready = false; busy = None; deaths = 0; stopped = false } in
  x.core <- Some core;
  x.m <- Some { qcap = queue_cap; ccap = client_cap; journal; slots = Array.init workers (fun _ -> slot ());
                clients = []; retry = []; rr = -1; draining = false; quitting = [];
                n = Hashtbl.create 32; want = [] };
  x.conns <- [];
  Hashtbl.reset x.serials;
  x.next_id <- 0;
  x.retired <- Cert_store.zero_stats ();
  List.iter (function Core.Spawn s -> spawn x s | _ -> ()) acts

(* a slot dies: its pipe, sessions and process go, and the shell says
   whether the in-flight job's frame had left *)
let kill x s =
  let w = x.ws.(s) in
  if w.h <> None then begin
    w.h <- None;
    Queue.clear w.pipe;
    Option.iter (fun st -> x.retired <- Cert_store.add_stats x.retired st) w.store;
    w.store <- None;
    feed x (Core.Worker_eof { slot = s; delivered = w.delivered })
  end

let work x s =
  let w = x.ws.(s) in
  match w.h with
  | None -> ()
  | Some _ when not w.said_ready ->
      w.said_ready <- true;
      feed x (Core.From_worker (s, Worker.Ready))
  | Some h -> (
      w.delivered <- true;
      match Option.bind (Queue.take_opt w.pipe) h.answer with
      | Some (Worker.Done d as msg) ->
          w.store <- Some d.store_stats;
          feed x (Core.From_worker (s, msg))
      | _ -> ())

let settle x =
  let pending w = w.h <> None && ((not w.said_ready) || not (Queue.is_empty w.pipe)) in
  while Array.exists pending x.ws do
    Array.iteri (fun s _ -> work x s) x.ws
  done

let frame x id r =
  let next, edit = Hashtbl.find x.serials id in
  x.uid <- x.uid +. 1.0;
  let deadline_ms = x.uid in
  let dedit serial ops full = Wire.Delta_edit { serial; deadline_ms; full; ops } in
  let dopen sid resume line = Wire.Delta_open { serial = 0; deadline_ms; sid; resume; line } in
  match r with
  | Submit l -> incr next; Wire.Submit { serial = !next; canonical = true; deadline_ms; line = lines.(l) }
  | Open (s, l) -> edit := 1; dopen sids.(s) false lines.(l)
  | Resume s -> dopen sids.(s) true ""
  | Edit (o, full) -> incr edit; dedit (!edit - 1) ops.(o) full
  | Resend -> dedit (max 1 (!edit - 1)) ops.(0) false
  | Gap -> dedit (!edit + 2) ops.(0) false
  | Ping -> Wire.Ping | Stats -> Wire.Stats_req | Shutdown -> Wire.Shutdown

let run_cmd x cmd =
  let slot s = s mod Array.length x.ws in
  let to_client i f =
    match x.conns with [] -> () | l -> let id = List.nth l (i mod List.length l) in feed x (Core.Frame (id, f id))
  in
  let hello ok _ = Wire.encode_request (Wire.Hello { version = Wire.protocol_version + if ok then 0 else 1 }) in
  (match cmd with
  | Connect greet ->
      let id = x.next_id in
      x.next_id <- id + 1;
      x.conns <- x.conns @ [ id ];
      Hashtbl.replace x.serials id (ref 1000, ref 1);
      feed x (Core.Connected id);
      if greet then to_client (List.length x.conns - 1) (hello true)
  | Hello (i, ok) -> to_client i (hello ok)
  | Req (i, r) -> to_client i (fun id -> Wire.encode_request (frame x id r))
  | Garbage i -> to_client i (fun _ -> "frobnicate 7")
  | Hangup (i, eof) -> (
      match x.conns with
      | [] -> ()
      | l ->
          let id = List.nth l (i mod List.length l) in
          x.conns <- List.filter (( <> ) id) x.conns;
          feed x (Core.Gone { client = id; eof }))
  | Work s -> work x (slot s)
  | Pump s -> x.ws.(slot s).delivered <- true
  | Kill s -> kill x (slot s)
  | Fail_start s ->
      if x.ws.(slot s).h <> None && not x.ws.(slot s).said_ready then begin
        feed x (Core.From_worker (slot s, Worker.Failed "cannot create the cache"));
        kill x (slot s)
      end
  | Jfault -> x.fault := true
  | Drain -> feed x Core.Drain
  | Restart ->
      (* SIGKILL: every worker and connection dies with the daemon *)
      Array.iter (fun w -> w.h <- None) x.ws;
      boot x);
  feed x (Core.Tick 0.0)

(* a whole trace, quiescence, then a drain to the end *)
let play (((workers, _, _, _) as cfg), cmds) =
  let fault = ref false in
  let x =
    { cfg; io = mem_io fault; fault; core = None; m = None; conns = []; serials = Hashtbl.create 8;
      next_id = 0; uid = 1e6; retired = Cert_store.zero_stats ();
      ws = Array.init workers (fun _ ->
          { h = None; pipe = Queue.create (); said_ready = false; delivered = true; store = None }) }
  in
  boot x;
  List.iter (run_cmd x) cmds;
  settle x;
  let got = Hashtbl.find (Client.stat_ints (Core.stats_json (core x))) in
  if got "submitted" <> got "completed" + got "dropped" then
    broken "idle, with submitted %d <> completed %d + dropped %d" (got "submitted") (got "completed")
      (got "dropped");
  if got "depth" + got "inflight" > 0 then broken "idle, with work waiting";
  Array.iteri
    (fun s w ->
      Option.iter
        (fun (h : Worker.handler) ->
          Hashtbl.iter
            (fun cid _ ->
              if Option.bind (find (model x) cid) (fun c -> c.slot) <> Some s then
                broken "slot %d holds a session for client %d, gone or pinned elsewhere" s cid)
            h.sessions)
        w.h)
    x.ws;
  feed x Core.Drain;
  settle x;
  if not (Core.drained (core x)) then broken "the drain never finished";
  feed x Core.Finish;
  x

let run_trace t =
  ignore (play t);
  true

let model_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> int_of_string s
  | None -> Random.self_init (); Random.bits ()

let model_arb =
  let open QCheck.Gen in
  let ci = int_bound 3 and si = int_bound 2 in
  let req =
    frequency
      [ (4, map (fun l -> Submit l) (int_bound 5));
        (3, map2 (fun s l -> Open (s, l)) (int_bound 1) (int_bound 3));
        (2, map (fun s -> Resume s) (int_bound 1));
        (6, map2 (fun o f -> Edit (o, f)) (int_bound 4) (frequencyl [ (4, false); (1, true) ]));
        (1, oneofl [ Resend; Gap; Ping; Stats ]) ]
  in
  let cmd =
    frequency
      [ (8, map (fun b -> Connect b) (frequencyl [ (6, true); (1, false) ]));
        (2, map2 (fun c ok -> Hello (c, ok)) ci bool);
        (40, map2 (fun c r -> Req (c, r)) ci req);
        (2, map (fun c -> Garbage c) ci);
        (4, map2 (fun c e -> Hangup (c, e)) ci bool);
        (36, map (fun s -> Work s) si);
        (6, map (fun s -> Pump s) si);
        (6, map (fun s -> Kill s) si);
        (2, map (fun s -> Fail_start s) si);
        (2, return Jfault);
        (1, oneofl [ Drain; Req (0, Shutdown) ]);
        (4, return Restart) ]
  in
  let cfg = quad (int_range 1 3) (int_range 1 6) (int_range 1 3) (frequencyl [ (3, true); (1, false) ]) in
  QCheck.make
    ~print:(fun ((w, q, cc, j), cmds) ->
      Printf.sprintf "(replay: QCHECK_SEED=%d)\nworkers=%d queue_cap=%d client_cap=%d journal=%b\n  %s"
        model_seed w q cc j (String.concat "\n  " (List.map show_cmd cmds)))
    ~shrink:(fun (cfg, cmds) yield ->
      (* drop one run of k commands, for k halving down to 1: this
         reaches a trace from which no single command can be removed *)
      let n = List.length cmds in
      let k = ref (max 1 (n / 2)) in
      while !k >= 1 do
        for i = 0 to (n / !k) - 1 do
          yield (cfg, List.filteri (fun j _ -> j / !k <> i) cmds)
        done;
        k := !k / 2
      done)
    (pair cfg (map (fun l -> Connect true :: l) (list_size (int_range 10 60) cmd)))

let model_agrees =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| model_seed |])
    (QCheck.Test.make ~count:2000 ~name:"protocol model: Server_core agrees" model_arb run_trace)

(* A request whose worker dies under it fails in the parent. The
   client is told, but the journal keeps served judgements only: a
   resume that replayed the failure would serve it and count a
   divergence that is none. Two fixed traces on a 2-worker journaled
   daemon, restarted before the resume. *)
let parent_failures_not_journaled () =
  let after cmds =
    let x = play ((2, 6, 3, true), cmds) in
    let got = Client.stat_ints (Core.stats_json (core x)) in
    (x, fun k -> Hashtbl.find got k)
  in
  (* a dopen delivered to slot 0, which dies; its retry delivered to
     slot 1, which dies too: "worker died twice" *)
  let x, got =
    after
      [ Connect true; Work 0; Req (0, Open (0, 0)); Pump 0; Kill 0; Work 1; Pump 1; Kill 1;
        Restart; Connect true; Req (0, Resume 0) ]
  in
  check "failed dopen: no session journaled" true
    (Journal.find (Option.get (model x).journal) sids.(0) = None);
  check_int "failed dopen: resumes as an unknown sid" 0 (got "resumed");
  check_int "failed dopen: nothing rebuilt" 0 (got "rebuilt_steps");
  check_int "failed dopen: no mismatch" 0 (got "resume_mismatch");
  (* an open served by slot 0, then an edit delivered to it before it
     dies: "delta session lost" *)
  let _, got =
    after
      [ Connect true; Work 0; Req (0, Open (0, 0)); Work 0; Req (0, Edit (0, false)); Pump 0;
        Kill 0; Restart; Connect true; Req (0, Resume 0) ]
  in
  check_int "failed dedit: the session resumes" 1 (got "resumed");
  check_int "failed dedit: only the served open is rebuilt" 1 (got "rebuilt_steps");
  check_int "failed dedit: no mismatch" 0 (got "resume_mismatch")

let model_covers () =
  List.iter
    (fun k -> check (k ^ " exercised") true (Hashtbl.mem seen k))
    [ "Tick"; "Connected"; "Frame"; "Gone"; "From_worker"; "Worker_eof"; "Drain"; "Journal_failed";
      "Finish"; "Reply"; "Close"; "Send"; "Spawn"; "Journal"; "Stop_listening"; "Log"; "Warn" ]

let suite =
  ( "daemon",
    [
      test "frame round-trip, torn frames, length cap" frame_roundtrip;
      test "incremental reassembly" conn_reassembly;
      test "zero-length and cap-sized frames" conn_frame_limits;
      request_roundtrip;
      response_roundtrip;
      decoder_is_total;
      test "delta codec rejects malformed payloads" delta_codec_rejects_malformed;
      test "timing: empty-sample merges" timing_empty_merge;
      test "timing: single-sample stage" timing_single_sample;
      test "timing: partial-worker merge" timing_partial_worker_merge;
      test "timing: sharded merge = sequential" timing_merge_equals_sequential;
      test "timing: flush ships each sample once" timing_flush_discipline;
      test "timing: a sink's size is fixed" timing_constant_size;
      timing_sharded_property;
      model_agrees;
      test "protocol model: every event and action kind exercised" model_covers;
      test "protocol model: parent-made failures are not journaled"
        parent_failures_not_journaled;
      test "daemon output = batch output" daemon_matches_batch;
      test "admission control refuses the excess" daemon_backpressure;
      test "live stats endpoint" daemon_stats_endpoint;
      test "a default daemon reports stages and counters" daemon_default_stats;
      test "worker crash, respawn, single retry" daemon_crash_respawn;
      test "idle worker killed externally, daemon recovers"
        daemon_idle_worker_death;
      test "SIGTERM drains in-flight jobs" daemon_sigterm_drains_inflight;
      test "garbage requests answered, connection survives" daemon_rejects_garbage;
      test "delta session: open, edit stream, memo counters" daemon_delta_session;
      test "hello handshake enforced, old frames rejected" daemon_requires_hello;
      test "pidfile lock: contender loses, stale socket taken over"
        daemon_pidfile_lock;
      test "journal: SIGKILL, restart, resume, dedup byte-identical"
        daemon_journal_resume;
      test "every refusal echoes its serial and its reason" daemon_refusals;
      test "store counters survive a worker's death"
        daemon_store_counters_survive_death;
      test "client: overload cap ends in an error" client_overload_cap;
      test "client: an out-of-range serial is an error" client_bad_serial;
      test "client: a duplicate reply is counted once" client_duplicate_replies;
      test "client: every job answered once across a SIGKILL"
        client_exactly_once_across_kill;
    ] )

let () = Alcotest.run "lcp-daemon" [ suite ]
