(** The daemon's request/response protocol: length-prefixed frames over
    a byte stream (a unix-domain socket between [certd --connect] and
    [certd-server]). The same frames carry [Worker]'s messages over the
    pipes between a driver and its worker processes.

    Framing is a 4-byte big-endian payload length followed by the
    payload. The length is bounded by [max_frame] so a corrupt or
    hostile prefix cannot make a reader allocate gigabytes. Two reading
    disciplines are provided:

    - [read_frame]: blocking, for simple clients — returns [None] on a
      clean EOF at a frame boundary and raises [Sys_error] on a torn
      frame (EOF mid-payload is a protocol violation, not an end).
    - [conn]/[conn_feed]/[conn_next]: an incremental reassembly buffer
      for the server's select loop, where a readable fd yields an
      arbitrary byte count that may hold zero, one, or many frames.

    Payloads are line-oriented text (first token selects the variant),
    so a captured exchange is readable with [strings] and the decoder
    is total: any unrecognized payload decodes to [Error _], never an
    exception. Job ids and JSON lines never contain raw newlines (the
    manifest is line-oriented and the JSON emitter escapes control
    characters), which is what lets reports frame their fields one per
    line. *)

let max_frame = 1 lsl 24 (* 16 MiB: far above any report, below danger *)

(** Bumped whenever a frame changes shape. Version 2 added the hello
    handshake itself and the session-id/resume fields of [dopen]; a
    version-1 client's first frame is not a hello, so the server can
    reject it with a descriptive [error] frame instead of a decode
    failure mid-stream. *)
let protocol_version = 2

(* ---------------------------------------------------------------- *)
(* framing                                                           *)

(* both directions retry EINTR: the daemon handles SIGTERM while these
   calls are in flight, and an interrupted syscall is not a dead peer *)
let write_all fd (b : Bytes.t) =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(** [frame payload] is the on-wire bytes of one frame: the 4-byte
    big-endian length, then the payload. Raises [Sys_error] if the
    payload exceeds [max_frame]. *)
let frame payload =
  let len = String.length payload in
  if len > max_frame then
    raise (Sys_error (Printf.sprintf "frame of %d bytes exceeds the cap" len));
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 b 4 len;
  Bytes.unsafe_to_string b

(** [write_frame fd payload] writes the 4-byte length then the payload.
    Raises [Sys_error] if the payload exceeds [max_frame]. *)
let write_frame fd payload = write_all fd (Bytes.unsafe_of_string (frame payload))

let decode_len b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* read exactly [n] bytes, or [None] on EOF at offset 0; a short read
   past offset 0 is a torn frame *)
let read_exact fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match Unix.read fd b !off (n - !off) with
    | 0 -> eof := true
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  if !off = n then Some b
  else if !off = 0 then None
  else raise (Sys_error "connection closed mid-frame")

(** Blocking read of one whole frame; [None] on clean EOF. *)
let read_frame fd =
  match read_exact fd 4 with
  | None -> None
  | Some hdr ->
      let len = decode_len hdr 0 in
      if len > max_frame then
        raise (Sys_error (Printf.sprintf "frame of %d bytes exceeds the cap" len))
      else if len = 0 then Some ""
      else (
        match read_exact fd len with
        | None -> raise (Sys_error "connection closed mid-frame")
        | Some b -> Some (Bytes.to_string b))

(* ---------------------------------------------------------------- *)
(* incremental reassembly for select loops                           *)

type conn = { mutable pending : Bytes.t; mutable len : int }
(** bytes received but not yet consumed as complete frames *)

let conn_create () = { pending = Bytes.create 4096; len = 0 }

let conn_feed c (b : Bytes.t) n =
  if c.len + n > Bytes.length c.pending then begin
    let grown =
      Bytes.create (max (2 * Bytes.length c.pending) (c.len + n))
    in
    Bytes.blit c.pending 0 grown 0 c.len;
    c.pending <- grown
  end;
  Bytes.blit b 0 c.pending c.len n;
  c.len <- c.len + n

(** Pop the next complete frame, if the buffer holds one. Raises
    [Sys_error] on an over-cap length prefix — the connection is
    unrecoverable past that point. *)
let conn_next c =
  if c.len < 4 then None
  else
    let len = decode_len c.pending 0 in
    if len > max_frame then
      raise (Sys_error (Printf.sprintf "frame of %d bytes exceeds the cap" len))
    else if c.len < 4 + len then None
    else begin
      let payload = Bytes.sub_string c.pending 4 len in
      let rest = c.len - 4 - len in
      Bytes.blit c.pending (4 + len) c.pending 0 rest;
      c.len <- rest;
      Some payload
    end

let conn_buffered c = c.len

(* ---------------------------------------------------------------- *)
(* requests                                                          *)

type request =
  | Submit of {
      serial : int;  (** client-chosen token, echoed in the reply *)
      canonical : bool;  (** informational; replies carry both renderings *)
      deadline_ms : float;  (** per-job budget; 0 = the server's default *)
      line : string;  (** one manifest job line *)
    }
  | Stats_req  (** live queue/worker/stage statistics as JSON *)
  | Ping
  | Shutdown  (** drain the queue and exit, as SIGTERM would *)
  | Hello of { version : int }
      (** the mandatory first frame on every connection; a server
          seeing anything else (or a version it does not speak)
          replies with a descriptive [error] frame and closes *)
  | Delta_open of {
      serial : int;
      deadline_ms : float;
      sid : string;
          (** client-chosen session id (one word, no whitespace) —
              the key under which the journal records the stream *)
      resume : bool;
          (** re-attach to the journaled session [sid] after a server
              restart instead of certifying the base from scratch *)
      line : string;  (** one manifest job line: the session's base job *)
    }
      (** open a per-connection delta session: certify the base graph
          and keep its typed state (graph, representation, labeling,
          warm memo) daemon-side for subsequent edits. One session per
          connection; a second open replaces the first. *)
  | Delta_edit of {
      serial : int;
      deadline_ms : float;
      full : bool;  (** force a from-scratch recompute (differential) *)
      ops : string;  (** one edit line, e.g. ["add=0-1 del=2-3"] *)
    }
      (** apply one edit batch to the connection's open session *)

type response =
  | Report of {
      serial : int;
      id : string;  (** the job id, so clients need not parse the JSON *)
      status : string;  (** [Stats.status_name] of the terminal status *)
      json : string;  (** full per-job JSON line *)
      canonical : string;  (** run-invariant projection, batch-comparable *)
    }
  | Overloaded of { serial : int; reason : string }
      (** admission control refused the job: queue full, client quota
          exceeded, or the server is draining. Retry later. *)
  | Err of { serial : int; reason : string }
      (** malformed request or unserveable job ([serial = -1] when the
          error is not tied to a submission) *)
  | Stats_reply of string  (** the stats JSON object *)
  | Pong
  | Hello_ok of { version : int }  (** handshake accepted *)
  | Dreport of {
      serial : int;
      id : string;
      status : string;
      json : string;
      canonical : string;
      patch : string;  (** one-line patch-info JSON (mode, dirty windows,
                           reused/changed labels, memo hits) *)
    }  (** the reply to [Delta_open] and [Delta_edit] *)

let encode_request = function
  | Submit { serial; canonical; deadline_ms; line } ->
      Printf.sprintf "submit %d %d %.3f\n%s" serial
        (if canonical then 1 else 0)
        deadline_ms line
  | Stats_req -> "stats"
  | Ping -> "ping"
  | Shutdown -> "shutdown"
  | Hello { version } -> Printf.sprintf "hello %d" version
  | Delta_open { serial; deadline_ms; sid; resume; line } ->
      Printf.sprintf "dopen %d %.3f %d %s\n%s" serial deadline_ms
        (if resume then 1 else 0)
        sid line
  | Delta_edit { serial; deadline_ms; full; ops } ->
      (* the edit line may be empty (a no-op batch), so it always
         travels as a body — [split_head] keeps "" distinct from no
         body at all *)
      Printf.sprintf "dedit %d %d %.3f\n%s" serial
        (if full then 1 else 0)
        deadline_ms ops

let encode_response = function
  | Report { serial; id; status; json; canonical } ->
      Printf.sprintf "report %d %s\n%s\n%s\n%s" serial status id json canonical
  | Overloaded { serial; reason } ->
      Printf.sprintf "overloaded %d %s" serial reason
  | Err { serial; reason } -> Printf.sprintf "error %d %s" serial reason
  | Stats_reply json -> "stats\n" ^ json
  | Pong -> "pong"
  | Hello_ok { version } -> Printf.sprintf "hello-ok %d" version
  | Dreport { serial; id; status; json; canonical; patch } ->
      Printf.sprintf "dreport %d %s\n%s\n%s\n%s\n%s" serial status id json
        canonical patch

(* split off the first line; the body (if any) keeps no leading '\n' *)
let split_head s =
  match String.index_opt s '\n' with
  | None -> (s, None)
  | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let decode_request payload =
  let head, body = split_head payload in
  match split_words head with
  | [ "submit"; serial; canonical; deadline ] -> (
      match
        (int_of_string_opt serial, canonical, float_of_string_opt deadline, body)
      with
      | Some serial, ("0" | "1"), Some deadline_ms, Some line
        when deadline_ms >= 0.0 ->
          Ok
            (Submit { serial; canonical = canonical = "1"; deadline_ms; line })
      | _ -> Error "malformed submit header")
  | [ "stats" ] when body = None -> Ok Stats_req
  | [ "ping" ] when body = None -> Ok Ping
  | [ "shutdown" ] when body = None -> Ok Shutdown
  | [ "hello"; version ] when body = None -> (
      match int_of_string_opt version with
      | Some version when version >= 1 -> Ok (Hello { version })
      | _ -> Error "malformed hello header")
  | [ "dopen"; serial; deadline; resume; sid ] -> (
      match
        (int_of_string_opt serial, float_of_string_opt deadline, resume, body)
      with
      | Some serial, Some deadline_ms, ("0" | "1"), Some line
        when deadline_ms >= 0.0 && sid <> "" ->
          Ok (Delta_open { serial; deadline_ms; sid; resume = resume = "1"; line })
      | _ -> Error "malformed dopen header")
  | [ "dedit"; serial; full; deadline ] -> (
      match
        (int_of_string_opt serial, full, float_of_string_opt deadline, body)
      with
      | Some serial, ("0" | "1"), Some deadline_ms, Some ops
        when deadline_ms >= 0.0 ->
          Ok (Delta_edit { serial; deadline_ms; full = full = "1"; ops })
      | _ -> Error "malformed dedit header")
  | w :: _ -> Error (Printf.sprintf "unknown request %S" w)
  | [] -> Error "empty request"

let decode_response payload =
  let head, body = split_head payload in
  match split_words head with
  | "report" :: serial :: status -> (
      (* the status name is a single word; reject trailing garbage *)
      match (int_of_string_opt serial, status, body) with
      | Some serial, [ status ], Some body -> (
          match String.split_on_char '\n' body with
          | [ id; json; canonical ] ->
              Ok (Report { serial; id; status; json; canonical })
          | _ -> Error "report body must be id, json, canonical — one per line")
      | _ -> Error "malformed report header")
  | "overloaded" :: serial :: reason when body = None -> (
      match int_of_string_opt serial with
      | Some serial -> Ok (Overloaded { serial; reason = String.concat " " reason })
      | None -> Error "malformed overloaded header")
  | "error" :: serial :: reason when body = None -> (
      match int_of_string_opt serial with
      | Some serial -> Ok (Err { serial; reason = String.concat " " reason })
      | None -> Error "malformed error header")
  | [ "stats" ] -> (
      match body with
      | Some json -> Ok (Stats_reply json)
      | None -> Error "stats reply carries no body")
  | [ "pong" ] when body = None -> Ok Pong
  | [ "hello-ok"; version ] when body = None -> (
      match int_of_string_opt version with
      | Some version when version >= 1 -> Ok (Hello_ok { version })
      | _ -> Error "malformed hello-ok header")
  | "dreport" :: serial :: status -> (
      match (int_of_string_opt serial, status, body) with
      | Some serial, [ status ], Some body -> (
          match String.split_on_char '\n' body with
          | [ id; json; canonical; patch ] ->
              Ok (Dreport { serial; id; status; json; canonical; patch })
          | _ ->
              Error
                "dreport body must be id, json, canonical, patch — one per line")
      | _ -> Error "malformed dreport header")
  | w :: _ -> Error (Printf.sprintf "unknown response %S" w)
  | [] -> Error "empty response"
