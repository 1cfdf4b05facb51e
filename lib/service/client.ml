(** The one client of the [Wire] protocol: [certd --connect], the bench
    campaigns and the daemon tests dial, submit, stream edits and read
    statistics through it. Calls return a [result] and never print or
    exit. [submit_all] and [edit_stream] survive a lost connection and
    tell [log] about it (DESIGN.md "Service daemon", "Client"). *)

type t = { path : string; mutable fd : Unix.file_descr }

type error =
  | Unreachable of string  (** nothing accepts on this socket path *)
  | Refused of string  (** the handshake was refused: the server's reason *)
  | Hung_up  (** the server hung up during the handshake *)
  | Closed  (** the server hung up mid-exchange *)
  | Gave_up of string  (** no redial of this path succeeded in time *)
  | Bad_response of string  (** undecodable, or a serial out of range *)
  | Unexpected  (** well-formed, but no answer to the request *)
  | Rejected of string * string  (** an [Err] reply: what, reason *)
  | Overloaded_cap of string * int * string  (** what, tries, last reason *)

let message = function
  | Unreachable path -> "cannot connect to " ^ path
  | Refused reason -> "server refused the handshake: " ^ reason
  | Hung_up -> "server closed the connection during handshake"
  | Closed -> "server closed the connection"
  | Gave_up path -> Printf.sprintf "cannot reconnect to %s; giving up" path
  | Bad_response e -> "bad response from server: " ^ e
  | Unexpected -> "unexpected response"
  | Rejected (what, reason) -> Printf.sprintf "server rejected %s: %s" what reason
  | Overloaded_cap (what, n, reason) ->
      Printf.sprintf "%s refused %d times (last: %s)" what n reason

type report = {
  id : string;
  status : string;
  json : string;
  canonical : string;
  patch : string;  (** an edit step's patch info; [""] for a one-shot job *)
}

let ( let* ) = Result.bind
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let send fd req = Wire.write_frame fd (Wire.encode_request req)

(* [f]'s writes, then the next response; [None] once the connection is
   lost. SIGPIPE is ignored meanwhile, so a write to a killed daemon is
   a lost connection and not the death of the client. *)
let exchange fd f =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
    (fun () ->
      match
        f ();
        Wire.read_frame fd
      with
      | Some payload -> Some (Wire.decode_response payload)
      | None | (exception (Sys_error _ | Unix.Unix_error _)) -> None)

(** Dial [path] and say hello: the version check comes first, so a
    protocol mismatch is one descriptive error. *)
let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hello () = send fd (Wire.Hello { version = Wire.protocol_version }) in
  let r =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | exception Unix.Unix_error _ -> Error (Unreachable path)
    | () -> (
        match exchange fd hello with
        | Some (Ok (Wire.Hello_ok _)) -> Ok { path; fd }
        | Some (Ok (Wire.Err { reason; _ }) | Error reason) ->
            Error (Refused reason)
        | Some (Ok _) -> Error (Refused "unexpected handshake response")
        | None -> Error Hung_up)
  in
  if Result.is_error r then close_quietly fd;
  r

let close t = close_quietly t.fd

(** Redial [t] with exponential backoff: 13 tries over about 14 s, which
    covers a supervised respawn plus journal recovery. *)
let reconnect t =
  close t;
  let rec go n delay =
    if n > 12 then Error (Gave_up t.path)
    else begin
      Unix.sleepf delay;
      match connect t.path with
      | Ok c ->
          t.fd <- c.fd;
          Ok ()
      | Error _ -> go (n + 1) (Float.min 1.6 (delay *. 2.0))
    end
  in
  go 0 0.05

(** One request, one response. *)
let rpc t req =
  match exchange t.fd (fun () -> send t.fd req) with
  | Some (Ok resp) -> Ok resp
  | Some (Error e) -> Error (Bad_response e)
  | None -> Error Closed

(* an answer that ends an exchange about [what] in an error *)
let stray what = function
  | Ok (Wire.Err { reason; _ }) -> Error (Rejected (what, reason))
  | Ok _ -> Error Unexpected
  | Error e -> Error (Bad_response e)

(* admission said "later": honor it before resubmitting *)
let overload_backoff_s = 0.05

(** Submit every job, keeping at most [window] unanswered, and return one
    report per job, indexed by serial (= position in [jobs]). A job
    refused [Overloaded] 100 times is an error. After a lost connection
    every unanswered serial is resubmitted; a serial counts at its
    first report. *)
let submit_all ?(log = ignore) t ~window ~deadline_ms (jobs : Manifest.job array)
    =
  let total = Array.length jobs in
  let results = Array.make total None and refusals = Array.make total 0 in
  let pending = Queue.create () and inflight = Hashtbl.create 16 in
  Array.iteri (fun serial _ -> Queue.push serial pending) jobs;
  let completed = ref 0 in
  let fill () =
    while (not (Queue.is_empty pending)) && Hashtbl.length inflight < window do
      let serial = Queue.pop pending in
      (* in flight before the write: a write torn by a dying server
         must still be resubmitted *)
      Hashtbl.replace inflight serial ();
      let line = Manifest.print_job jobs.(serial) in
      send t.fd (Wire.Submit { serial; canonical = false; deadline_ms; line })
    done
  in
  let rec loop () =
    if !completed = total then Ok (Array.map Option.get results)
    else
      match exchange t.fd fill with
      | None ->
          log
            (Printf.sprintf
               "connection lost; reconnecting to resubmit %d in-flight job(s)"
               (Hashtbl.length inflight));
          let* () = reconnect t in
          Hashtbl.iter (fun serial () -> Queue.push serial pending) inflight;
          Hashtbl.reset inflight;
          loop ()
      | Some (Ok (Wire.Report { serial; _ } | Wire.Overloaded { serial; _ }))
        when serial < 0 || serial >= total ->
          Error (Bad_response (Printf.sprintf "serial %d out of range" serial))
      | Some (Ok (Wire.Report { serial; id; status; json; canonical })) ->
          Hashtbl.remove inflight serial;
          if results.(serial) = None then begin
            incr completed;
            results.(serial) <- Some { id; status; json; canonical; patch = "" }
          end;
          loop ()
      | Some (Ok (Wire.Overloaded { serial; reason })) ->
          Hashtbl.remove inflight serial;
          refusals.(serial) <- refusals.(serial) + 1;
          if refusals.(serial) >= 100 then
            let job = "job " ^ jobs.(serial).Manifest.job_id in
            Error (Overloaded_cap (job, 100, reason))
          else begin
            Unix.sleepf overload_backoff_s;
            Queue.push serial pending;
            loop ()
          end
      | Some r ->
          stray
            (match r with
            | Ok (Wire.Err { serial; _ }) when serial >= 0 && serial < total ->
                jobs.(serial).Manifest.job_id
            | _ -> "a request")
            r
  in
  loop ()

(** Open the delta session [sid] on the job [line], then apply [edits] in
    lock-step; [on_reply] sees the open's report and then each edit's.
    An edit may be refused [Overloaded] 600 times, because a resumed
    session replays its history through the queue first. After a lost
    connection the session is re-opened with [resume] (its journaled
    open reply is discarded) and the request in flight is resent. *)
let edit_stream ?(log = ignore) t ~sid ~deadline_ms ~full ~line ~edits ~on_reply =
  let opened = ref false in
  let dopen resume line =
    Wire.Delta_open { serial = 0; deadline_ms; sid; resume; line }
  in
  let rec rpc serial req tries =
    match exchange t.fd (fun () -> send t.fd req) with
    | None ->
        log
          (Printf.sprintf
             "connection lost mid-stream; reconnecting to resume session %s" sid);
        let* () = reconnect t in
        let* () =
          if not !opened then Ok ()
          else
            let* r = rpc 0 (dopen true "") 0 in
            log
              (Printf.sprintf "session %s resumed (open report: %s)" sid r.status);
            Ok ()
        in
        rpc serial req tries
    | Some (Ok (Wire.Dreport { serial = s; id; status; json; canonical; patch }))
      when s = serial ->
        Ok { id; status; json; canonical; patch }
    | Some (Ok (Wire.Overloaded { serial = s; reason })) when s = serial ->
        if tries >= 600 then
          Error (Overloaded_cap (Printf.sprintf "edit %d" serial, tries, reason))
        else begin
          Unix.sleepf overload_backoff_s;
          rpc serial req (tries + 1)
        end
    | Some r -> stray (Printf.sprintf "request %d" serial) r
  in
  let rec play serial = function
    | [] -> Ok ()
    | ops :: rest ->
        let* r = rpc serial (Delta_edit { serial; deadline_ms; full; ops }) 0 in
        on_reply r;
        play (serial + 1) rest
  in
  let* r = rpc 0 (dopen false line) 0 in
  opened := true;
  on_reply r;
  play 1 edits

(** Every ["name":int] field of a stats JSON text, the first occurrence
    of each name. *)
let stat_ints s =
  let tbl = Hashtbl.create 64 and n = String.length s in
  let rec scan i =
    match String.index_from_opt s i '"' with
    | None -> ()
    | Some a ->
        Option.iter
          (fun b ->
            let j = ref (b + 2) in
            while !j < n && (s.[!j] = '-' || (s.[!j] >= '0' && s.[!j] <= '9')) do
              incr j
            done;
            let k = String.sub s (a + 1) (b - a - 1) in
            if b + 1 < n && s.[b + 1] = ':' && !j > b + 2 && not (Hashtbl.mem tbl k)
            then
              Hashtbl.add tbl k (int_of_string (String.sub s (b + 2) (!j - b - 2)));
            scan (b + 1))
          (String.index_from_opt s (a + 1) '"')
  in
  scan 0;
  tbl
