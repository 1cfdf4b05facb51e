(** One forked worker process, and the one protocol both drivers speak
    to it: [Pool] (the sharded runner behind [certd --jobs N]) and
    [Server] (the supervised pool behind [certd-server]). The drivers
    keep their policy; the fork, the messages and the loop live here.

    {b Messages.} Each message is a [Marshal] image inside one [Wire]
    frame (4-byte big-endian length, [Wire.max_frame] cap). The worker
    is a fork of the parent, so both ends always agree on the types.

    {b The worker loop.} A worker builds its engine, sends [Ready], and
    answers every [Job] and [Delta_job] with one [Done]: the report, the
    job's timing samples and verifier-memo counter deltas, and its
    store counters. On [Quit], or EOF on its input, it flushes the
    engine and signs off with [Bye]: the final store counters and the
    counters [Engine.process_counters] adds beyond the per-job deltas.
    A simulated process death ([Blob_io.Crashed]) is reported as
    [Crashed] and the process exits 3; an engine that cannot be built
    (or any other exception that escapes) is reported as [Failed] and
    the process exits 4. Whether those are fatal is the driver's call:
    [Pool] fails the run, [Server] respawns the slot.

    {b The parent side.} [spawn] forks; the child closes the parent-side
    ends of every other live worker, plus the fds the driver names, so
    no child holds a sibling's pipe open and hides its EOF. Writes to a
    worker are queued and nonblocking ([send], [pump]), so the parent
    never blocks on a worker whose output it has not read. *)

type delta_op =
  | Dopen of Manifest.job  (** (re)open the client's delta session *)
  | Dedit of { full : bool; ops : string }  (** one edit batch *)

type to_worker =
  | Job of { token : int; job : Manifest.job; deadline_ms : float }
      (** [deadline_ms = 0.] keeps the engine's own retry budget *)
  | Delta_job of {
      token : int;
      client : int;  (** sessions are keyed by client id in the worker *)
      deadline_ms : float;
      op : delta_op;
    }
  | Delta_close of { client : int }
      (** drop the client's session (disconnect, or re-open that landed
          on another slot); no reply *)
  | Quit

type from_worker =
  | Ready  (** engine built; the worker may receive jobs *)
  | Done of {
      token : int;
      report : Stats.job_report;
      patch : string option;  (** patch-info JSON for delta jobs *)
      samples : Timing.samples;
      store_stats : Cert_store.stats;
      degraded : bool;
    }
  | Bye of {
      samples : Timing.samples;
      store_stats : Cert_store.stats;
      degraded : bool;
    }
  | Crashed of string  (** [Blob_io.Crashed] path; the worker exits 3 *)
  | Failed of string  (** an escaped exception; the worker exits 4 *)

(* ---------------------------------------------------------------- *)
(* the child                                                         *)

exception Parent_gone

(* a Dedit that arrives with no live session (its open failed, or a
   prior incarnation of this slot held it) must still answer *)
let no_session_report =
  {
    Stats.r_id = "-";
    r_property = "-";
    r_k = 0;
    r_n = 0;
    r_m = 0;
    r_status = Stats.Failed "no open delta session; send a dopen first";
    r_cache_hit = false;
    r_prove_ms = 0.0;
    r_verify_ms = 0.0;
    r_total_ms = 0.0;
    r_label_bits = 0;
    r_bundle_bits = 0;
    r_reject_reasons = [];
    r_retries = 0;
  }

(** The worker's side of the protocol, apart from the process and the
    pipes around it: [answer] handles one message — a [Done] for every
    job, nothing for [Delta_close] — and [sign_off] flushes the engine
    and returns the [Bye]. The forked worker loop runs it; a test can
    drive it in-process. Delta sessions live in [sessions], keyed by
    client id, and die with the handler: the daemon re-pins clients
    when it respawns a slot. *)
type handler = {
  answer : to_worker -> from_worker option;
  sign_off : unit -> from_worker;
  sessions : (int, Delta.session) Hashtbl.t;
}

(* Build the engine: a failure here is the worker's [Failed]. *)
let handler ~make_engine ~timed =
  let timing = if timed then Some (Timing.create ()) else None in
  let take_samples () =
    match timing with
    | Some t -> Timing.flush t
    | None -> { Timing.w_stages = []; w_ctrs = [] }
  in
  let engine = make_engine timing in
  let store = Engine.store engine in
  let sessions : (int, Delta.session) Hashtbl.t = Hashtbl.create 8 in
  (* per-job memo-counter DELTAS into the timing sink: [take_samples]
     resets the counters after every job and the parent's [absorb]
     merges by summation, so shipping cumulative totals would
     overcount *)
  let with_memo_counters f =
    let before =
      match timing with Some _ -> Lcp_cert.Memo.counters () | None -> []
    in
    let result = f () in
    (match timing with
    | Some tsink ->
        List.iter
          (fun (name, v) ->
            let v0 = Option.value ~default:0 (List.assoc_opt name before) in
            Timing.set_counter tsink name (v - v0))
          (Lcp_cert.Memo.counters ())
    | None -> ());
    result
  in
  let retry_of deadline_ms =
    if deadline_ms > 0.0 then
      Some { (Engine.retry engine) with Engine.deadline_ms }
    else None
  in
  let finish ~token ~report ~patch =
    Some
      (Done
         {
           token;
           report;
           patch;
           samples = take_samples ();
           store_stats = Cert_store.stats store;
           degraded = Cert_store.degraded store;
         })
  in
  let answer = function
    | Quit -> None
    | Job { token; job; deadline_ms } ->
        let report =
          with_memo_counters (fun () ->
              Engine.run_job ?retry:(retry_of deadline_ms) engine job)
        in
        finish ~token ~report ~patch:None
    | Delta_close { client } ->
        Hashtbl.remove sessions client;
        None
    | Delta_job { token; client; deadline_ms; op } ->
        let retry = retry_of deadline_ms in
        let report, info =
          with_memo_counters (fun () ->
              match op with
              | Dopen job -> (
                  match Delta.create ?retry engine job with
                  | Ok (session, report, info) ->
                      Hashtbl.replace sessions client session;
                      (report, info)
                  | Error (report, info) ->
                      (* a failed open leaves no session to edit *)
                      Hashtbl.remove sessions client;
                      (report, info))
              | Dedit { full; ops } -> (
                  match Hashtbl.find_opt sessions client with
                  | None -> (no_session_report, Delta.no_info "none")
                  | Some s -> Delta.step ?retry s ~full ops))
        in
        finish ~token ~report ~patch:(Some (Delta.info_json info))
  in
  let sign_off () =
    (* group-commit the dirty records before signing off *)
    Engine.flush engine;
    (match timing with
    | Some t ->
        List.iter
          (fun (name, v) -> Timing.set_counter t name v)
          (Engine.process_counters engine)
    | None -> ());
    Bye
      {
        samples = take_samples ();
        store_stats = Cert_store.stats store;
        degraded = Cert_store.degraded store;
      }
  in
  { answer; sign_off; sessions }

(* Build the engine, then serve frames until Quit/EOF and sign off. *)
let serve ~send ~make_engine ~timed rfd =
  let h = handler ~make_engine ~timed in
  send Ready;
  let rec loop () =
    match Wire.read_frame rfd with
    | None | Some "" -> ()
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | Some payload -> (
        match (Marshal.from_string payload 0 : to_worker) with
        | Quit -> ()
        | msg ->
            Option.iter send (h.answer msg);
            loop ())
  in
  loop ();
  send (h.sign_off ())

(* The whole life of a child: it never returns into the parent's code. *)
let child_main ~make_engine ~timed rfd wfd =
  let send (msg : from_worker) =
    try Wire.write_frame wfd (Marshal.to_string msg [])
    with Sys_error _ | Unix.Unix_error _ -> raise Parent_gone
  in
  let last_word msg = try send msg with Parent_gone -> () in
  Unix._exit
    (match serve ~send ~make_engine ~timed rfd with
    | () -> 0
    | exception Parent_gone -> 1
    | exception Blob_io.Crashed p ->
        last_word (Crashed p);
        3
    | exception e ->
        last_word (Failed (Printexc.to_string e));
        4)

(* ---------------------------------------------------------------- *)
(* the parent side                                                   *)

type t = {
  pid : int;
  to_fd : Unix.file_descr;  (** frames out; nonblocking *)
  from_fd : Unix.file_descr;  (** frames in *)
  conn : Wire.conn;  (** inbound bytes not yet a whole frame *)
  out : string Queue.t;  (** outbound frames not yet fully written *)
  mutable out_off : int;  (** bytes of the head frame already written *)
  mutable queued : int;  (** frames ever handed to [send] *)
  mutable written : int;  (** frames that fully left the parent *)
  mutable writing : bool;  (** [to_fd] open and the worker not gone *)
  mutable reading : bool;  (** [from_fd] open: EOF not yet seen *)
  mutable reaped : bool;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* every unreaped worker of this process, whose open parent-side fds a
   newly forked child must close *)
let live : t list ref = ref []

(** Fork a worker that builds its engine with [make_engine] (called in
    the child, with a timing sink when [timed]) and runs the worker
    loop. The child restores the default SIGTERM/SIGINT disposition and
    closes [inherited] — the driver's own fds it must not hold. *)
let spawn ~inherited ~make_engine ~timed =
  let p2w_r, p2w_w = Unix.pipe ~cloexec:false () in
  let w2p_r, w2p_w = Unix.pipe ~cloexec:false () in
  (* a child forked mid-buffer would duplicate unflushed output *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      List.iter close_quietly inherited;
      List.iter
        (fun w ->
          if w.writing then close_quietly w.to_fd;
          if w.reading then close_quietly w.from_fd)
        !live;
      close_quietly p2w_w;
      close_quietly w2p_r;
      child_main ~make_engine ~timed p2w_r w2p_w
  | pid ->
      Unix.close p2w_r;
      Unix.close w2p_w;
      Unix.set_nonblock p2w_w;
      let w =
        {
          pid;
          to_fd = p2w_w;
          from_fd = w2p_r;
          conn = Wire.conn_create ();
          out = Queue.create ();
          out_off = 0;
          queued = 0;
          written = 0;
          writing = true;
          reading = true;
          reaped = false;
        }
      in
      live := w :: !live;
      w

(** Stop writing: close the worker's input, dropping any unwritten
    frames. The worker sees EOF once it has read what did arrive. *)
let close_out w =
  if w.writing then begin
    w.writing <- false;
    Queue.clear w.out;
    w.out_off <- 0;
    close_quietly w.to_fd
  end

(** Write queued frames until the pipe is full or the queue empty. A
    write error means the worker is gone: its backlog is dropped, and
    the read side reports the death as EOF. *)
let pump w =
  try
    while w.writing && not (Queue.is_empty w.out) do
      let head = Queue.peek w.out in
      let len = String.length head - w.out_off in
      let n = Unix.write_substring w.to_fd head w.out_off len in
      if n = len then begin
        ignore (Queue.pop w.out : string);
        w.out_off <- 0;
        w.written <- w.written + 1
      end
      else w.out_off <- w.out_off + n
    done
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> close_out w

(** Queue one message for the worker and write what the pipe takes now.
    Its sequence number is [w.queued] right after the call. *)
let send w (msg : to_worker) =
  w.queued <- w.queued + 1;
  if w.writing then begin
    Queue.push (Wire.frame (Marshal.to_string msg [])) w.out;
    pump w
  end

(** Has the frame with sequence number [seq] fully left the parent? *)
let delivered w seq = w.written >= seq

(** Frames waiting for the pipe to drain: put [to_fd] in select's write
    set and call [pump] when it is writable. *)
let pending w = w.writing && not (Queue.is_empty w.out)

let chunk = Bytes.create 65536

(** Read what [from_fd] holds and pass each whole message, in order, to
    [f]. Returns [false] at EOF — the worker exited or can no longer be
    understood — after which [from_fd] is closed. *)
let read w f =
  let eof () =
    w.reading <- false;
    close_quietly w.from_fd;
    false
  in
  let rec drain () =
    match Wire.conn_next w.conn with
    | None -> true
    | Some payload ->
        f (Marshal.from_string payload 0 : from_worker);
        drain ()
    | exception Sys_error _ -> eof () (* an over-cap length prefix *)
  in
  match Unix.read w.from_fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      true
  | exception Unix.Unix_error _ -> eof ()
  | 0 -> eof ()
  | n ->
      Wire.conn_feed w.conn chunk n;
      drain ()

let kill w =
  if not w.reaped then
    try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()

(** Close both pipes and wait for the process to exit. Idempotent. *)
let reap w =
  if not w.reaped then begin
    close_out w;
    if w.reading then begin
      w.reading <- false;
      close_quietly w.from_fd
    end;
    let rec wait () =
      match Unix.waitpid [] w.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ();
    w.reaped <- true;
    live := List.filter (fun w' -> w' != w) !live
  end
