(** The persistent certification daemon: a single-threaded [Unix.select]
    shell around [Server_core]. The shell owns every file descriptor —
    the listener, client sockets, worker pipes ([Worker], the fork and
    protocol [Pool] drives too), the signal self-pipe and the instance
    lock — and turns what happens on them into [Server_core.event]s;
    the core makes every protocol and supervision decision and answers
    with [Server_core.action]s, which the shell runs in order.

    Replies cannot stall the loop: client sockets are nonblocking,
    undeliverable frames queue per client and drain through select's
    write set, and a client that stops reading its replies past a byte
    cap is dropped. EOF on a worker pipe means the worker died (a real
    crash, or a simulated one: [Blob_io.Crashed]); the shell reaps it
    and tells the core whether the in-flight job's frame fully left.
    SIGTERM/SIGINT reach the core as [Drain] through the self-pipe
    trick, so the handler does nothing async-unsafe.

    {b Single instance.} The daemon takes an [fcntl] lock on
    [socket_path ^ ".pid"] before touching the socket. A second server
    started on the same path fails with [Sys_error] instead of racing
    the first for the socket file, and a stale socket left by a killed
    daemon is unlinked safely — holding the lock proves its owner is
    dead. *)

module Core = Server_core

type config = {
  socket_path : string;
  workers : int;  (** size of the long-lived worker pool, >= 1 *)
  queue_cap : int;  (** global admission-queue bound, >= 1 *)
  client_cap : int;  (** per-client share of the queue, >= 1 *)
  make_engine : worker:int -> Timing.t option -> Engine.t;
      (** called once {e inside} each worker process, after the fork;
          [worker] is the pool slot, letting drills give each worker
          its own fault plan *)
  timed : bool;  (** ship per-stage samples from workers to the stats sink *)
  verbose : bool;
  journal_dir : string option;
      (** where the write-ahead session journal lives; [None] disables
          durability (sessions die with the process, as before) *)
  journal_fsync : Journal.fsync_policy;
  journal_checkpoint : int;  (** appends between compactions; <= 0 never *)
}

let default_queue_cap = 64

let default_client_cap cap = max 1 (cap / 4)

type conn = {
  fd : Unix.file_descr;  (** nonblocking for the daemon's whole life *)
  wire : Wire.conn;
  out : string Queue.t;  (** encoded frames not yet on the wire *)
  mutable out_off : int;  (** bytes of the head frame already written *)
  mutable out_bytes : int;  (** total unwritten bytes across [out] *)
  mutable open_ : bool;  (** not yet closed and reported [Gone] *)
  mutable closing : bool;  (** the core asked to hang up once drained *)
}

type t = {
  cfg : config;
  core : Core.t;
  listen_fd : Unix.file_descr;
  mutable listening : bool;
  pid_fd : Unix.file_descr;  (** holds the instance lock for life *)
  pidfile : string;
  journal : Journal.t option;
  sig_r : Unix.file_descr;
  sig_w : Unix.file_descr;
  conns : (int, conn) Hashtbl.t;
  mutable next_client : int;
  procs : Worker.t option array;  (** each slot's live incarnation *)
  job_frame : int array;
      (** [Worker.send] sequence number of each slot's last job frame *)
}

let log t fmt =
  if t.cfg.verbose then Printf.printf ("certd-server: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stdout fmt

(* ---------------------------------------------------------------- *)
(* running the core's actions                                        *)

(* Replies to a live client may only wait on the client, never on the
   event loop: the fd is nonblocking, frames queue in [out], and a full
   socket buffer parks the remainder for select's write set. A client
   that keeps submitting but stops reading hits the backlog cap and is
   dropped — it cannot stall the daemon for everyone else. *)

let max_client_backlog = 2 * Wire.max_frame
(* >= one max-size frame, so a single huge (legitimate) reply is never
   itself grounds for dropping a client that is still reading *)

let rec feed t ev = List.iter (act t) (Core.step t.core ev)

and act t = function
  | Core.Reply (id, resp) -> with_conn t id (fun c -> reply t id c resp)
  | Core.Close id ->
      with_conn t id (fun c ->
          c.closing <- true;
          maybe_close t id c)
  | Core.Send (slot, msg) -> (
      match t.procs.(slot) with
      | Some p -> (
          Worker.send p msg;
          match msg with
          | Worker.Job _ | Worker.Delta_job _ -> t.job_frame.(slot) <- p.Worker.queued
          | Worker.Delta_close _ | Worker.Quit -> ())
      | None -> ())
  | Core.Spawn slot -> spawn_worker t slot
  | Core.Journal r -> (
      (* availability over durability, like the degraded store: a lost
         append is counted and serving continues; a simulated process
         death propagates, as everywhere else *)
      match t.journal with
      | Some j -> (
          try Journal.append j r with Sys_error e -> feed t (Core.Journal_failed e))
      | None -> ())
  | Core.Stop_listening -> stop_listening t
  | Core.Log s -> log t "%s" s
  | Core.Warn s -> prerr_endline s

and with_conn t id f =
  match Hashtbl.find_opt t.conns id with
  | Some c when c.open_ -> f c
  | _ -> ()

(* the one way a connection ends: close it, then tell the core *)
and gone t id c ~eof =
  if c.open_ then begin
    c.open_ <- false;
    Queue.clear c.out;
    c.out_bytes <- 0;
    Worker.close_quietly c.fd;
    Hashtbl.remove t.conns id;
    feed t (Core.Gone { client = id; eof })
  end

and flush_client t id c =
  if c.open_ && not (Queue.is_empty c.out) then begin
    let head = Queue.peek c.out in
    let len = String.length head - c.out_off in
    match Unix.write_substring c.fd head c.out_off len with
    | n ->
        c.out_bytes <- c.out_bytes - n;
        if n = len then begin
          ignore (Queue.pop c.out : string);
          c.out_off <- 0;
          flush_client t id c
        end
        else c.out_off <- c.out_off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        () (* socket buffer full: select's write set resumes us *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_client t id c
    | exception (Unix.Unix_error _ | Sys_error _) -> gone t id c ~eof:false
  end

(* a connection answered with a fatal protocol error closes as soon as
   the error frame has actually left — never before, so the client
   reads a descriptive reason instead of a bare hangup *)
and maybe_close t id c = if c.closing && c.out_bytes = 0 then gone t id c ~eof:false

and reply t id c resp =
  let frame = Wire.frame (Wire.encode_response resp) in
  Queue.push frame c.out;
  c.out_bytes <- c.out_bytes + String.length frame;
  flush_client t id c;
  if c.open_ && c.out_bytes > max_client_backlog then begin
    log t "client %d dropped: %d reply bytes unread" id c.out_bytes;
    gone t id c ~eof:false
  end
  else maybe_close t id c

(* the child sheds every fd the daemon owns: fcntl locks are
   per-process, so closing the inherited pid_fd there does not release
   the parent's instance lock *)
and spawn_worker t slot =
  let inherited =
    (if t.listening then [ t.listen_fd ] else [])
    @ [ t.pid_fd; t.sig_r; t.sig_w ]
    @ Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.conns []
  in
  t.procs.(slot) <-
    Some
      (Worker.spawn ~inherited ~make_engine:(t.cfg.make_engine ~worker:slot)
         ~timed:t.cfg.timed);
  t.job_frame.(slot) <- 0

and adopt_client t fd =
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  let id = t.next_client in
  t.next_client <- id + 1;
  Hashtbl.replace t.conns id
    { fd; wire = Wire.conn_create (); out = Queue.create (); out_off = 0;
      out_bytes = 0; open_ = true; closing = false };
  feed t (Core.Connected id)

and stop_listening t =
  if t.listening then begin
    (* a client whose connect() already completed into the backlog is
       committed: closing the listener would RST it and silently drop
       whatever it wrote. Adopt every pending connection first. *)
    (try Unix.set_nonblock t.listen_fd with Unix.Unix_error _ -> ());
    let rec adopt_backlog () =
      match Unix.accept t.listen_fd with
      | fd, _ ->
          adopt_client t fd;
          adopt_backlog ()
      | exception Unix.Unix_error _ -> ()
    in
    adopt_backlog ();
    Worker.close_quietly t.listen_fd;
    t.listening <- false;
    try Sys.remove t.cfg.socket_path with Sys_error _ -> ()
  end

(* ---------------------------------------------------------------- *)
(* reading                                                           *)

(* the open connections, oldest first *)
let connections t =
  List.sort (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun id c acc -> (id, c) :: acc) t.conns [])

(* one read buffer for every client, as [Worker] keeps one for every
   worker: the loop is single-threaded and [Wire.conn_feed] copies
   what it keeps *)
let chunk = Bytes.create 65536

(* hand the core every whole frame [c] has sent, in order, until one of
   them ends or hangs up the connection *)
let handle_frames t id c =
  let rec drain () =
    if c.open_ && not c.closing then
      match Wire.conn_next c.wire with
      | None -> ()
      | Some payload ->
          feed t (Core.Frame (id, payload));
          drain ()
      | exception Sys_error _ -> gone t id c ~eof:false (* over-cap frame *)
  in
  drain ()

let on_client_readable t id c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      () (* a signal or spurious wakeup, not a hangup *)
  | exception Unix.Unix_error _ -> gone t id c ~eof:false
  | 0 -> gone t id c ~eof:true
  | n ->
      Wire.conn_feed c.wire chunk n;
      handle_frames t id c

let on_worker_readable t slot p =
  if not (Worker.read p (fun msg -> feed t (Core.From_worker (slot, msg))))
  then begin
    Worker.reap p;
    t.procs.(slot) <- None;
    feed t
      (Core.Worker_eof
         { slot; delivered = Worker.delivered p t.job_frame.(slot) })
  end

(* ---------------------------------------------------------------- *)
(* the select loop                                                   *)

(* The last act of a drain: requests a client wrote before the shutdown
   signal may still sit unread in the socket buffer (on a unix socket
   the client's writes landed there synchronously). Closing the fd with
   them unread would RST the connection and silently drop them — so
   slurp whatever is buffered and answer it (submissions are refused
   with Overloaded, since we are draining). *)
let final_client_sweep t =
  List.iter
    (fun (id, c) ->
      if c.open_ then begin
        (* the fd is already nonblocking, so this read cannot hang on a
           silent client; replies queue in [out] for the final flush *)
        let rec slurp () =
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Wire.conn_feed c.wire chunk n;
              slurp ()
          | exception Unix.Unix_error _ -> () (* EAGAIN: nothing more *)
        in
        slurp ();
        handle_frames t id c
      end)
    (connections t)

(* the drain-time flush: the loop is over, so block — but only as long
   as the send timeout, a peer that stopped reading must not wedge the
   shutdown *)
let flush_final t id c =
  if c.open_ && c.out_bytes > 0 then begin
    (try Unix.clear_nonblock c.fd with Unix.Unix_error _ -> ());
    (try Unix.setsockopt_float c.fd Unix.SO_SNDTIMEO 10.0
     with Unix.Unix_error _ -> ());
    let rec go () =
      let before = c.out_bytes in
      flush_client t id c;
      if c.open_ && c.out_bytes > 0 then
        if c.out_bytes < before then go ()
        else gone t id c ~eof:false (* EAGAIN: the send timeout expired *)
    in
    go ()
  end

let finish t =
  final_client_sweep t;
  feed t Core.Finish;
  Array.iteri
    (fun slot p ->
      Option.iter Worker.reap p;
      t.procs.(slot) <- None)
    t.procs;
  Hashtbl.iter (fun id c -> flush_final t id c) (Hashtbl.copy t.conns);
  Hashtbl.iter (fun _ c -> Worker.close_quietly c.fd) t.conns;
  Hashtbl.reset t.conns;
  if t.listening then begin
    Worker.close_quietly t.listen_fd;
    t.listening <- false;
    try Sys.remove t.cfg.socket_path with Sys_error _ -> ()
  end;
  Worker.close_quietly t.sig_r;
  Worker.close_quietly t.sig_w;
  (* release the instance lock last: until here a concurrent starter
     must still lose to us *)
  (try Sys.remove t.pidfile with Sys_error _ -> ());
  Worker.close_quietly t.pid_fd

(* [Unix.select] fails with EINVAL past FD_SETSIZE (~1024) fds; stop
   accepting comfortably below that — waiting connections sit in the
   listen backlog until a slot frees up, which is just admission
   control one layer down *)
let max_clients = 960

let rec loop t =
  feed t (Core.Tick (Unix.gettimeofday ()));
  if Core.drained t.core then finish t
  else begin
    let accepting = t.listening && Hashtbl.length t.conns < max_clients in
    (* snapshot: handlers mutate the tables as they run *)
    let conns = connections t in
    let procs = List.filter_map Fun.id (Array.to_list t.procs) in
    let fds =
      (if accepting then [ t.listen_fd ] else [])
      @ [ t.sig_r ]
      @ List.filter_map (fun (_, c) -> if c.closing then None else Some c.fd) conns
      @ List.map (fun p -> p.Worker.from_fd) procs
    in
    let wfds =
      List.filter_map
        (fun (_, c) -> if c.out_bytes > 0 then Some c.fd else None)
        conns
      @ List.filter_map
          (fun p -> if Worker.pending p then Some p.Worker.to_fd else None)
          procs
    in
    match Unix.select fds wfds [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop t
    | readable, writable, _ ->
        if List.mem t.sig_r readable then begin
          let b = Bytes.create 64 in
          (try ignore (Unix.read t.sig_r b 0 64)
           with Unix.Unix_error _ -> ());
          feed t Core.Drain
        end;
        if accepting && t.listening && List.mem t.listen_fd readable then begin
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error _ -> ()
          | fd, _ -> adopt_client t fd
        end;
        List.iter
          (fun (id, c) ->
            if c.open_ && List.mem c.fd writable then begin
              flush_client t id c;
              if c.open_ then maybe_close t id c
            end)
          conns;
        List.iter
          (fun (id, c) ->
            if c.open_ && (not c.closing) && List.mem c.fd readable then
              on_client_readable t id c)
          conns;
        List.iter
          (fun p -> if List.mem p.Worker.to_fd writable then Worker.pump p)
          procs;
        Array.iteri
          (fun slot -> function
            | Some p when List.mem p.Worker.from_fd readable ->
                on_worker_readable t slot p
            | _ -> ())
          t.procs;
        loop t
  end

(* ---------------------------------------------------------------- *)
(* entry point                                                       *)

(** Run the daemon until it is told to stop (SIGTERM, SIGINT, or a
    [Shutdown] request), then drain and return. Raises [Sys_error] if
    the socket cannot be bound or another server already holds the
    instance lock for this socket path. *)
let run (cfg : config) =
  if cfg.workers < 1 then invalid_arg "Server.run: workers must be >= 1";
  if cfg.queue_cap < 1 then invalid_arg "Server.run: queue_cap must be >= 1";
  if cfg.client_cap < 1 then invalid_arg "Server.run: client_cap must be >= 1";
  (* Single-instance lock. The old probe-then-bind dance raced: two
     servers started together could both find the socket dead, both
     unlink, both bind — last binder silently steals the socket. An
     fcntl lock on the pidfile is atomic: exactly one process holds it
     for its whole life, the loser gets [Sys_error] (exit 2 in the
     binary), and the kernel releases it on any death — so if we hold
     the lock, any existing socket file is provably stale. *)
  let pidfile = cfg.socket_path ^ ".pid" in
  let pid_fd =
    try Unix.openfile pidfile [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
    with Unix.Unix_error (e, _, _) ->
      raise
        (Sys_error (Printf.sprintf "%s: %s" pidfile (Unix.error_message e)))
  in
  (match Unix.lockf pid_fd Unix.F_TLOCK 0 with
  | () -> ()
  | exception Unix.Unix_error _ ->
      Worker.close_quietly pid_fd;
      raise
        (Sys_error
           (Printf.sprintf
              "%s: another server holds the lock for this socket" pidfile)));
  (try
     ignore (Unix.lseek pid_fd 0 Unix.SEEK_SET);
     ignore (Unix.ftruncate pid_fd 0);
     let pid = Printf.sprintf "%d\n" (Unix.getpid ()) in
     ignore (Unix.write_substring pid_fd pid 0 (String.length pid))
   with Unix.Unix_error _ -> ());
  if Sys.file_exists cfg.socket_path then (
    try Sys.remove cfg.socket_path with Sys_error _ -> ());
  (* recover the journal before accepting anyone: a resume arriving
     mid-replay would race the rebuild of the very state it needs *)
  let journal =
    match cfg.journal_dir with
    | None -> None
    | Some dir -> (
        try
          Some
            (Journal.create ~fsync:cfg.journal_fsync
               ~checkpoint_every:cfg.journal_checkpoint ~dir ())
        with Sys_error _ as e ->
          (try Sys.remove pidfile with Sys_error _ -> ());
          Worker.close_quietly pid_fd;
          raise e)
  in
  let sig_r, sig_w = Unix.pipe ~cloexec:false () in
  (* the signal plumbing must be live BEFORE the socket is bound: the
     moment [listen] returns a client can connect, submit, and send
     SIGTERM — and with the default disposition still in place that
     kills the daemon mid-startup, RSTing the client's submissions
     instead of draining them *)
  let on_signal _ =
    try ignore (Unix.write sig_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()
  in
  (* a flooding client that stops reading must cost an EPIPE we absorb,
     not a process death *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let restore_signals () =
    Sys.set_signal Sys.sigpipe prev_pipe;
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with Unix.Unix_error (e, _, _) ->
     Worker.close_quietly listen_fd;
     Worker.close_quietly sig_r;
     Worker.close_quietly sig_w;
     restore_signals ();
     (try Sys.remove pidfile with Sys_error _ -> ());
     Worker.close_quietly pid_fd;
     raise
       (Sys_error
          (Printf.sprintf "%s: %s" cfg.socket_path (Unix.error_message e))));
  let core, boot =
    Core.create ~workers:cfg.workers ~queue_cap:cfg.queue_cap
      ~client_cap:cfg.client_cap ~verbose:cfg.verbose ~journal
      ~now:(Unix.gettimeofday ())
  in
  let t =
    {
      cfg;
      core;
      listen_fd;
      listening = true;
      pid_fd;
      pidfile;
      journal;
      sig_r;
      sig_w;
      conns = Hashtbl.create 16;
      next_client = 0;
      procs = Array.make cfg.workers None;
      job_frame = Array.make cfg.workers 0;
    }
  in
  Fun.protect ~finally:restore_signals (fun () ->
      List.iter (act t) boot;
      log t "listening on %s (%d workers, queue cap %d, client cap %d)"
        cfg.socket_path cfg.workers cfg.queue_cap cfg.client_cap;
      loop t)

(** Fork [run cfg] and return the child's pid once a client can shake
    hands on its socket; [Error] if the child exits first or is not up
    within 10 s (it is then killed and reaped). *)
let spawn (cfg : config) =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try run cfg with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_up () =
        match Client.connect cfg.socket_path with
        | Ok c ->
            Client.close c;
            Ok pid
        | Error _ when fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 ->
            Error (cfg.socket_path ^ ": the daemon exited before accepting")
        | Error _ when Unix.gettimeofday () > deadline ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            Error (cfg.socket_path ^ ": the daemon did not come up within 10s")
        | Error _ ->
            Unix.sleepf 0.005;
            wait_up ()
      in
      wait_up ()
