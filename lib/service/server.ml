(** The persistent certification daemon: a single-threaded select/poll
    event loop owning a unix-domain socket, a bounded admission queue,
    and a supervised pool of long-lived worker processes.

    {b Admission control.} Every [Submit] passes two gates before it is
    queued: a global cap ([queue_cap]) on jobs waiting for a worker,
    and a per-client cap ([client_cap]) on how many of those one
    connection may hold. Either gate refusing answers [Overloaded]
    immediately — explicit backpressure, never an unbounded buffer —
    and the counters on the stats endpoint record every refusal.
    Queued jobs are dispatched round-robin {e across clients}, so a
    client that floods its quota still cannot starve a client that
    submits one job at a time. Replies cannot stall the loop either:
    client sockets are nonblocking, undeliverable frames queue per
    client and drain through select's write set, and a client that
    stops reading its replies past a byte cap is dropped.

    {b Worker supervision.} Workers are [Worker] processes, the same
    fork and protocol [Pool] drives, forked once and living for the
    daemon's whole life, which keeps each worker's in-memory cache tier
    warm across jobs. The parent watches every worker pipe; EOF means
    the worker died (a real crash, or [Blob_io.Crashed] — a worker that
    sees a simulated process death reports [Crashed] and exits, because
    a dead process does not handle exceptions; the daemon needs no more
    than the EOF). The supervisor reaps the corpse, requeues the
    in-flight job ({e once} — a job that kills two workers is reported
    [Failed], not retried forever; a job whose frame never fully left
    the parent goes back without spending that retry), and forks a
    replacement into the same slot. A slot whose worker dies three
    times before ever sending [Ready] (e.g. an uncreatable cache
    directory, reported as [Failed]) is stopped rather than respawned
    in a hot loop.

    {b Graceful degradation and observability.} A worker whose store
    demoted to memory-only keeps serving — its reports carry
    [served_degraded] — and the daemon aggregates per-worker store
    counters (corruption, quarantine, orphan sweeps) plus the
    [Timing] percentile machinery into a live [Stats_req] endpoint:
    p50/p99 per stage, queue depth and high-water mark, drops, worker
    restarts.

    {b Shutdown.} SIGTERM/SIGINT (via the self-pipe trick, so the
    handler does nothing async-unsafe) close the listener, refuse new
    submissions with [Overloaded], drain every queued job through the
    workers, answer the last client, reap the pool, unlink the socket,
    and return.

    {b Durability.} With [journal_dir] set, every delta-session open
    and edit is appended to a checksummed write-ahead [Journal]
    {e before} its reply leaves the daemon. A client whose connection
    died mid-stream (the server was killed and respawned, or the
    daemon dropped it) re-attaches with [dopen resume=1 sid]: the
    journaled open report is served immediately, the session state is
    rebuilt worker-side by replaying the journaled request sequence
    through the full prove/verify discipline (every replayed canonical
    line is checked against the journal — divergence is counted, and
    would indicate non-determinism, never an unverified serve), and
    an already-served edit serial is answered from the journal without
    recomputation — exactly-once from the client's point of view.

    {b Single instance.} The daemon takes an [fcntl] lock on
    [socket_path ^ ".pid"] before touching the socket. A second server
    started on the same path fails with [Sys_error] instead of racing
    the first for the socket file, and a stale socket left by a killed
    daemon is unlinked safely — holding the lock proves its owner is
    dead. *)

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

(* ---------------------------------------------------------------- *)
(* supervisor state                                                  *)

type jkind =
  | Jk_submit  (** a one-shot [Submit]: any worker may run it *)
  | Jk_open  (** [Delta_open]: any worker; pins the client to its slot *)
  | Jk_edit of { full : bool; ops : string }
      (** [Delta_edit]: only the pinned slot holds the session *)

type job_ctx = {
  jc_serial : int;  (** the client's token, echoed in the reply *)
  jc_client : int;
  jc_job : Manifest.job;
      (** the job itself, or — for [Jk_edit] — the session's base job,
          so a parent-made [Failed] report still names the session *)
  jc_kind : jkind;
  jc_deadline_ms : float;
  jc_sid : string option;  (** wire session id, for journaling *)
  jc_line : string;  (** the open's verbatim manifest line, journaled *)
  jc_expect : string option;
      (** set exactly on a resume-rebuild job — replayed from the
          journal to reconstruct worker state, with no client reply and
          no re-journal: the journaled canonical line it must reproduce
          (the determinism check) *)
  mutable jc_retried : bool;  (** already survived one worker death *)
  mutable jc_token : int;  (** dispatch token of the current attempt *)
}

type worker = {
  w_idx : int;
  mutable w_proc : Worker.t option;
      (** the live incarnation; [None] between a death and its respawn,
          and for good once the slot is stopped *)
  mutable w_ready : bool;
  mutable w_busy : job_ctx option;
  mutable w_busy_frame : int;
      (** [Worker.send] sequence number of the in-flight job's frame *)
  mutable w_preready_deaths : int;  (** consecutive deaths before Ready *)
  mutable w_stopped : bool;  (** supervisor gave up respawning this slot *)
  mutable w_last_store : Cert_store.stats option;
  mutable w_degraded : bool;
}

type client = {
  c_id : int;
  c_fd : Unix.file_descr;  (** nonblocking for the daemon's whole life *)
  c_conn : Wire.conn;
  c_queue : job_ctx Queue.t;
  c_out : string Queue.t;  (** encoded frames not yet on the wire *)
  mutable c_out_off : int;  (** bytes of the head frame already written *)
  mutable c_out_bytes : int;  (** total unwritten bytes across [c_out] *)
  mutable c_alive : bool;
  mutable c_hello : bool;  (** the version handshake completed *)
  mutable c_closing : bool;
      (** a fatal protocol error was answered; close the connection
          once the error frame has drained *)
  mutable c_slot : int option;
      (** worker slot holding this client's delta session — set when a
          [Jk_open] is dispatched; edits are only eligible for it *)
  mutable c_opened : bool;
      (** a session open has been queued and not since lost; gates
          edit admission *)
  mutable c_base : Manifest.job option;  (** the session's base job *)
  mutable c_sid : string option;  (** the open session's wire id *)
}

let new_job ?sid ?(line = "") ?expect c ~serial ~deadline_ms job kind =
  {
    jc_serial = serial;
    jc_client = c.c_id;
    jc_job = job;
    jc_kind = kind;
    jc_deadline_ms = deadline_ms;
    jc_sid = sid;
    jc_line = line;
    jc_expect = expect;
    jc_retried = false;
    jc_token = -1;
  }

type counters = {
  mutable submitted : int;
  mutable completed : int;
  mutable served : int;  (** fresh + cached + degraded *)
  mutable served_degraded : int;
  mutable declined : int;
  mutable failed : int;
  mutable input_error : int;
  mutable unsound : int;
  mutable requeued : int;  (** jobs given their one post-crash retry *)
  mutable dropped : int;  (** queued jobs of clients that disconnected *)
  mutable rejected_overload : int;  (** queue full, or draining *)
  mutable rejected_quota : int;  (** per-client cap exceeded *)
  mutable parse_errors : int;
  mutable restarts : int;  (** workers respawned after a death *)
  mutable max_queue : int;
  mutable resumed : int;  (** sessions re-attached from the journal *)
  mutable rebuilt_steps : int;  (** internal replay jobs completed *)
  mutable resume_mismatch : int;
      (** replayed canonical lines that diverged from the journal *)
  mutable dedup_served : int;
      (** already-applied edit serials answered from the journal *)
  mutable journal_errors : int;  (** appends lost to I/O failure *)
  mutable bad_hello : int;  (** connections rejected by the handshake *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  mutable listening : bool;
  pid_fd : Unix.file_descr;  (** holds the instance lock for life *)
  pidfile : string;
  journal : Journal.t option;
  sig_r : Unix.file_descr;
  sig_w : Unix.file_descr;
  timing : Timing.t;
  workers : worker array;
  mutable clients : client list;
  retry_q : job_ctx Queue.t;  (** crash-orphaned jobs, served first *)
  mutable rr : int;  (** id of the last client a job was taken from *)
  mutable next_client : int;
  mutable next_token : int;
  mutable draining : bool;
  mutable retired_store : Cert_store.stats;
      (** summed store counters of dead worker incarnations *)
  started : float;
  c : counters;
}

let queue_depth t =
  Queue.length t.retry_q
  + List.fold_left (fun acc c -> acc + Queue.length c.c_queue) 0 t.clients

let inflight t =
  Array.fold_left
    (fun acc w -> if w.w_busy <> None then acc + 1 else acc)
    0 t.workers

let log t fmt =
  if t.cfg.verbose then Printf.printf ("certd-server: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stdout fmt

(* ---------------------------------------------------------------- *)
(* worker lifecycle                                                  *)

(* the child sheds every fd the daemon owns: fcntl locks are
   per-process, so closing the inherited pid_fd there does not release
   the parent's instance lock *)
let spawn_worker t idx =
  let w = t.workers.(idx) in
  let inherited =
    (if t.listening then [ t.listen_fd ] else [])
    @ [ t.pid_fd; t.sig_r; t.sig_w ]
    @ List.map (fun c -> c.c_fd) t.clients
  in
  w.w_proc <-
    Some
      (Worker.spawn ~inherited ~make_engine:(t.cfg.make_engine ~worker:idx)
         ~timed:t.cfg.timed);
  w.w_ready <- false;
  w.w_busy <- None

(* an incarnation is over — it died, or the drain dismissed it: reap it
   and bank its store counters, which the next incarnation's first
   [Done] would otherwise overwrite *)
let retire t w p =
  Worker.reap p;
  w.w_proc <- None;
  Option.iter
    (fun s -> t.retired_store <- Cert_store.add_stats t.retired_store s)
    w.w_last_store;
  w.w_last_store <- None

(* ---------------------------------------------------------------- *)
(* replies                                                           *)

(* best-effort session teardown in a pinned slot: the worker is long
   past due for a [Delta_close] when its client died or re-opened
   elsewhere; a write failure means the slot is dying anyway and takes
   the session with it *)
let send_close t idx ~client =
  match t.workers.(idx).w_proc with
  | Some p -> Worker.send p (Worker.Delta_close { client })
  | None -> ()

let client_dead t c =
  if c.c_alive then begin
    c.c_alive <- false;
    (match c.c_slot with
    | Some idx -> send_close t idx ~client:c.c_id
    | None -> ());
    c.c_slot <- None;
    c.c_opened <- false;
    t.c.dropped <- t.c.dropped + Queue.length c.c_queue;
    Queue.clear c.c_queue;
    Queue.clear c.c_out;
    c.c_out_off <- 0;
    c.c_out_bytes <- 0;
    Worker.close_quietly c.c_fd;
    t.clients <- List.filter (fun c' -> c'.c_id <> c.c_id) t.clients
  end

(* Replies to a live client may only wait on the client, never on the
   event loop: the fd is nonblocking, frames queue in [c_out], and a
   full socket buffer parks the remainder for select's write set. A
   client that keeps submitting but stops reading hits the backlog cap
   and is dropped — it cannot stall the daemon for everyone else. *)

let max_client_backlog = 2 * Wire.max_frame
(* >= one max-size frame, so a single huge (legitimate) reply is never
   itself grounds for dropping a client that is still reading *)

let rec flush_client t c =
  if c.c_alive && not (Queue.is_empty c.c_out) then begin
    let head = Queue.peek c.c_out in
    let len = String.length head - c.c_out_off in
    match Unix.write_substring c.c_fd head c.c_out_off len with
    | n ->
        c.c_out_bytes <- c.c_out_bytes - n;
        if n = len then begin
          ignore (Queue.pop c.c_out : string);
          c.c_out_off <- 0;
          flush_client t c
        end
        else c.c_out_off <- c.c_out_off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        () (* socket buffer full: select's write set resumes us *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_client t c
    | exception (Unix.Unix_error _ | Sys_error _) -> client_dead t c
  end

(* a connection answered with a fatal protocol error closes as soon as
   the error frame has actually left — never before, so the client
   reads a descriptive reason instead of a bare hangup *)
let maybe_close t c =
  if c.c_alive && c.c_closing && c.c_out_bytes = 0 then client_dead t c

let reply t c resp =
  if c.c_alive then begin
    let frame = Wire.frame (Wire.encode_response resp) in
    Queue.push frame c.c_out;
    c.c_out_bytes <- c.c_out_bytes + String.length frame;
    flush_client t c;
    if c.c_alive && c.c_out_bytes > max_client_backlog then begin
      log t "client %d dropped: %d reply bytes unread" c.c_id c.c_out_bytes;
      client_dead t c
    end
    else maybe_close t c
  end

let err t c serial reason = reply t c (Wire.Err { serial; reason })

(* the drain-time flush: the loop is over, so block — but only as long
   as the send timeout, a peer that stopped reading must not wedge the
   shutdown *)
let flush_final t c =
  if c.c_alive && c.c_out_bytes > 0 then begin
    (try Unix.clear_nonblock c.c_fd with Unix.Unix_error _ -> ());
    (try Unix.setsockopt_float c.c_fd Unix.SO_SNDTIMEO 10.0
     with Unix.Unix_error _ -> ());
    let rec go () =
      let before = c.c_out_bytes in
      flush_client t c;
      if c.c_alive && c.c_out_bytes > 0 then
        if c.c_out_bytes < before then go ()
        else client_dead t c (* EAGAIN: the send timeout expired *)
    in
    go ()
  end

let find_client t id = List.find_opt (fun c -> c.c_id = id) t.clients

let adopt_client t fd =
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  let c =
    {
      c_id = t.next_client;
      c_fd = fd;
      c_conn = Wire.conn_create ();
      c_queue = Queue.create ();
      c_out = Queue.create ();
      c_out_off = 0;
      c_out_bytes = 0;
      c_alive = true;
      c_hello = false;
      c_closing = false;
      c_slot = None;
      c_opened = false;
      c_base = None;
      c_sid = None;
    }
  in
  t.next_client <- t.next_client + 1;
  t.clients <- c :: t.clients;
  log t "client %d connected (%d clients)" c.c_id (List.length t.clients)

let count_status t (r : Stats.job_report) =
  t.c.completed <- t.c.completed + 1;
  match r.Stats.r_status with
  | Stats.Served_fresh | Stats.Served_cached -> t.c.served <- t.c.served + 1
  | Stats.Served_degraded ->
      t.c.served <- t.c.served + 1;
      t.c.served_degraded <- t.c.served_degraded + 1
  | Stats.Declined -> t.c.declined <- t.c.declined + 1
  | Stats.Input_error _ -> t.c.input_error <- t.c.input_error + 1
  | Stats.Unsound _ -> t.c.unsound <- t.c.unsound + 1
  | Stats.Failed _ -> t.c.failed <- t.c.failed + 1

let dreport_of_journal serial (r : Journal.reply) =
  Wire.Dreport
    {
      serial;
      id = r.Journal.r_id;
      status = r.Journal.r_status;
      json = r.Journal.r_json;
      canonical = r.Journal.r_canonical;
      patch = r.Journal.r_patch;
    }

(* append the served judgement to the journal BEFORE the reply leaves:
   a crash between append and reply makes the client resend, and the
   resend is answered from the journal — exactly-once either way. An
   append lost to an I/O error is counted and serving continues
   (availability over durability, like the degraded store); a simulated
   process death propagates, as everywhere else. *)
let journal_serve t jc served =
  match (t.journal, jc.jc_sid) with
  | Some j, Some sid -> (
      try
        match jc.jc_kind with
        | Jk_open ->
            Journal.log_open j ~sid ~serial:jc.jc_serial ~line:jc.jc_line served
        | Jk_edit { full; ops } ->
            Journal.log_step j ~sid ~serial:jc.jc_serial ~full ~ops served
        | Jk_submit -> ()
      with Sys_error e ->
        t.c.journal_errors <- t.c.journal_errors + 1;
        log t "journal append failed: %s" e)
  | _ -> ()

let finish_job ?(patch = "{}") t jc (r : Stats.job_report) =
  match jc.jc_expect with
  | Some expect ->
      (* a resume-rebuild job: its only observable effect is worker-side
         session state. The replayed canonical line must match what the
         journal says was served — the pipeline is deterministic, so a
         divergence means the rebuilt session is not the one the client
         was streaming against, and it is counted loudly. *)
      t.c.rebuilt_steps <- t.c.rebuilt_steps + 1;
      if expect <> Stats.to_canonical_json r then begin
        t.c.resume_mismatch <- t.c.resume_mismatch + 1;
        log t "resume replay diverged from the journal for %s" r.Stats.r_id
      end
  | None -> (
      count_status t r;
      (* the one served reply: what the journal keeps and what the
         client reads are the same record *)
      let served =
        {
          Journal.r_id = r.Stats.r_id;
          r_status = Stats.status_name r.Stats.r_status;
          r_json = Stats.to_json r;
          r_canonical = Stats.to_canonical_json r;
          r_patch = patch;
        }
      in
      journal_serve t jc served;
      match find_client t jc.jc_client with
      | Some c ->
          reply t c
            (match jc.jc_kind with
            | Jk_submit ->
                Wire.Report
                  {
                    serial = jc.jc_serial;
                    id = served.r_id;
                    status = served.r_status;
                    json = served.r_json;
                    canonical = served.r_canonical;
                  }
            | Jk_open | Jk_edit _ -> dreport_of_journal jc.jc_serial served)
      | None -> () (* the requester hung up; the judgement is dropped *))

(* a parent-made terminal report: the job's worker died under it, or no
   worker is left to run it *)
let fail_job t (jc : job_ctx) msg =
  finish_job t jc
    {
      Stats.r_id = jc.jc_job.Manifest.job_id;
      r_property = jc.jc_job.Manifest.property;
      r_k = jc.jc_job.Manifest.k;
      r_n = 0;
      r_m = 0;
      r_status = Stats.Failed msg;
      r_cache_hit = false;
      r_prove_ms = 0.0;
      r_verify_ms = 0.0;
      r_total_ms = 0.0;
      r_label_bits = 0;
      r_bundle_bits = 0;
      r_reject_reasons = [];
      r_retries = 1;
    }

let session_lost = "delta session lost with its worker; reopen"

(* ---------------------------------------------------------------- *)
(* dispatch: crash-retries first, then round-robin across clients    *)

(* keep, in order, the jobs of [q] that [keep] accepts *)
let filter_queue q keep =
  let kept = Queue.create () in
  Queue.iter (fun jc -> if keep jc then Queue.push jc kept) q;
  Queue.clear q;
  Queue.transfer kept q

(* which worker may run a job: anything one-shot goes anywhere, an
   edit only to the slot holding its client's session *)
let eligible t w jc =
  match jc.jc_kind with
  | Jk_submit | Jk_open -> true
  | Jk_edit _ -> (
      match find_client t jc.jc_client with
      | Some c -> c.c_slot = Some w.w_idx
      | None -> false)

(* pop the first retry-queue job this worker may run; an edit whose
   client hung up is dropped on the floor here (its reply had no
   recipient anyway, and it would never become eligible again) *)
let take_retry t w =
  let taken = ref None in
  filter_queue t.retry_q (fun jc ->
      !taken <> None
      ||
      match jc.jc_kind with
      | Jk_edit _ when find_client t jc.jc_client = None ->
          t.c.dropped <- t.c.dropped + 1;
          false
      | _ ->
          if eligible t w jc then begin
            taken := Some jc;
            false
          end
          else true);
  !taken

(* Round-robin across clients, but only over queue HEADS: taking a
   later job from a queue whose head this worker cannot run would
   reorder one client's session stream. A client whose head is an
   edit pinned elsewhere simply waits for its slot. *)
let next_job_for t w =
  match take_retry t w with
  | Some jc -> Some jc
  | None -> (
      let with_jobs =
        List.filter
          (fun c ->
            (not (Queue.is_empty c.c_queue)) && eligible t w (Queue.peek c.c_queue))
          t.clients
        |> List.sort (fun a b -> compare a.c_id b.c_id)
      in
      let chosen =
        match List.find_opt (fun c -> c.c_id > t.rr) with_jobs with
        | Some c -> Some c
        | None -> ( match with_jobs with c :: _ -> Some c | [] -> None)
      in
      match chosen with
      | None -> None
      | Some c ->
          t.rr <- c.c_id;
          Some (Queue.pop c.c_queue))

let assign t w p jc =
  let token = t.next_token in
  t.next_token <- t.next_token + 1;
  jc.jc_token <- token;
  (* an open pins its client to this slot; a session still living in a
     previously pinned slot is torn down — one session per client *)
  (match jc.jc_kind with
  | Jk_open -> (
      match find_client t jc.jc_client with
      | Some c ->
          (match c.c_slot with
          | Some old when old <> w.w_idx -> send_close t old ~client:c.c_id
          | _ -> ());
          c.c_slot <- Some w.w_idx
      | None -> ())
  | Jk_submit | Jk_edit _ -> ());
  let msg =
    match jc.jc_kind with
    | Jk_submit ->
        Worker.Job { token; job = jc.jc_job; deadline_ms = jc.jc_deadline_ms }
    | Jk_open ->
        Worker.Delta_job
          {
            token;
            client = jc.jc_client;
            deadline_ms = jc.jc_deadline_ms;
            op = Worker.Dopen jc.jc_job;
          }
    | Jk_edit { full; ops } ->
        Worker.Delta_job
          {
            token;
            client = jc.jc_client;
            deadline_ms = jc.jc_deadline_ms;
            op = Worker.Dedit { full; ops };
          }
  in
  (* a worker that died under us keeps the slot busy until its EOF
     reaches [worker_died], which checks whether this frame ever left *)
  Worker.send p msg;
  w.w_busy <- Some jc;
  w.w_busy_frame <- p.Worker.queued

let rec dispatch t =
  let progressed = ref false in
  Array.iter
    (fun w ->
      match w.w_proc with
      | Some p when w.w_ready && w.w_busy = None -> (
          match next_job_for t w with
          | None -> ()
          | Some jc ->
              assign t w p jc;
              progressed := true)
      | _ -> ())
    t.workers;
  (* an assign may have unblocked a pinned edit behind it; every pass
     that progressed strictly shrank queue+idle, so this terminates. *)
  if !progressed then dispatch t

(* ---------------------------------------------------------------- *)
(* the stats endpoint                                                *)

let store_totals t =
  Array.fold_left
    (fun acc w ->
      match w.w_last_store with
      | Some s -> Cert_store.add_stats acc s
      | None -> acc)
    t.retired_store t.workers

let stats_json t =
  let live =
    Array.fold_left
      (fun acc w -> if w.w_proc <> None then acc + 1 else acc)
      0 t.workers
  in
  let stopped =
    Array.fold_left
      (fun acc w -> if w.w_stopped then acc + 1 else acc)
      0 t.workers
  in
  let degraded = Array.exists (fun w -> w.w_degraded) t.workers in
  let s = store_totals t in
  let durability =
    Printf.sprintf
      "{\"resumed\":%d,\"rebuilt_steps\":%d,\"resume_mismatch\":%d,\
       \"dedup_served\":%d,\"journal_errors\":%d,\"bad_hello\":%d,\
       \"journal\":%s}"
      t.c.resumed t.c.rebuilt_steps t.c.resume_mismatch t.c.dedup_served
      t.c.journal_errors t.c.bad_hello
      (match t.journal with
      | Some j -> Journal.counters_json j
      | None -> "null")
  in
  Printf.sprintf
    "{\"uptime_s\":%.3f,\"draining\":%b,\"queue\":{\"depth\":%d,\"cap\":%d,\"max_depth\":%d,\"client_cap\":%d,\"inflight\":%d},\"jobs\":{\"submitted\":%d,\"completed\":%d,\"served\":%d,\"served_degraded\":%d,\"declined\":%d,\"failed\":%d,\"input_error\":%d,\"unsound\":%d,\"requeued\":%d,\"dropped\":%d},\"admission\":{\"rejected_overload\":%d,\"rejected_quota\":%d,\"parse_errors\":%d},\"workers\":{\"configured\":%d,\"live\":%d,\"restarts\":%d,\"stopped\":%d,\"degraded\":%b},\"store\":{\"hits\":%d,\"misses\":%d,\"insertions\":%d,\"corrupt\":%d,\"quarantined\":%d,\"quarantine_evictions\":%d,\"orphans_swept\":%d,\"disk_errors\":%d,\"gc_evictions\":%d,\"filter_hits\":%d,\"filter_skips\":%d,\"filter_fps\":%d,\"flushes\":%d},\"durability\":%s,\"counters\":%s,\"stages\":%s}"
    (Unix.gettimeofday () -. t.started)
    t.draining (queue_depth t) t.cfg.queue_cap t.c.max_queue t.cfg.client_cap
    (inflight t) t.c.submitted t.c.completed t.c.served t.c.served_degraded
    t.c.declined t.c.failed t.c.input_error t.c.unsound t.c.requeued
    t.c.dropped t.c.rejected_overload t.c.rejected_quota t.c.parse_errors
    t.cfg.workers live t.c.restarts stopped degraded s.Cert_store.hits
    s.Cert_store.misses s.Cert_store.insertions s.Cert_store.corrupt
    s.Cert_store.quarantined s.Cert_store.quarantine_evictions
    s.Cert_store.orphans_swept s.Cert_store.disk_errors
    s.Cert_store.gc_evictions s.Cert_store.filter_hits
    s.Cert_store.filter_skips s.Cert_store.filter_fps s.Cert_store.flushes
    durability
    (Timing.counters_json t.timing)
    (Timing.report_json t.timing)

(* ---------------------------------------------------------------- *)
(* request handling                                                  *)

let begin_drain t =
  if not t.draining then begin
    t.draining <- true;
    if t.listening then begin
      (* a client whose connect() already completed into the backlog is
         committed: closing the listener would RST it and silently drop
         whatever it wrote. Adopt every pending connection first — its
         requests get answered (submissions with Overloaded, since we
         are draining) before the final close. *)
      (try Unix.set_nonblock t.listen_fd with Unix.Unix_error _ -> ());
      let rec adopt_backlog () =
        match Unix.accept t.listen_fd with
        | fd, _ ->
            (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
            adopt_client t fd;
            adopt_backlog ()
        | exception Unix.Unix_error _ -> ()
      in
      adopt_backlog ();
      Worker.close_quietly t.listen_fd;
      t.listening <- false;
      (try Sys.remove t.cfg.socket_path with Sys_error _ -> ())
    end;
    log t "draining: %d queued, %d in flight" (queue_depth t) (inflight t)
  end

(* the admission gates every queueing request passes: refuse while
   draining, at the global cap, and past the client's quota *)
let admitted t c serial =
  let refuse ~quota reason =
    if quota then t.c.rejected_quota <- t.c.rejected_quota + 1
    else t.c.rejected_overload <- t.c.rejected_overload + 1;
    reply t c (Wire.Overloaded { serial; reason });
    false
  in
  if t.draining then refuse ~quota:false "server is draining"
  else if queue_depth t >= t.cfg.queue_cap then
    refuse ~quota:false
      (Printf.sprintf "admission queue full (cap %d)" t.cfg.queue_cap)
  else if Queue.length c.c_queue >= t.cfg.client_cap then
    refuse ~quota:true
      (Printf.sprintf "client quota exceeded (cap %d)" t.cfg.client_cap)
  else true

(* a [Submit] and a [Delta_open] both carry exactly one manifest line *)
let parse_one_job t c serial line =
  match Manifest.parse line with
  | Ok [ job ] -> Some job
  | parsed ->
      t.c.parse_errors <- t.c.parse_errors + 1;
      err t c serial
        (match parsed with
        | Error e -> e
        | Ok [] -> "no job in submission"
        | Ok _ -> "a submission is exactly one job line");
      None

let enqueue t c jc =
  t.c.submitted <- t.c.submitted + 1;
  Queue.push jc c.c_queue;
  t.c.max_queue <- max t.c.max_queue (queue_depth t);
  dispatch t

let protocol_err =
  Printf.sprintf
    "expected hello (this server speaks protocol version %d); upgrade the \
     client"
    Wire.protocol_version

(* a client that fails the handshake is told why, then hung up on *)
let hang_up t c reason =
  t.c.bad_hello <- t.c.bad_hello + 1;
  c.c_closing <- true;
  err t c (-1) reason

(* another live connection already streaming against [sid]: admitting a
   second writer would interleave two edit streams in one journal *)
let sid_busy t c sid =
  List.exists
    (fun c' -> c'.c_alive && c'.c_id <> c.c_id && c'.c_sid = Some sid)
    t.clients

(* re-attach [c] to the journaled session [sid]: serve the journaled
   open report now, and queue an internal replay of the whole journaled
   request sequence to rebuild the worker-side state — through the
   full prove/verify discipline, exactly as the original stream ran *)
let resume_session t c ~serial ~deadline_ms ~sid (z : Journal.session) =
  match Manifest.parse z.Journal.z_line with
  | Ok [ job ] ->
      c.c_sid <- Some sid;
      c.c_opened <- true;
      c.c_base <- Some job;
      t.c.resumed <- t.c.resumed + 1;
      reply t c (dreport_of_journal serial z.Journal.z_open);
      (* the rebuild chain bypasses admission (it is the server's own
         recovery work, not client traffic) but still rides the
         client's queue, so the client's next live edit dispatches
         strictly after the session state it needs exists again *)
      let rebuild kind (served : Journal.reply) =
        Queue.push
          (new_job ~sid ~line:z.Journal.z_line
             ~expect:served.Journal.r_canonical c ~serial:(-1) ~deadline_ms job
             kind)
          c.c_queue;
        t.c.max_queue <- max t.c.max_queue (queue_depth t)
      in
      rebuild Jk_open z.Journal.z_open;
      List.iter
        (fun (p : Journal.step) ->
          rebuild
            (Jk_edit { full = p.Journal.p_full; ops = p.Journal.p_ops })
            p.Journal.p_reply)
        (List.rev z.Journal.z_steps);
      log t "client %d resumed session %s (%d journaled edits replaying)"
        c.c_id sid
        (List.length z.Journal.z_steps);
      dispatch t
  | Ok _ | Error _ -> err t c serial "journaled base job line no longer parses"

let handle_request t c req =
  match req with
  | _ when c.c_closing -> ()
  | Wire.Hello { version } ->
      if version = Wire.protocol_version then begin
        c.c_hello <- true;
        reply t c (Wire.Hello_ok { version = Wire.protocol_version })
      end
      else
        hang_up t c
          (Printf.sprintf
             "protocol version mismatch: client speaks %d, server speaks %d"
             version Wire.protocol_version)
  | _ when not c.c_hello -> hang_up t c protocol_err
  | Wire.Ping -> reply t c Wire.Pong
  | Wire.Stats_req -> reply t c (Wire.Stats_reply (stats_json t))
  | Wire.Shutdown ->
      reply t c Wire.Pong;
      begin_drain t
  | Wire.Submit { serial; canonical = _; deadline_ms; line } -> (
      if admitted t c serial then
        match parse_one_job t c serial line with
        | None -> ()
        | Some job -> enqueue t c (new_job c ~serial ~deadline_ms job Jk_submit))
  | Wire.Delta_open { serial; deadline_ms; sid; resume; line } -> (
      if resume && t.journal = None then
        err t c serial "resume unavailable: the server runs without a journal"
      else if sid_busy t c sid then
        err t c serial
          (Printf.sprintf "session %s busy: another client holds it" sid)
      else if admitted t c serial then
        match t.journal with
        | Some j when resume -> (
            match Journal.find j sid with
            | Some z -> resume_session t c ~serial ~deadline_ms ~sid z
            | None ->
                err t c serial
                  (Printf.sprintf "unknown session %s: nothing to resume" sid))
        | _ -> (
            match parse_one_job t c serial line with
            | None -> ()
            | Some job ->
                c.c_opened <- true;
                c.c_base <- Some job;
                c.c_sid <- Some sid;
                enqueue t c (new_job ~sid ~line c ~serial ~deadline_ms job Jk_open)))
  | Wire.Delta_edit { serial; deadline_ms; full; ops } -> (
      match c.c_base with
      | Some base when c.c_opened -> (
          let journaled =
            match (t.journal, c.c_sid) with
            | Some j, Some sid ->
                Option.map (fun z -> (j, sid, z)) (Journal.find j sid)
            | _ -> None
          in
          (* journal-backed idempotence: an already-applied serial is a
             resend from a client that never saw its reply — answer it
             from the journal, byte-for-byte, without recomputation; a
             serial past the next expected one lost an edit in flight
             and can only diverge, so refuse it descriptively *)
          match journaled with
          | Some (j, sid, z) when serial >= 1 && serial <= z.Journal.z_applied
            -> (
              match Journal.reply_for j ~sid ~serial with
              | Some r ->
                  t.c.dedup_served <- t.c.dedup_served + 1;
                  reply t c (dreport_of_journal serial r)
              | None ->
                  err t c serial
                    "edit already applied but its reply has been compacted \
                     out of the journal")
          | Some (_, _, z) when serial > z.Journal.z_applied + 1 ->
              err t c serial
                (Printf.sprintf
                   "serial gap: expected %d, got %d — an edit was lost in \
                    flight"
                   (z.Journal.z_applied + 1)
                   serial)
          | _ ->
              if admitted t c serial then
                enqueue t c
                  (new_job ?sid:c.c_sid c ~serial ~deadline_ms base
                     (Jk_edit { full; ops })))
      | _ -> err t c serial "no delta session open; send a dopen first")

(* one read buffer for every client, as [Worker] keeps one for every
   worker: the loop is single-threaded and [Wire.conn_feed] copies
   what it keeps *)
let chunk = Bytes.create 65536

(* answer every whole frame [c] has sent, in order, until one of them
   closes the connection *)
let handle_frames t c =
  try
    let rec drain () =
      match Wire.conn_next c.c_conn with
      | None -> ()
      | Some payload ->
          (match Wire.decode_request payload with
          | Ok req -> handle_request t c req
          | Error e ->
              (* a pre-handshake decode failure is an old or foreign
                 client: tell it why, then hang up *)
              if c.c_hello then err t c (-1) e else hang_up t c e);
          if c.c_alive && not c.c_closing then drain ()
    in
    drain ()
  with Sys_error _ -> client_dead t c (* over-cap frame: cut the cord *)

let on_client_readable t c =
  match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      () (* a signal or spurious wakeup, not a hangup *)
  | exception Unix.Unix_error _ -> client_dead t c
  | 0 ->
      (* a clean EOF is the client saying its stream is complete — on a
         unix socket the fd only closes when the client process chose
         to (or died). Retire the journaled session so it stops
         accumulating in checkpoints; a server death never reaches
         here, which is exactly what leaves its sessions resumable. *)
      (match (c.c_sid, t.journal) with
      | Some sid, Some j -> (
          try Journal.log_close j ~sid
          with Sys_error e ->
            t.c.journal_errors <- t.c.journal_errors + 1;
            log t "journal close failed: %s" e)
      | _ -> ());
      client_dead t c
  | n ->
      Wire.conn_feed c.c_conn chunk n;
      handle_frames t c

(* ---------------------------------------------------------------- *)
(* worker events                                                     *)

let worker_died t w p =
  retire t w p;
  (* the in-flight job gets exactly one more chance on another worker —
     except an edit, whose session just died with the slot: replaying
     it elsewhere would certify against no baseline. A job whose frame
     never fully left never started: it goes back untouched, and this
     death is not its one retry. *)
  (match w.w_busy with
  | Some jc when not (Worker.delivered p w.w_busy_frame) ->
      w.w_busy <- None;
      Queue.push jc t.retry_q
  | Some jc ->
      w.w_busy <- None;
      (match jc.jc_kind with
      | Jk_edit _ -> fail_job t jc session_lost
      | Jk_submit | Jk_open ->
          if jc.jc_retried then
            fail_job t jc
              (Printf.sprintf
                 "worker died twice running this job (last in slot %d)" w.w_idx)
          else begin
            jc.jc_retried <- true;
            t.c.requeued <- t.c.requeued + 1;
            Queue.push jc t.retry_q
          end)
  | None -> ());
  (* every session pinned to this slot is gone. Unpin the clients; an
     open pending in the retry queue will re-pin on dispatch, and the
     edits queued behind it still belong to the session it will build.
     With no pending open, queued edits up to the client's next open
     (if any) certified against the lost session — fail them now
     rather than leave them eligible for no slot. *)
  let pending_open cid =
    Queue.fold
      (fun acc jc -> acc || (jc.jc_client = cid && jc.jc_kind = Jk_open))
      false t.retry_q
  in
  List.iter
    (fun c ->
      if c.c_slot = Some w.w_idx then begin
        c.c_slot <- None;
        if not (pending_open c.c_id) then begin
          let failing = ref true in
          filter_queue c.c_queue (fun jc ->
              match jc.jc_kind with
              | Jk_open ->
                  failing := false;
                  true
              | Jk_edit _ when !failing ->
                  fail_job t jc session_lost;
                  false
              | Jk_edit _ | Jk_submit -> true);
          c.c_opened <-
            Queue.fold (fun acc jc -> acc || jc.jc_kind = Jk_open) false c.c_queue
        end
      end)
    t.clients;
  (* sweep edits orphaned in the retry queue (a dispatch write-failure
     raced the death): with their client unpinned and no open pending,
     they can never run *)
  filter_queue t.retry_q (fun jc ->
      match jc.jc_kind with
      | Jk_edit _ -> (
          match find_client t jc.jc_client with
          | Some c when c.c_slot <> None || pending_open c.c_id -> true
          | Some _ ->
              fail_job t jc session_lost;
              false
          | None ->
              t.c.dropped <- t.c.dropped + 1;
              false)
      | Jk_submit | Jk_open -> true);
  if not w.w_ready then begin
    w.w_preready_deaths <- w.w_preready_deaths + 1;
    if w.w_preready_deaths >= 3 then begin
      w.w_stopped <- true;
      log t "worker slot %d stopped: died %d times before becoming ready"
        w.w_idx w.w_preready_deaths
    end
  end;
  if not w.w_stopped then begin
    t.c.restarts <- t.c.restarts + 1;
    spawn_worker t w.w_idx;
    log t "worker slot %d respawned as pid %d" w.w_idx
      (match w.w_proc with Some p -> p.Worker.pid | None -> -1)
  end
  else if Array.for_all (fun w -> w.w_stopped) t.workers then begin
    (* no worker will ever run again: fail everything queued loudly
       instead of letting clients wait forever *)
    let fail_queue q =
      Queue.iter (fun jc -> fail_job t jc "no live workers remain") q;
      Queue.clear q
    in
    fail_queue t.retry_q;
    List.iter (fun c -> fail_queue c.c_queue) t.clients
  end;
  dispatch t

(* [Crashed] needs no handling: the EOF that follows it respawns the
   slot like any other death *)
let on_worker_readable t w p =
  let alive =
    Worker.read p (function
      | Worker.Ready ->
          w.w_ready <- true;
          w.w_preready_deaths <- 0;
          dispatch t
      | Worker.Done { token; report; patch; samples; store_stats; degraded } -> (
          Timing.absorb t.timing samples;
          w.w_last_store <- Some store_stats;
          w.w_degraded <- degraded;
          match w.w_busy with
          | Some jc when jc.jc_token = token ->
              w.w_busy <- None;
              finish_job ~patch:(Option.value ~default:"{}" patch) t jc report;
              dispatch t
          | _ ->
              (* a stale or duplicated token: nothing sane to attribute it to *)
              log t "worker %d: dropped result with stale token %d" w.w_idx
                token)
      | Worker.Failed msg ->
          Printf.eprintf "certd-server worker %d: cannot start: %s\n%!" w.w_idx
            msg
      | Worker.Crashed _ | Worker.Bye _ -> ())
  in
  if not alive then worker_died t w p

(* ---------------------------------------------------------------- *)
(* accept / select loop                                              *)

let on_accept t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ -> adopt_client t fd

(* The last act of a drain: requests a client wrote before the shutdown
   signal may still sit unread in the socket buffer (on a unix socket
   the client's writes landed there synchronously). Closing the fd with
   them unread would RST the connection and silently drop them — so
   slurp whatever is buffered and answer it (submissions are refused
   with Overloaded, since we are draining). *)
let final_client_sweep t =
  List.iter
    (fun c ->
      if c.c_alive then begin
        (* the fd is already nonblocking, so this read cannot hang on a
           silent client; replies queue in c_out for the final flush *)
        let rec slurp () =
          match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Wire.conn_feed c.c_conn chunk n;
              slurp ()
          | exception Unix.Unix_error _ -> () (* EAGAIN: nothing more *)
        in
        slurp ();
        handle_frames t c
      end)
    t.clients

let finish t =
  final_client_sweep t;
  (* the queue is drained and every worker is idle: dismiss the pool *)
  Array.iter
    (fun w ->
      Option.iter
        (fun p ->
          Worker.send p Worker.Quit;
          retire t w p)
        w.w_proc)
    t.workers;
  List.iter (fun c -> flush_final t c) t.clients;
  List.iter (fun c -> Worker.close_quietly c.c_fd) t.clients;
  t.clients <- [];
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
  Worker.close_quietly t.pid_fd;
  log t
    "drained: %d submitted, %d completed (%d served, %d failed), %d \
     restarts, max queue %d"
    t.c.submitted t.c.completed t.c.served t.c.failed t.c.restarts
    t.c.max_queue

(* [Unix.select] fails with EINVAL past FD_SETSIZE (~1024) fds; stop
   accepting comfortably below that — waiting connections sit in the
   listen backlog until a slot frees up, which is just admission
   control one layer down *)
let max_clients = 960

let rec loop t =
  dispatch t;
  if t.draining && queue_depth t = 0 && inflight t = 0 then finish t
  else begin
    let accepting = t.listening && List.length t.clients < max_clients in
    let procs = List.filter_map (fun w -> w.w_proc) (Array.to_list t.workers) in
    let fds =
      (if accepting then [ t.listen_fd ] else [])
      @ [ t.sig_r ]
      @ List.map (fun c -> c.c_fd) t.clients
      @ List.map (fun p -> p.Worker.from_fd) procs
    in
    let wfds =
      List.filter_map
        (fun c -> if c.c_out_bytes > 0 then Some c.c_fd else None)
        t.clients
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
          begin_drain t
        end;
        if accepting && t.listening && List.mem t.listen_fd readable then
          on_accept t;
        (* snapshot: handlers mutate t.clients/worker fds as they run *)
        List.iter
          (fun c ->
            if c.c_alive && List.mem c.c_fd writable then begin
              flush_client t c;
              maybe_close t c
            end)
          t.clients;
        List.iter
          (fun c ->
            if c.c_alive && List.mem c.c_fd readable then
              on_client_readable t c)
          t.clients;
        List.iter
          (fun p -> if List.mem p.Worker.to_fd writable then Worker.pump p)
          procs;
        Array.iter
          (fun w ->
            match w.w_proc with
            | Some p when List.mem p.Worker.from_fd readable ->
                on_worker_readable t w p
            | _ -> ())
          t.workers;
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
  let t =
    {
      cfg;
      listen_fd;
      listening = true;
      pid_fd;
      pidfile;
      journal;
      sig_r;
      sig_w;
      timing = Timing.create ();
      workers =
        Array.init cfg.workers (fun w_idx ->
            {
              w_idx;
              w_proc = None;
              w_ready = false;
              w_busy = None;
              w_busy_frame = 0;
              w_preready_deaths = 0;
              w_stopped = false;
              w_last_store = None;
              w_degraded = false;
            });
      clients = [];
      retry_q = Queue.create ();
      rr = -1;
      next_client = 0;
      next_token = 0;
      draining = false;
      retired_store = Cert_store.zero_stats ();
      started = Unix.gettimeofday ();
      c =
        {
          submitted = 0;
          completed = 0;
          served = 0;
          served_degraded = 0;
          declined = 0;
          failed = 0;
          input_error = 0;
          unsound = 0;
          requeued = 0;
          dropped = 0;
          rejected_overload = 0;
          rejected_quota = 0;
          parse_errors = 0;
          restarts = 0;
          max_queue = 0;
          resumed = 0;
          rebuilt_steps = 0;
          resume_mismatch = 0;
          dedup_served = 0;
          journal_errors = 0;
          bad_hello = 0;
        };
    }
  in
  Fun.protect ~finally:restore_signals (fun () ->
      for idx = 0 to cfg.workers - 1 do
        spawn_worker t idx
      done;
      log t "listening on %s (%d workers, queue cap %d, client cap %d)"
        cfg.socket_path cfg.workers cfg.queue_cap cfg.client_cap;
      loop t)
