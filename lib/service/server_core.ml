(** Every protocol and supervision decision of the daemon, as a state
    machine: [step t event] updates [t] and returns the actions the
    [Server] shell must run, in order. The core holds no file
    descriptor and reads no clock — the shell turns sockets, pipes,
    signals and time into events — so it can be driven in-process,
    deterministically, by a model test.

    {b Admission control.} Every [Submit] passes two gates before it is
    queued: a global cap ([queue_cap]) on jobs waiting for a worker,
    and a per-client cap ([client_cap]) on how many of those one
    connection may hold. Either gate refusing answers [Overloaded]
    immediately — explicit backpressure, never an unbounded buffer —
    and the counters on the stats endpoint record every refusal.
    Queued jobs are dispatched round-robin {e across clients}, so a
    client that floods its quota still cannot starve a client that
    submits one job at a time.

    {b Worker supervision.} A slot's worker lives for the daemon's whole
    life, which keeps its in-memory cache tier warm across jobs. When
    one dies, the core requeues the in-flight job ({e once} — a job
    that kills two workers is reported [Failed], not retried forever; a
    job whose frame never fully left the parent goes back without
    spending that retry), and asks for a replacement in the same slot.
    A slot whose worker dies three times before ever sending [Ready]
    (e.g. an uncreatable cache directory, reported as [Failed]) is
    stopped rather than respawned in a hot loop.

    {b One rule for abandoned work.} A job whose client is gone is
    dropped, and counted [dropped], wherever it waits: in the client's
    queue, in the retry queue, or coming back from a dead worker. So
    [submitted = completed + dropped] once the server is idle, and no
    worker is ever handed a job nobody will read. Internal
    resume-rebuild jobs are the server's own recovery work: they are
    never counted as submitted, completed or dropped.

    {b Durability.} With a journal, every delta-session open and edit
    a worker judged is appended {e before} its reply leaves: the
    [Journal] action precedes the [Reply] in one step's list. A failure
    the server makes itself (a worker died under the request, or none
    is left) is replied but not journaled, so a resume never replays
    it. A client whose connection died mid-stream re-attaches with
    [dopen resume=1 sid]: the journaled open report is served
    immediately, the session state is rebuilt worker-side by replaying
    the journaled request sequence through the full prove/verify
    discipline (every replayed canonical line is checked against the
    journal — divergence is counted, and would indicate
    non-determinism, never an unverified serve), and an already-served
    edit serial is answered from the journal without recomputation —
    exactly-once from the client's point of view. The core only reads
    the journal; the shell appends. *)

(* ---------------------------------------------------------------- *)
(* events and actions                                                *)

type event =
  | Tick of float  (** the shell's loop came round; carries [now] *)
  | Connected of int  (** a client connected under this (fresh) id *)
  | Frame of int * string  (** one whole request frame from a client *)
  | Gone of { client : int; eof : bool }
      (** the connection ended: a clean EOF ([eof]), or a read or write
          failure, an over-cap frame, an unread backlog, or the close
          of a hung-up connection *)
  | From_worker of int * Worker.from_worker  (** a message from a slot *)
  | Worker_eof of { slot : int; delivered : bool }
      (** the slot's worker died and has been reaped; [delivered] says
          whether the frame of its in-flight job fully left the parent *)
  | Drain  (** SIGTERM or SIGINT *)
  | Journal_failed of string  (** a [Journal] action raised [Sys_error] *)
  | Finish
      (** the drain is over and the shell has answered every buffered
          request: dismiss the pool *)

type action =
  | Reply of int * Wire.response
  | Close of int
      (** hang up on the client once its queued replies have left; the
          shell reports the close back as [Gone] *)
  | Send of int * Worker.to_worker
  | Spawn of int  (** fork a worker into this slot *)
  | Journal of Journal.record  (** append, before any later [Reply] *)
  | Stop_listening
      (** adopt every connection already in the listen backlog, then
          close the listener and unlink the socket *)
  | Log of string  (** verbose progress; only emitted when verbose *)
  | Warn of string  (** always shown, on stderr *)

(* ---------------------------------------------------------------- *)
(* state                                                             *)

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
  mutable w_live : bool;
      (** an incarnation exists; [false] between a death and its
          respawn, and for good once the slot is stopped *)
  mutable w_ready : bool;
  mutable w_busy : job_ctx option;
  mutable w_preready_deaths : int;  (** consecutive deaths before Ready *)
  mutable w_stopped : bool;  (** supervisor gave up respawning this slot *)
  mutable w_last_store : Cert_store.stats option;
  mutable w_degraded : bool;
}

type client = {
  c_id : int;
  c_queue : job_ctx Queue.t;
  mutable c_hello : bool;  (** the version handshake completed *)
  mutable c_closing : bool;
      (** a fatal protocol error was answered; the connection closes
          once the error frame has drained *)
  mutable c_slot : int option;
      (** worker slot holding this client's delta session — set when a
          [Jk_open] is dispatched; edits are only eligible for it *)
  mutable c_base : Manifest.job option;
      (** the base job of the session opened last, while an open of it
          is queued or its session survives; gates edit admission *)
  mutable c_sid : string option;  (** the open session's wire id *)
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
  mutable dropped : int;  (** jobs of clients that disconnected *)
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
  queue_cap : int;
  client_cap : int;
  verbose : bool;
  journal : Journal.t option;  (** read here; appended by the shell *)
  timing : Timing.t;
  workers : worker array;
  mutable clients : client list;
  retry_q : job_ctx Queue.t;  (** crash-orphaned jobs, served first *)
  mutable rr : int;  (** id of the last client a job was taken from *)
  mutable next_token : int;
  mutable draining : bool;
  mutable retired_store : Cert_store.stats;
      (** summed store counters of dead worker incarnations *)
  started : float;
  mutable now : float;  (** as of the last [Tick] *)
  c : counters;
  mutable out : action list;  (** this step's actions, newest first *)
}

let emit t a = t.out <- a :: t.out

let take_actions t =
  let actions = List.rev t.out in
  t.out <- [];
  actions

let queue_depth t =
  Queue.length t.retry_q
  + List.fold_left (fun acc c -> acc + Queue.length c.c_queue) 0 t.clients

let inflight t =
  Array.fold_left
    (fun acc w -> if w.w_busy <> None then acc + 1 else acc)
    0 t.workers

(** Draining, nothing queued and nothing in flight: time to [Finish]. *)
let drained t = t.draining && queue_depth t = 0 && inflight t = 0

let log t fmt =
  if t.verbose then Printf.ksprintf (fun s -> emit t (Log s)) fmt
  else Printf.ikfprintf ignore () fmt

let new_job ?sid ?(line = "") ?expect c ~serial ~deadline_ms job kind =
  { jc_serial = serial; jc_client = c.c_id; jc_job = job; jc_kind = kind;
    jc_deadline_ms = deadline_ms; jc_sid = sid; jc_line = line;
    jc_expect = expect; jc_retried = false; jc_token = -1 }

let find_client t id = List.find_opt (fun c -> c.c_id = id) t.clients

(* ---------------------------------------------------------------- *)
(* worker lifecycle                                                  *)

let spawn_worker t w =
  w.w_live <- true;
  w.w_ready <- false;
  w.w_busy <- None;
  emit t (Spawn w.w_idx)

(* an incarnation is over — it died, or the drain dismissed it: bank
   its store counters, which the next incarnation's first [Done] would
   otherwise overwrite *)
let retire t w =
  w.w_live <- false;
  Option.iter
    (fun s -> t.retired_store <- Cert_store.add_stats t.retired_store s)
    w.w_last_store;
  w.w_last_store <- None

(* best-effort session teardown in a pinned slot: the worker is long
   past due for a [Delta_close] when its client died or re-opened
   elsewhere; a dead slot takes the session with it *)
let send_close t idx ~client =
  if t.workers.(idx).w_live then
    emit t (Send (idx, Worker.Delta_close { client }))

(* ---------------------------------------------------------------- *)
(* replies                                                           *)

let reply t c resp = emit t (Reply (c.c_id, resp))
let err t c serial reason = reply t c (Wire.Err { serial; reason })

(* keep, in order, the jobs of [q] that [keep] accepts *)
let filter_queue q keep =
  let kept = Queue.create () in
  Queue.iter (fun jc -> if keep jc then Queue.push jc kept) q;
  Queue.clear q;
  Queue.transfer kept q

(* the one rule for abandoned work: nobody will read its reply *)
let drop t jc = if jc.jc_expect = None then t.c.dropped <- t.c.dropped + 1

let client_dead t c =
  t.clients <- List.filter (fun c' -> c'.c_id <> c.c_id) t.clients;
  (match c.c_slot with Some idx -> send_close t idx ~client:c.c_id | None -> ());
  Queue.iter (drop t) c.c_queue;
  Queue.clear c.c_queue;
  filter_queue t.retry_q (fun jc ->
      jc.jc_client <> c.c_id
      ||
      (drop t jc;
       false))

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
    { serial; id = r.r_id; status = r.r_status; json = r.r_json;
      canonical = r.r_canonical; patch = r.r_patch }

(* append the served judgement to the journal BEFORE the reply leaves:
   a crash between append and reply makes the client resend, and the
   resend is answered from the journal — exactly-once either way *)
let journal_serve t jc reply =
  match (t.journal, jc.jc_sid, jc.jc_kind) with
  | Some _, Some sid, Jk_open ->
      emit t (Journal (Opened { sid; serial = jc.jc_serial; line = jc.jc_line; reply }))
  | Some _, Some sid, Jk_edit { full; ops } ->
      emit t (Journal (Stepped { sid; serial = jc.jc_serial; full; ops; reply }))
  | _ -> ()

let finish_job ?(patch = "{}") ?(journaled = true) t jc
    (r : Stats.job_report) =
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
        { Journal.r_id = r.r_id; r_status = Stats.status_name r.r_status;
          r_json = Stats.to_json r; r_canonical = Stats.to_canonical_json r;
          r_patch = patch }
      in
      if journaled then journal_serve t jc served;
      match find_client t jc.jc_client with
      | Some c ->
          reply t c
            (match jc.jc_kind with
            | Jk_submit ->
                Wire.Report
                  { serial = jc.jc_serial; id = served.r_id; status = served.r_status;
                    json = served.r_json; canonical = served.r_canonical }
            | Jk_open | Jk_edit _ -> dreport_of_journal jc.jc_serial served)
      | None -> () (* the requester hung up; the judgement is dropped *))

(* a parent-made terminal report: the job's worker died under it, or no
   worker is left to run it. The client gets its [Failed] reply, but the
   journal keeps served judgements only: a resume that replayed this
   request would serve it and count a divergence that is none. A
   rebuild job failed here produced no worker report, so there is no
   replayed line to check: it counts as neither a rebuilt step nor a
   divergence. *)
let fail_job t (jc : job_ctx) msg =
  if jc.jc_expect = None then
    finish_job ~journaled:false t jc
      { Stats.r_id = jc.jc_job.job_id; r_property = jc.jc_job.property;
        r_k = jc.jc_job.k; r_n = 0; r_m = 0; r_status = Failed msg;
        r_cache_hit = false; r_prove_ms = 0.0; r_verify_ms = 0.0;
        r_total_ms = 0.0; r_label_bits = 0; r_bundle_bits = 0;
        r_reject_reasons = []; r_retries = 1 }

let session_lost = "delta session lost with its worker; reopen"

(* ---------------------------------------------------------------- *)
(* dispatch: crash-retries first, then round-robin across clients    *)

(* which worker may run a job: anything one-shot goes anywhere, an
   edit only to the slot holding its client's session *)
let eligible t w jc =
  match jc.jc_kind with
  | Jk_submit | Jk_open -> true
  | Jk_edit _ -> (
      match find_client t jc.jc_client with
      | Some c -> c.c_slot = Some w.w_idx
      | None -> false)

(* pop the first retry-queue job this worker may run *)
let take_retry t w =
  let taken = ref None in
  filter_queue t.retry_q (fun jc ->
      !taken <> None
      ||
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

let assign t w jc =
  let token = t.next_token in
  t.next_token <- t.next_token + 1;
  jc.jc_token <- token;
  (* an open pins its client to this slot; a session still living in a
     previously pinned slot is torn down — one session per client *)
  (match (jc.jc_kind, find_client t jc.jc_client) with
  | Jk_open, Some c ->
      (match c.c_slot with
      | Some old when old <> w.w_idx -> send_close t old ~client:c.c_id
      | _ -> ());
      c.c_slot <- Some w.w_idx
  | _ -> ());
  let delta op =
    Worker.Delta_job
      { token; client = jc.jc_client; deadline_ms = jc.jc_deadline_ms; op }
  in
  emit t
    (Send
       ( w.w_idx,
         match jc.jc_kind with
         | Jk_submit ->
             Worker.Job { token; job = jc.jc_job; deadline_ms = jc.jc_deadline_ms }
         | Jk_open -> delta (Worker.Dopen jc.jc_job)
         | Jk_edit { full; ops } -> delta (Worker.Dedit { full; ops }) ));
  (* a worker that died under us keeps the slot busy until its EOF
     reaches [worker_died], which learns whether this frame ever left *)
  w.w_busy <- Some jc

let rec dispatch t =
  if Array.for_all (fun w -> w.w_stopped) t.workers then begin
    (* no worker will ever run again: fail everything queued loudly,
       now and whenever more is queued, instead of letting clients wait
       forever *)
    let fail_queue q =
      Queue.iter (fun jc -> fail_job t jc "no live workers remain") q;
      Queue.clear q
    in
    fail_queue t.retry_q;
    List.iter (fun c -> fail_queue c.c_queue) t.clients
  end
  else begin
    let progressed = ref false in
    Array.iter
      (fun w ->
        if w.w_live && w.w_ready && w.w_busy = None then
          match next_job_for t w with
          | None -> ()
          | Some jc ->
              assign t w jc;
              progressed := true)
      t.workers;
    (* an assign may have unblocked a pinned edit behind it; every pass
       that progressed strictly shrank queue+idle, so this terminates. *)
    if !progressed then dispatch t
  end

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
  let count p = Array.fold_left (fun n w -> if p w then n + 1 else n) 0 t.workers in
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
    (t.now -. t.started)
    t.draining (queue_depth t) t.queue_cap t.c.max_queue t.client_cap
    (inflight t) t.c.submitted t.c.completed t.c.served t.c.served_degraded
    t.c.declined t.c.failed t.c.input_error t.c.unsound t.c.requeued
    t.c.dropped t.c.rejected_overload t.c.rejected_quota t.c.parse_errors
    (Array.length t.workers)
    (count (fun w -> w.w_live))
    t.c.restarts
    (count (fun w -> w.w_stopped))
    (Array.exists (fun w -> w.w_degraded) t.workers)
    s.Cert_store.hits s.Cert_store.misses s.Cert_store.insertions
    s.Cert_store.corrupt s.Cert_store.quarantined
    s.Cert_store.quarantine_evictions s.Cert_store.orphans_swept
    s.Cert_store.disk_errors s.Cert_store.gc_evictions
    s.Cert_store.filter_hits s.Cert_store.filter_skips s.Cert_store.filter_fps
    s.Cert_store.flushes durability
    (Timing.counters_json t.timing)
    (Timing.report_json t.timing)

(* ---------------------------------------------------------------- *)
(* request handling                                                  *)

let begin_drain t =
  if not t.draining then begin
    t.draining <- true;
    emit t Stop_listening;
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
  else if queue_depth t >= t.queue_cap then
    refuse ~quota:false
      (Printf.sprintf "admission queue full (cap %d)" t.queue_cap)
  else if Queue.length c.c_queue >= t.client_cap then
    refuse ~quota:true
      (Printf.sprintf "client quota exceeded (cap %d)" t.client_cap)
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

let note_depth t = t.c.max_queue <- max t.c.max_queue (queue_depth t)

let enqueue t c jc =
  t.c.submitted <- t.c.submitted + 1;
  Queue.push jc c.c_queue;
  note_depth t;
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
  err t c (-1) reason;
  emit t (Close c.c_id)

(* another live connection already streaming against [sid]: admitting a
   second writer would interleave two edit streams in one journal *)
let sid_busy t c sid =
  List.exists (fun c' -> c'.c_id <> c.c_id && c'.c_sid = Some sid) t.clients

(* re-attach [c] to the journaled session [sid]: serve the journaled
   open report now, and queue an internal replay of the whole journaled
   request sequence to rebuild the worker-side state — through the
   full prove/verify discipline, exactly as the original stream ran *)
let resume_session t c ~serial ~deadline_ms ~sid (z : Journal.session) =
  match Manifest.parse z.Journal.z_line with
  | Ok [ job ] ->
      c.c_sid <- Some sid;
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
        note_depth t
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
                c.c_base <- Some job;
                c.c_sid <- Some sid;
                enqueue t c (new_job ~sid ~line c ~serial ~deadline_ms job Jk_open)))
  | Wire.Delta_edit { serial; deadline_ms; full; ops } -> (
      match c.c_base with
      | Some base -> (
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
      | None -> err t c serial "no delta session open; send a dopen first")

(* one whole frame from a client that is still being read: a
   pre-handshake decode failure is an old or foreign client — tell it
   why, then hang up *)
let on_frame t c payload =
  if not c.c_closing then
    match Wire.decode_request payload with
    | Ok req -> handle_request t c req
    | Error e -> if c.c_hello then err t c (-1) e else hang_up t c e

(* ---------------------------------------------------------------- *)
(* worker events                                                     *)

let worker_died t w ~delivered =
  retire t w;
  (* the in-flight job gets exactly one more chance on another worker —
     except an edit, whose session just died with the slot: replaying
     it elsewhere would certify against no baseline. A job whose frame
     never fully left never started: it goes back untouched, and this
     death is not its one retry. A job whose client is gone is dropped. *)
  (match w.w_busy with
  | None -> ()
  | Some jc -> (
      w.w_busy <- None;
      match jc.jc_kind with
      | _ when find_client t jc.jc_client = None -> drop t jc
      | _ when not delivered -> Queue.push jc t.retry_q
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
          end));
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
          if not (Queue.fold (fun acc jc -> acc || jc.jc_kind = Jk_open) false c.c_queue)
          then c.c_base <- None
        end
      end)
    t.clients;
  (* sweep edits orphaned in the retry queue (a dispatch write-failure
     raced the death): with their client unpinned and no open pending,
     they can never run *)
  filter_queue t.retry_q (fun jc ->
      match (jc.jc_kind, find_client t jc.jc_client) with
      | Jk_edit _, Some c when c.c_slot = None && not (pending_open c.c_id) ->
          fail_job t jc session_lost;
          false
      | _ -> true);
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
    spawn_worker t w;
    log t "worker slot %d respawned" w.w_idx
  end;
  dispatch t

(* [Crashed] needs no handling: the EOF that follows it respawns the
   slot like any other death *)
let on_worker_msg t w = function
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
          log t "worker %d: dropped result with stale token %d" w.w_idx token)
  | Worker.Failed msg ->
      emit t
        (Warn (Printf.sprintf "certd-server worker %d: cannot start: %s" w.w_idx msg))
  | Worker.Crashed _ | Worker.Bye _ -> ()

(* ---------------------------------------------------------------- *)
(* the step function                                                 *)

(* the queue is drained and every worker is idle: dismiss the pool *)
let finish t =
  Array.iter
    (fun w ->
      if w.w_live then begin
        emit t (Send (w.w_idx, Worker.Quit));
        retire t w
      end)
    t.workers;
  log t
    "drained: %d submitted, %d completed (%d served, %d failed), %d \
     restarts, max queue %d"
    t.c.submitted t.c.completed t.c.served t.c.failed t.c.restarts
    t.c.max_queue

let with_client t id f = match find_client t id with Some c -> f c | None -> ()

let step t ev =
  (match ev with
  | Tick now ->
      t.now <- now;
      dispatch t
  | Connected id ->
      t.clients <-
        { c_id = id; c_queue = Queue.create (); c_hello = false; c_closing = false;
          c_slot = None; c_base = None; c_sid = None }
        :: t.clients;
      log t "client %d connected (%d clients)" id (List.length t.clients)
  | Frame (id, payload) -> with_client t id (fun c -> on_frame t c payload)
  | Gone { client; eof } ->
      with_client t client (fun c ->
          (* a clean EOF is the client saying its stream is complete — on
             a unix socket the fd only closes when the client process
             chose to (or died). Retire the journaled session so it stops
             accumulating in checkpoints; a server death never reaches
             here, which is exactly what leaves its sessions resumable. *)
          (match (eof, c.c_sid, t.journal) with
          | true, Some sid, Some j when Journal.find j sid <> None ->
              emit t (Journal (Journal.Closed { sid }))
          | _ -> ());
          client_dead t c)
  | From_worker (slot, msg) -> on_worker_msg t t.workers.(slot) msg
  | Worker_eof { slot; delivered } -> worker_died t t.workers.(slot) ~delivered
  | Drain -> begin_drain t
  | Journal_failed e ->
      t.c.journal_errors <- t.c.journal_errors + 1;
      log t "journal append failed: %s" e
  | Finish -> finish t);
  take_actions t

(** A core for [workers] slots, and the actions that start it: one
    [Spawn] per slot. [now] is the start of the daemon's uptime. *)
let create ~workers ~queue_cap ~client_cap ~verbose ~journal ~now =
  let t =
    {
      queue_cap;
      client_cap;
      verbose;
      journal;
      timing = Timing.create ();
      workers =
        Array.init workers (fun w_idx ->
            { w_idx; w_live = false; w_ready = false; w_busy = None;
              w_preready_deaths = 0; w_stopped = false; w_last_store = None;
              w_degraded = false });
      clients = [];
      retry_q = Queue.create ();
      rr = -1;
      next_token = 0;
      draining = false;
      retired_store = Cert_store.zero_stats ();
      started = now;
      now;
      c =
        { submitted = 0; completed = 0; served = 0; served_degraded = 0;
          declined = 0; failed = 0; input_error = 0; unsound = 0; requeued = 0;
          dropped = 0; rejected_overload = 0; rejected_quota = 0;
          parse_errors = 0; restarts = 0; max_queue = 0; resumed = 0;
          rebuilt_steps = 0; resume_mismatch = 0; dedup_served = 0;
          journal_errors = 0; bad_hello = 0 };
      out = [];
    }
  in
  Array.iter (spawn_worker t) t.workers;
  (t, take_actions t)
