(** The parallel sharded execution layer: run a job manifest across N
    worker {e processes} and merge the results into exactly the stream
    the sequential engine would have produced.

    Design invariants, in decreasing order of importance:

    {ol
    {- {b Determinism of assignment.} A job's worker is the stable
       64-bit FNV-1a hash of its job id modulo N — a pure function of
       the manifest, never of arrival order, load, or scheduling. Two
       runs of the same manifest at the same N shard identically.}
    {- {b Per-worker memory, shared disk.} Each worker builds its own
       engine after [fork], so the in-memory LRU tier of the
       certificate store is process-private — no locks, no shared
       mutable state. The on-disk tier may be shared by pointing every
       worker at the same cache directory: its writes are atomic
       (tmp-then-rename, worker-unique tmp names) and every bundle read
       from it is re-verified by the reading worker before serving, so
       a concurrent writer can change {e latency} but never
       {e judgements}.}
    {- {b Canonical merge.} Workers ship each report back over a pipe
       as a framed [Marshal] message the moment its job finishes, and
       sign off with their raw timing samples and store counters, which
       the parent merges and sums. [run_stream] emits in feed order;
       [run], its finite fold, sorts by job id (the same canonical
       order [Engine.run_jobs] emits). The canonical projection of the
       output ([Stats.to_canonical_json]) is byte-identical across all
       N.}
    {- {b Crash semantics.} A worker that hits [Blob_io.Crashed] — a
       simulated process death — reports it instead of a result; after
       every worker is reaped the parent re-raises [Crashed], so a
       crash anywhere still kills the whole batch, exactly as in the
       sequential path. Any other exception a worker raises (there
       should be none once its engine is built: [Engine.run_job] is
       total) surfaces as a [Failure] carrying its message.}}

    Workers are plain [Unix.fork] children: no threads, no domains, so
    this runs on any OCaml the container ships, and a wedged worker can
    be killed without taking the parent down. *)

module Hash64 = Lcp_util.Hash64

(* ---------------------------------------------------------------- *)
(* shard assignment                                                  *)

(** [shard_of ~workers job_id] is the worker index owning [job_id]:
    stable FNV-1a of the id, folded into [0 .. workers-1]. *)
let shard_of ~workers job_id =
  if workers <= 1 then 0
  else
    let h = Hash64.of_string job_id in
    (* clear the sign bit so the remainder is nonnegative *)
    let h = Int64.logand h Int64.max_int in
    Int64.to_int (Int64.rem h (Int64.of_int workers))

let shard ~workers jobs =
  let shards = Array.make (max 1 workers) [] in
  List.iter
    (fun (j : Manifest.job) ->
      let w = shard_of ~workers j.Manifest.job_id in
      shards.(w) <- j :: shards.(w))
    jobs;
  Array.map List.rev shards

(** Core count of this machine — the default N for [certd --jobs]. *)
let default_workers () = max 1 (Domain.recommended_domain_count ())

(* ---------------------------------------------------------------- *)
(* the fork/pipe plumbing                                            *)

let write_all fd (b : Bytes.t) =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let empty_stats () =
  {
    Cert_store.hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    disk_loads = 0;
    drops = 0;
    disk_errors = 0;
    corrupt = 0;
    quarantined = 0;
    orphans_swept = 0;
    gc_evictions = 0;
    quarantine_evictions = 0;
    filter_hits = 0;
    filter_skips = 0;
    filter_fps = 0;
    flushes = 0;
  }

(* ---------------------------------------------------------------- *)
(* the streaming driver                                              *)

(** Outcome of a streaming run: only aggregates — the reports were
    emitted one at a time and never accumulated. *)
type stream_outcome = {
  stream_summary : Stats.summary;
  stream_store : Cert_store.stats;  (** summed over every worker's store *)
  stream_degraded : bool;
}

(* Worker-to-parent protocol of the streaming pool: each report ships
   as its own frame the moment the job finishes, so the parent can
   emit in feed order while the stream is still being produced. A
   frame is a 4-byte big-endian length followed by the marshalled
   message. *)
type stream_msg =
  | S_report of Stats.job_report
  | S_done of Timing.samples * Cert_store.stats * bool (* degraded? *)
  | S_crashed of string
  | S_error of string

exception Stream_stop

let frame (msg : stream_msg) =
  let b = Marshal.to_bytes msg [] in
  let n = Bytes.length b in
  let out = Bytes.create (4 + n) in
  Bytes.set out 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set out 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set out 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set out 3 (Char.chr (n land 0xff));
  Bytes.blit b 0 out 4 n;
  out

(* A streaming worker reads manifest lines (one job each) until EOF,
   answers every job with an [S_report] frame immediately, and signs
   off with [S_done] carrying its timing samples and store counters. *)
let stream_worker_main ~make_engine ~timed rfd wfd =
  let send msg = write_all wfd (frame msg) in
  (try
     try
       let wt = if timed then Some (Timing.create ()) else None in
       let engine = make_engine wt in
       let ic = Unix.in_channel_of_descr rfd in
       let rec loop () =
         match input_line ic with
         | exception End_of_file -> ()
         | line -> (
             match Manifest.parse line with
             | Ok [ job ] ->
                 send (S_report (Engine.run_job engine job));
                 loop ()
             | Ok _ | Error _ ->
                 failwith ("stream worker: unparseable job line: " ^ line))
       in
       loop ();
       Engine.flush engine;
       Engine.snapshot_counters engine;
       let store = Engine.store engine in
       send
         (S_done
            ( (match wt with
              | Some t -> Timing.samples t
              | None -> Timing.samples (Timing.create ())),
              Cert_store.stats store,
              Cert_store.degraded store ))
     with
     | Blob_io.Crashed p -> send (S_crashed p)
     | e -> send (S_error (Printexc.to_string e))
   with _ -> ());
  try Unix.close wfd with Unix.Unix_error _ -> ()

(* Parent-side view of one streaming worker. *)
type wstream = {
  ws_pid : int;
  ws_rfd : Unix.file_descr;  (** results in *)
  ws_wfd : Unix.file_descr;  (** job lines out; nonblocking *)
  ws_out_q : string Queue.t;  (** job lines not yet started *)
  mutable ws_out : string;  (** line currently being written *)
  mutable ws_out_pos : int;
  ws_in : Buffer.t;  (** unparsed inbound bytes *)
  ws_reports : Stats.job_report Queue.t;  (** decoded, unemitted *)
  mutable ws_open : bool;  (** our write end still open *)
  mutable ws_done : bool;  (** S_done/S_crashed/S_error seen *)
  mutable ws_eof : bool;  (** read side drained *)
}

let ws_pending w =
  w.ws_out_pos < String.length w.ws_out || not (Queue.is_empty w.ws_out_q)

(** Run a stream of jobs across [workers] processes in constant
    memory: [produce feed] calls [feed job] once per job, in workload
    order; [emit] fires in the parent once per report {e in feed
    order} — never a whole-corpus list, never a sort. (The batch
    driver's canonical order is job-id order, so a feed sorted by id —
    e.g. a generated workload with zero-padded sequential ids — makes
    the streamed JSONL byte-identical to the batch driver's at any
    worker count.)

    Jobs shard by the FNV-1a function above. [make_engine] is called
    once {e inside} each worker (after the fork) with that worker's
    timing sink, so every worker owns a private engine and memory tier;
    point the engines at one cache directory to share the disk tier.
    At [workers = 1] the engine runs in-process, with no fork. Raises
    [Blob_io.Crashed] if any worker simulated a crash, after every
    worker is reaped. At most [window] jobs are in flight (fed but not
    yet emitted); the producer blocks when the window is full, so
    parent memory is bounded by [window] reports regardless of corpus
    size.

    While workers are alive, SIGINT is owned by the pool: the handler
    kills and reaps every child (no orphans holding the shared cache
    directory), runs [on_interrupt], and exits 130. *)
let run_stream ?(emit = fun (_ : Stats.job_report) -> ()) ?timing ?on_interrupt
    ?window ~workers ~make_engine produce =
  let workers = max 1 workers in
  let window =
    match window with Some w when w > 0 -> w | _ -> max 64 (8 * workers)
  in
  if workers = 1 then begin
    (* in-process: emit as we go, fold the summary incrementally *)
    let engine = make_engine timing in
    let summary = ref Stats.summary_zero in
    produce (fun job ->
        let r = Engine.run_job engine job in
        emit r;
        summary := Stats.summary_add !summary r);
    Engine.flush engine;
    Engine.snapshot_counters engine;
    let store = Engine.store engine in
    {
      stream_summary = !summary;
      stream_store = Cert_store.stats store;
      stream_degraded = Cert_store.degraded store;
    }
  end
  else begin
    flush stdout;
    flush stderr;
    (* two pipes per worker; children close every parent-side fd
       created for earlier siblings, or EOF on a sibling's job pipe
       would never arrive *)
    let parent_fds = ref [] in
    let ws =
      Array.init workers (fun _ ->
          let jr, jw = Unix.pipe ~cloexec:false () in
          let rr, rw = Unix.pipe ~cloexec:false () in
          match Unix.fork () with
          | 0 ->
              Unix.close jw;
              Unix.close rr;
              List.iter
                (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                !parent_fds;
              stream_worker_main ~make_engine ~timed:(timing <> None) jr rw;
              Unix._exit 0
          | pid ->
              Unix.close jr;
              Unix.close rw;
              Unix.set_nonblock jw;
              parent_fds := jw :: rr :: !parent_fds;
              {
                ws_pid = pid;
                ws_rfd = rr;
                ws_wfd = jw;
                ws_out_q = Queue.create ();
                ws_out = "";
                ws_out_pos = 0;
                ws_in = Buffer.create 4096;
                ws_reports = Queue.create ();
                ws_open = true;
                ws_done = false;
                ws_eof = false;
              })
    in
    let kill_all () =
      Array.iter
        (fun w ->
          try Unix.kill w.ws_pid Sys.sigkill with Unix.Unix_error _ -> ())
        ws;
      Array.iter
        (fun w ->
          try ignore (Unix.waitpid [] w.ws_pid) with Unix.Unix_error _ -> ())
        ws
    in
    let prev_int =
      Sys.signal Sys.sigint
        (Sys.Signal_handle
           (fun _ ->
             kill_all ();
             (match on_interrupt with
             | Some f -> ( try f () with _ -> ())
             | None -> ());
             exit 130))
    in
    (* a worker can die while we hold pending lines for it; the write
       must surface as EPIPE, not kill the parent *)
    let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigpipe prev_pipe)
    @@ fun () ->
    let summary = ref Stats.summary_zero in
    let store_stats = ref (empty_stats ()) in
    let degraded = ref false in
    let crashed = ref None in
    let errored = ref None in
    let feed_order = Queue.create () in
    let in_flight = ref 0 in
    (* feed-order emission: reports come back per-worker FIFO, so the
       head of [feed_order] is emittable exactly when its worker's
       report queue is nonempty *)
    let try_emit () =
      let progress = ref true in
      while !progress do
        progress := false;
        match Queue.peek_opt feed_order with
        | None -> ()
        | Some i -> (
            match Queue.take_opt ws.(i).ws_reports with
            | None -> ()
            | Some r ->
                ignore (Queue.pop feed_order);
                emit r;
                summary := Stats.summary_add !summary r;
                decr in_flight;
                progress := true)
      done
    in
    let mark_done i =
      if not ws.(i).ws_done then begin
        ws.(i).ws_done <- true;
        if !crashed = None && !errored = None then
          errored := Some "stream worker died before reporting"
      end
    in
    let handle i (msg : stream_msg) =
      match msg with
      | S_report r -> Queue.push r ws.(i).ws_reports
      | S_done (samples, stats, deg) ->
          ws.(i).ws_done <- true;
          (match timing with Some t -> Timing.absorb t samples | None -> ());
          store_stats := Cert_store.add_stats !store_stats stats;
          degraded := !degraded || deg
      | S_crashed p ->
          ws.(i).ws_done <- true;
          if !crashed = None then crashed := Some p
      | S_error e ->
          ws.(i).ws_done <- true;
          if !errored = None then errored := Some e
    in
    let parse_frames i =
      let w = ws.(i) in
      let s = Buffer.contents w.ws_in in
      let len = String.length s in
      let pos = ref 0 in
      let continue = ref true in
      while !continue do
        if len - !pos < 4 then continue := false
        else begin
          let flen =
            (Char.code s.[!pos] lsl 24)
            lor (Char.code s.[!pos + 1] lsl 16)
            lor (Char.code s.[!pos + 2] lsl 8)
            lor Char.code s.[!pos + 3]
          in
          if len - !pos - 4 < flen then continue := false
          else begin
            handle i (Marshal.from_string s (!pos + 4) : stream_msg);
            pos := !pos + 4 + flen
          end
        end
      done;
      if !pos > 0 then begin
        let rest = String.sub s !pos (len - !pos) in
        Buffer.clear w.ws_in;
        Buffer.add_string w.ws_in rest
      end
    in
    let chunk = Bytes.create 65536 in
    let pump_read i =
      let w = ws.(i) in
      match Unix.read w.ws_rfd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | 0 ->
          w.ws_eof <- true;
          (try Unix.close w.ws_rfd with Unix.Unix_error _ -> ());
          mark_done i
      | n ->
          Buffer.add_subbytes w.ws_in chunk 0 n;
          parse_frames i
    in
    let pump_write i =
      let w = ws.(i) in
      try
        let more = ref true in
        while !more do
          if w.ws_out_pos >= String.length w.ws_out then
            match Queue.take_opt w.ws_out_q with
            | Some s ->
                w.ws_out <- s;
                w.ws_out_pos <- 0
            | None -> more := false
          else
            let n =
              Unix.write_substring w.ws_wfd w.ws_out w.ws_out_pos
                (String.length w.ws_out - w.ws_out_pos)
            in
            w.ws_out_pos <- w.ws_out_pos + n
        done
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | Unix.Unix_error (Unix.EPIPE, _, _) ->
          (* dead worker: drop its backlog; the read side reports it *)
          Queue.clear w.ws_out_q;
          w.ws_out <- "";
          w.ws_out_pos <- 0
    in
    let pump block =
      let rfds = ref [] and wfds = ref [] in
      Array.iter
        (fun w ->
          if not w.ws_eof then rfds := w.ws_rfd :: !rfds;
          if w.ws_open && ws_pending w then wfds := w.ws_wfd :: !wfds)
        ws;
      (if !rfds <> [] || !wfds <> [] then
         let timeout = if block then -1.0 else 0.0 in
         match Unix.select !rfds !wfds [] timeout with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | r, wr, _ ->
             Array.iteri (fun i w -> if List.memq w.ws_wfd wr then pump_write i) ws;
             Array.iteri (fun i w -> if List.memq w.ws_rfd r then pump_read i) ws);
      try_emit ()
    in
    let live_input () =
      Array.exists (fun w -> not w.ws_eof) ws
      || Array.exists (fun w -> not (Queue.is_empty w.ws_reports)) ws
    in
    let feed (job : Manifest.job) =
      if !crashed <> None || !errored <> None then raise Stream_stop;
      let id = job.Manifest.job_id in
      String.iter
        (fun c ->
          if c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '#' then
            invalid_arg
              (Printf.sprintf
                 "Pool.run_stream: job id %S cannot cross a stream pipe" id))
        id;
      let i = shard_of ~workers id in
      Queue.push (Manifest.print_job job ^ "\n") ws.(i).ws_out_q;
      Queue.push i feed_order;
      incr in_flight;
      pump false;
      while
        !in_flight >= window
        && !crashed = None
        && !errored = None
        && live_input ()
      do
        pump true
      done
    in
    (try produce feed with Stream_stop -> ());
    (* drain the backlog, then EOF every job pipe so workers finish *)
    while
      Array.exists (fun w -> w.ws_open && ws_pending w) ws
      && !crashed = None
      && !errored = None
    do
      pump true
    done;
    Array.iter
      (fun w ->
        if w.ws_open then begin
          w.ws_open <- false;
          try Unix.close w.ws_wfd with Unix.Unix_error _ -> ()
        end)
      ws;
    while Array.exists (fun w -> not w.ws_eof) ws do
      pump true
    done;
    try_emit ();
    Array.iter
      (fun w ->
        try ignore (Unix.waitpid [] w.ws_pid) with Unix.Unix_error _ -> ())
      ws;
    (match !crashed with
    | Some p -> raise (Blob_io.Crashed p)
    | None -> ());
    (match !errored with
    | Some e -> failwith (Printf.sprintf "Pool.run_stream: worker failed: %s" e)
    | None -> ());
    if !in_flight <> 0 then
      failwith "Pool.run_stream: workers exited with reports outstanding";
    {
      stream_summary = !summary;
      stream_store = !store_stats;
      stream_degraded = !degraded;
    }
  end

(* ---------------------------------------------------------------- *)
(* the batch driver: a fold over the stream                          *)

type outcome = {
  reports : Stats.job_report list;  (** canonical order: sorted by job id *)
  summary : Stats.summary;
  store_stats : Cert_store.stats;  (** summed over every worker's store *)
  degraded : bool;  (** did any worker's store demote to memory-only? *)
}

(** Run [jobs] across [workers] processes: the finite fold of
    {!run_stream}. The reports are collected, sorted by job id (the
    canonical order [Engine.run_jobs] emits), and only then passed to
    [emit], once each; the summary is taken over the sorted list.
    Sharding, engine construction, [Blob_io.Crashed] and SIGINT
    handling are [run_stream]'s; [on_interrupt] is where the driver
    passes a tmp-file sweep of a shared cache directory. *)
let run ?(emit = fun (_ : Stats.job_report) -> ()) ?timing ?on_interrupt
    ~workers ~make_engine jobs =
  let collected = ref [] in
  let out =
    run_stream
      ~emit:(fun r -> collected := r :: !collected)
      ?timing ?on_interrupt ~workers ~make_engine
      (fun feed -> List.iter feed jobs)
  in
  let reports = Stats.sort_reports !collected in
  List.iter emit reports;
  {
    reports;
    summary = Stats.summarize reports;
    store_stats = out.stream_store;
    degraded = out.stream_degraded;
  }
