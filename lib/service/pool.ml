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
    {- {b Canonical merge.} Workers speak the [Worker] protocol: each
       job goes down as a [Job] frame and its report comes back in a
       [Done] frame the moment it finishes, with that job's timing
       samples; after [Quit] each worker signs off with [Bye], carrying
       its store counters. The parent merges samples and sums counters.
       [run_stream] emits in feed order; [run], its finite fold, sorts
       by job id (the same canonical order [Engine.run_jobs] emits).
       The canonical projection of the output
       ([Stats.to_canonical_json]) is byte-identical across all N.}
    {- {b Failure semantics.} Here every fault is fatal to the run. A
       worker that hits [Blob_io.Crashed] — a simulated process death —
       reports [Crashed]; after every worker is reaped the parent
       re-raises [Crashed], so a crash anywhere still kills the whole
       batch, exactly as in the sequential path. A worker that reports
       [Failed] (its engine could not be built), or reaches EOF without
       [Bye], surfaces as a [Failure] carrying the cause.}}

    Workers are forked processes ([Worker.spawn]): no threads, no
    domains, so this runs on any OCaml 5 install, and a wedged worker
    can be killed without taking the parent down. *)

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
(* the streaming driver                                              *)

(** Aggregates of a run: the reports themselves were emitted one at a
    time. *)
type outcome = {
  summary : Stats.summary;
  store_stats : Cert_store.stats;  (** summed over every worker's store *)
  degraded : bool;  (** did any worker's store demote to memory-only? *)
}

exception Stream_stop

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
    [Blob_io.Crashed] if any worker simulated a crash, and [Failure] if
    one failed or died without signing off, after every worker is
    reaped. At most [window] jobs are in flight (fed but not yet
    emitted); the producer blocks when the window is full, so parent
    memory is bounded by [window] reports regardless of corpus size.

    While workers are alive, SIGINT is owned by the pool: the handler
    kills and reaps every child (no orphans holding the shared cache
    directory), runs [on_interrupt], and exits 130. *)
let run_stream ?(emit = fun (_ : Stats.job_report) -> ())
    ?(timing = Timing.create ()) ?on_interrupt ?window ~workers ~make_engine produce =
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
      summary = !summary;
      store_stats = Cert_store.stats store;
      degraded = Cert_store.degraded store;
    }
  end
  else begin
    let ws =
      Array.init workers (fun _ ->
          Worker.spawn ~inherited:[] ~make_engine)
    in
    let kill_all () =
      Array.iter Worker.kill ws;
      Array.iter Worker.reap ws
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
    (* a worker can die while we hold frames for it; the write must
       surface as EPIPE, not kill the parent *)
    let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () ->
        (* a no-op unless [produce] raised *)
        kill_all ();
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigpipe prev_pipe)
    @@ fun () ->
    let summary = ref Stats.summary_zero in
    let store_stats = ref (Cert_store.zero_stats ()) in
    let degraded = ref false in
    let crashed = ref None in
    let errored = ref None in
    let failed () = !crashed <> None || !errored <> None in
    let signed_off = Array.make workers false in
    let reports = Array.init workers (fun _ -> Queue.create ()) in
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
            match Queue.take_opt reports.(i) with
            | None -> ()
            | Some r ->
                ignore (Queue.pop feed_order);
                emit r;
                summary := Stats.summary_add !summary r;
                decr in_flight;
                progress := true)
      done
    in
    let handle i (msg : Worker.from_worker) =
      match msg with
      | Worker.Ready -> ()
      | Worker.Done { report; samples; _ } ->
          Timing.absorb timing samples;
          Queue.push report reports.(i)
      | Worker.Bye { samples; store_stats = s; degraded = d } ->
          signed_off.(i) <- true;
          Timing.absorb timing samples;
          store_stats := Cert_store.add_stats !store_stats s;
          degraded := !degraded || d
      | Worker.Crashed p -> if !crashed = None then crashed := Some p
      | Worker.Failed e -> if !errored = None then errored := Some e
    in
    let pump block =
      let rfds = ref [] and wfds = ref [] in
      Array.iter
        (fun w ->
          if w.Worker.reading then rfds := w.Worker.from_fd :: !rfds;
          if Worker.pending w then wfds := w.Worker.to_fd :: !wfds)
        ws;
      (if !rfds <> [] || !wfds <> [] then
         let timeout = if block then -1.0 else 0.0 in
         match Unix.select !rfds !wfds [] timeout with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | r, wr, _ ->
             Array.iter
               (fun w -> if List.memq w.Worker.to_fd wr then Worker.pump w)
               ws;
             Array.iteri
               (fun i w ->
                 if
                   List.memq w.Worker.from_fd r
                   && (not (Worker.read w (handle i)))
                   && (not signed_off.(i))
                   && not (failed ())
                 then errored := Some "stream worker died before reporting")
               ws);
      try_emit ()
    in
    let live_input () =
      Array.exists (fun w -> w.Worker.reading) ws
      || Array.exists (fun q -> not (Queue.is_empty q)) reports
    in
    let feed (job : Manifest.job) =
      if failed () then raise Stream_stop;
      let i = shard_of ~workers job.Manifest.job_id in
      Worker.send ws.(i) (Worker.Job { token = 0; job; deadline_ms = 0. });
      Queue.push i feed_order;
      incr in_flight;
      pump false;
      while !in_flight >= window && (not (failed ())) && live_input () do
        pump true
      done
    in
    (try produce feed with Stream_stop -> ());
    (* drain the backlog, then EOF every input so workers sign off; a
       worker still holding jobs after a failure stops at once *)
    Array.iter (fun w -> Worker.send w Worker.Quit) ws;
    while Array.exists Worker.pending ws && not (failed ()) do
      pump true
    done;
    Array.iter Worker.close_out ws;
    while Array.exists (fun w -> w.Worker.reading) ws do
      pump true
    done;
    try_emit ();
    Array.iter Worker.reap ws;
    (match !crashed with
    | Some p -> raise (Blob_io.Crashed p)
    | None -> ());
    (match !errored with
    | Some e -> failwith (Printf.sprintf "Pool.run_stream: worker failed: %s" e)
    | None -> ());
    if !in_flight <> 0 then
      failwith "Pool.run_stream: workers exited with reports outstanding";
    { summary = !summary; store_stats = !store_stats; degraded = !degraded }
  end

(* ---------------------------------------------------------------- *)
(* the batch driver: a fold over the stream                          *)

(** Run [jobs] across [workers] processes: the finite fold of
    {!run_stream}. The reports are collected, sorted by job id (the
    canonical order [Engine.run_jobs] emits), and only then passed to
    [emit], once each; they are returned in that order beside the
    outcome, whose summary is taken over the sorted list. Sharding,
    engine construction, [Blob_io.Crashed] and SIGINT handling are
    [run_stream]'s; [on_interrupt] is where the driver passes a
    tmp-file sweep of a shared cache directory. *)
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
  (reports, { out with summary = Stats.summarize reports })
