(* The batch certification driver: stream jobs from a manifest through
   the service engine (prove -> encode -> verify, content-addressed
   certificate cache), emit one JSON line per job, and report aggregate
   throughput.

   With --jobs N > 1 the manifest is sharded across N worker processes
   (stable hash of job id); each worker owns a private in-memory cache
   tier while all workers share the on-disk tier (--cache-dir), and the
   merged output is emitted in canonical job-id order — byte-comparable
   with a --jobs 1 run of the same manifest.

   With --connect SOCKET the binary is a client of a running
   certd-server daemon (Service.Client; DESIGN.md "Service daemon",
   "Client"), with output and exit codes byte-compatible with the
   batch paths above.

   Examples:
     certd.exe --manifest jobs.manifest
     certd.exe --manifest jobs.manifest --jobs 4 --cache-dir /tmp/certs
     certd.exe --manifest jobs.manifest --passes 2 --cache-dir /tmp/certs
     certd.exe --manifest jobs.manifest --jsonl results.jsonl --quiet
     certd.exe --manifest jobs.manifest --cache-dir /tmp/certs \
       --faults 'fail@3:ENOSPC,torn@5:40'   # storage-fault drill
     certd.exe --manifest jobs.manifest --connect /tmp/certd.sock
     certd.exe --connect /tmp/certd.sock --server-stats
     certd.exe --list-properties

   Exit codes: 0 all jobs served/declined; 1 some job ended in
   input_error/unsound/failed; 2 usage error; 3 simulated crash (a
   crash@N fault point halted the batch — in any worker). *)

module Service = Lcp_service

let list_properties () =
  Printf.printf "properties served by the certification service:\n";
  List.iter
    (fun name ->
      match Service.Registry.find name with
      | Some p ->
          Printf.printf "  %-18s %s\n" name
            (Service.Registry.description_of p)
      | None -> ())
    (Service.Registry.names ());
  Printf.printf "graph formats: %s\n"
    (Service.Graph_io.supported_formats_doc ())

(* ---------------------------------------------------------------- *)
(* client mode: drive a running certd-server over its socket         *)

(* one stderr line and exit code per client failure; [unexpected]
   names the exchange a stray response turned up in *)
let client_failed ~unexpected (e : Service.Client.error) =
  prerr_endline
    (match e with
    | Unexpected -> "certd: unexpected response " ^ unexpected
    | e -> "certd: " ^ Service.Client.message e);
  exit (match e with Gave_up _ | Rejected _ | Overloaded_cap _ -> 1 | _ -> 2)

let notice m = Printf.eprintf "certd: %s\n%!" m
let is_failure status = List.mem status [ "input_error"; "unsound"; "failed" ]

(* the edit file: one delta per line ("add=0-1,2-3 del=4-5"); blank
   lines and #-comments are skipped, an empty line of ops is legal *)
let load_edit_lines file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e ->
      Printf.eprintf "certd: %s\n" e;
      exit 2
  | text ->
      String.split_on_char '\n' text
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let open_jsonl = function
  | None -> None
  | Some "-" -> Some stdout
  | Some f -> Some (open_out f)

let close_jsonl = function Some oc when oc != stdout -> close_out oc | _ -> ()

let run_client ~socket_path ~window ~deadline_ms ~server_stats
    ~server_shutdown ~manifest ~base_dir ~jsonl ~canonical ~quiet ~edits
    ~edits_full ~session =
  let module Client = Service.Client in
  let ok ~unexpected = function
    | Ok v -> v
    | Error e -> client_failed ~unexpected e
  in
  let conn = ok ~unexpected:"" (Client.connect socket_path) in
  let finish code =
    Client.close conn;
    exit code
  in
  if server_stats || server_shutdown then begin
    let req, unexpected =
      if server_stats then (Service.Wire.Stats_req, "to stats request")
      else (Service.Wire.Shutdown, "to shutdown request")
    in
    (match ok ~unexpected (Client.rpc conn req) with
    | Service.Wire.Stats_reply json when server_stats -> print_endline json
    | Service.Wire.Pong when not server_stats -> ()
    | _ -> client_failed ~unexpected Unexpected);
    finish 0
  end;
  let manifest =
    match manifest with
    | Some m -> m
    | None ->
        prerr_endline "certd: --connect needs --manifest (or --server-stats)";
        finish 2
  in
  match Service.Manifest.load_file manifest with
  | Error e ->
      Printf.eprintf "certd: %s\n" e;
      finish 2
  | Ok jobs ->
      (* file= paths are meaningful in the daemon's process, not ours:
         resolve them against --base-dir (default: the manifest's
         directory, exactly as batch mode does) and make them absolute,
         so the daemon reads the same file whatever its own cwd is *)
      let absolute base f =
        if Filename.is_relative f then Filename.concat base f else f
      in
      let base =
        absolute (Unix.getcwd ())
          (Option.value base_dir ~default:(Filename.dirname manifest))
      in
      let jobs =
        List.map
          (fun (j : Service.Manifest.job) ->
            match j.source with
            | Service.Manifest.File f ->
                { j with source = Service.Manifest.File (absolute base f) }
            | Service.Manifest.Generated _ -> j)
          jobs
      in
      let jsonl_oc = open_jsonl jsonl in
      let failed = ref false in
      let emit (r : Client.report) =
        Option.iter
          (fun oc ->
            output_string oc (if canonical then r.canonical else r.json);
            output_char oc '\n')
          jsonl_oc;
        if is_failure r.status then failed := true;
        if not quiet then Printf.printf "%-12s %s\n%!" r.id r.status
      in
      (match (edits, jobs) with
      | Some edits_file, [ job ] ->
          (* the resume handle: stable across reconnects of this
             process, unique across processes unless the user pins it
             (--session) to hand a stream over deliberately *)
          let sid =
            match session with
            | Some s
              when s = ""
                   || String.exists (fun ch -> ch = ' ' || ch = '\t' || ch = '\n') s
              ->
                prerr_endline
                  "certd: --session must be a nonempty word (no whitespace)";
                finish 2
            | Some s -> s
            | None ->
                Printf.sprintf "c%d-%x" (Unix.getpid ())
                  (int_of_float (Unix.gettimeofday () *. 1000.) land 0xffffff)
          in
          (* a stream, not a batch: replies are emitted in edit order *)
          let on_reply (r : Client.report) =
            emit r;
            if not quiet then
              Printf.printf "%-12s %-13s %s\n%!" r.id r.status r.patch
          in
          ok ~unexpected:"in edit stream"
            (Client.edit_stream ~log:notice conn ~sid ~deadline_ms
               ~full:edits_full ~line:(Service.Manifest.print_job job)
               ~edits:(load_edit_lines edits_file) ~on_reply)
      | Some _, _ ->
          Printf.eprintf
            "certd: --edits needs a manifest with exactly one job (got %d)\n"
            (List.length jobs);
          finish 2
      | None, _ ->
          (* canonical order: stable sort by id over manifest order *)
          ok ~unexpected:"from server"
            (Client.submit_all ~log:notice conn ~window ~deadline_ms
               (Array.of_list jobs))
          |> Array.to_list
          |> List.stable_sort (fun (a : Client.report) b -> compare a.id b.id)
          |> List.iter emit);
      close_jsonl jsonl_oc;
      finish (if !failed then 1 else 0)

exception Stream_input of string
(** a manifest parse/read error surfaced mid-stream (--stream) *)

let run manifest base_dir cache_cap cache_dir disk_cap faults jsonl canonical
    passes njobs quiet list_props connect window deadline_ms server_stats
    server_shutdown edits edits_full session stream workload write_batch =
  if list_props then begin
    list_properties ();
    exit 0
  end;
  (match connect with
  | Some socket_path ->
      if window < 1 then begin
        prerr_endline "certd: --window must be >= 1";
        exit 2
      end;
      if stream || workload <> None || write_batch <> 1 then begin
        prerr_endline
          "certd: --stream/--workload/--write-batch are batch-mode flags \
           (not with --connect)";
        exit 2
      end;
      run_client ~socket_path ~window ~deadline_ms ~server_stats
        ~server_shutdown ~manifest ~base_dir ~jsonl ~canonical ~quiet ~edits
        ~edits_full ~session
  | None ->
      if server_stats || server_shutdown then begin
        prerr_endline "certd: --server-stats/--server-shutdown need --connect";
        exit 2
      end;
      if edits <> None || edits_full || session <> None then begin
        prerr_endline "certd: --edits/--edits-full/--session need --connect";
        exit 2
      end);
  if write_batch < 1 then begin
    prerr_endline "certd: --write-batch must be >= 1";
    exit 2
  end;
  let workload_spec =
    match workload with
    | None -> None
    | Some s -> (
        match Service.Workload.parse_spec s with
        | Ok spec -> Some spec
        | Error e ->
            Printf.eprintf "certd: --workload: %s\n" e;
            exit 2)
  in
  let manifest =
    match (manifest, workload_spec) with
    | Some _, Some _ ->
        prerr_endline "certd: --manifest and --workload are exclusive";
        exit 2
    | Some m, None -> Some m
    | None, Some _ -> None
    | None, None ->
        prerr_endline
          "certd: --manifest is required (or --workload / --list-properties); \
           see --help";
        exit 2
  in
  let streaming = stream || workload_spec <> None in
  let workers =
    match njobs with
    | 0 -> Service.Pool.default_workers ()
    | n when n >= 1 -> n
    | n ->
        Printf.eprintf "certd: --jobs must be >= 1 (got %d)\n" n;
        exit 2
  in
  let plan =
    match faults with
    | None -> None
    | Some plan_str -> (
        match Service.Blob_io.parse_plan plan_str with
        | Error e ->
            Printf.eprintf "certd: --faults: %s\n" e;
            exit 2
        | Ok plan -> Some plan)
  in
  (* Called once per worker, inside it: each worker gets a private
     memory tier and its own fault-plan counters; the disk tier
     (--cache-dir) is the shared one. *)
  let make_engine ~base_dir timing =
    let io =
      Option.map
        (fun plan -> fst (Service.Blob_io.inject ~plan Service.Blob_io.real))
        plan
    in
    Service.Engine.create ~cache_cap ?cache_dir ~cache_disk_cap:disk_cap
      ~write_batch ?io ~base_dir ?timing ()
  in
  let jobs_or_stream =
    if streaming then `Stream
    else
      match Service.Manifest.load_file (Option.get manifest) with
      | Error e ->
          Printf.eprintf "certd: %s\n" e;
          exit 2
      | Ok jobs -> `Jobs jobs
  in
  match jobs_or_stream with
  | (`Jobs _ | `Stream) as jobs_or_stream ->
      let base_dir =
        match base_dir with
        | Some d -> d
        | None -> (
            match manifest with Some m -> Filename.dirname m | None -> ".")
      in
      let make_engine = make_engine ~base_dir in
      let timing = Service.Timing.create () in
      (* the first engine doubles as the probe: an uncreatable cache
         directory (or a fault plan whose op 1 is that very mkdir)
         surfaces as a clean error before any output. In sequential
         mode this engine IS the engine, so its orphan sweep lands in
         the footer; in sharded mode the workers build their own (with
         fresh fault-plan counters) and this one's store counters are
         folded into the cold pass's footer instead of being lost *)
      let first_engine =
        try make_engine (Some timing) with
        | Sys_error e ->
            Printf.eprintf "certd: %s\n" e;
            exit 2
        | Service.Blob_io.Crashed p ->
            Printf.eprintf "certd: simulated crash (fault plan) at %s\n" p;
            exit 3
      in
      let jsonl_oc = open_jsonl jsonl in
      let failed = ref false in
      let emit (r : Service.Stats.job_report) =
        (match jsonl_oc with
        | Some oc ->
            output_string oc
              (if canonical then Service.Stats.to_canonical_json r
               else Service.Stats.to_json r);
            output_char oc '\n'
        | None -> ());
        if Service.Stats.is_failure r.Service.Stats.r_status then
          failed := true;
        if not quiet then
          Printf.printf "%-12s %-18s k=%d n=%-5d m=%-5d %-13s %8.2f ms%s\n%!"
            r.Service.Stats.r_id r.Service.Stats.r_property
            r.Service.Stats.r_k r.Service.Stats.r_n r.Service.Stats.r_m
            (Service.Stats.status_name r.Service.Stats.r_status)
            r.Service.Stats.r_total_ms
            (if r.Service.Stats.r_cache_hit then "  [cache hit]" else "")
      in
      let last_store = ref None in
      let finish code =
        (match !last_store with
        | Some (stats, degraded) ->
            Format.printf "store: %a%s@." Service.Cert_store.pp_stats stats
              (if degraded then " [DEGRADED: memory-only]" else "")
        | None -> ());
        Format.printf "%a@." Service.Timing.pp timing;
        close_jsonl jsonl_oc;
        exit code
      in
      (* on Ctrl-C the pool reaps its workers, then this sweep removes
         their half-written .tmp spool files from the shared disk tier *)
      let on_interrupt =
        Option.map
          (fun dir () -> ignore (Service.Cert_store.sweep_tmp_files dir))
          cache_dir
      in
      (* every pass through the pool: workers build their own engines
         (with fresh fault-plan counters), so the probe engine's store
         counters are folded into the cold pass's footer — unless every
         pass runs on the probe engine itself, whose counters are then
         the outcome's already *)
      let sharded_passes ?(on_probe = false) run_pass =
        let probe_stats =
          if on_probe then Service.Cert_store.zero_stats ()
          else Service.Cert_store.stats (Service.Engine.store first_engine)
        in
        for pass = 1 to passes do
          if not quiet && passes > 1 then
            Printf.printf "--- pass %d/%d %s\n" pass passes
              (if pass = 1 then "(cold)"
               else if on_probe then "(warm)"
               else "(warm via shared disk tier)");
          let outcome = run_pass () in
          Format.printf "%a@." Service.Stats.pp_summary
            outcome.Service.Pool.summary;
          let stats =
            if pass = 1 then
              Service.Cert_store.add_stats probe_stats
                outcome.Service.Pool.store_stats
            else outcome.Service.Pool.store_stats
          in
          last_store := Some (stats, outcome.Service.Pool.degraded)
        done
      in
      (try
         match jobs_or_stream with
         | `Jobs jobs ->
             (* one worker runs in-process on the probe engine for every
                pass, so --passes warms the in-memory tier even without
                --cache-dir *)
             let on_probe = workers = 1 in
             let make_engine =
               if on_probe then fun _ -> first_engine else make_engine
             in
             sharded_passes ~on_probe (fun () ->
                 snd
                   (Service.Pool.run ~emit ~timing ~workers ~make_engine
                      ?on_interrupt jobs))
         | `Stream ->
             (* corpus-scale path: never a whole-corpus job list. Jobs
                stream from the manifest (or the workload generator)
                into Pool.run_stream, which emits reports in feed
                order. A generated workload's ids are sorted, so its
                stream is byte-identical to the batch driver's
                id-sorted canonical JSONL at any --jobs count. *)
             let produce feed =
               match workload_spec with
               | Some spec -> Service.Workload.iter spec ~f:feed
               | None -> (
                   match
                     Service.Manifest.iter_file (Option.get manifest) ~f:feed
                   with
                   | Ok () -> ()
                   | Error e -> raise (Stream_input e))
             in
             sharded_passes (fun () ->
                 Service.Pool.run_stream ~emit ~timing ~workers ~make_engine
                   ?on_interrupt produce)
       with
       | Service.Blob_io.Crashed p ->
           Printf.eprintf "certd: simulated crash (fault plan) at %s\n" p;
           finish 3
       | Stream_input e ->
           Printf.eprintf "certd: %s\n" e;
           finish 2);
      finish (if !failed then 1 else 0)

open Cmdliner

let manifest =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"FILE"
        ~doc:"Manifest file listing certification jobs (see lib/service).")

let base_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "base-dir" ] ~docv:"DIR"
        ~doc:
          "Directory that file= paths in the manifest resolve against \
           (default: the manifest's directory).")

let cache_cap =
  Arg.(
    value & opt int 4096
    & info [ "cache-cap" ] ~docv:"N"
        ~doc:"In-memory LRU capacity of the certificate store.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist encoded certificate bundles here; entries survive \
           restarts and LRU eviction. Served bundles are always \
           re-verified locally first.")

let disk_cap =
  Arg.(
    value & opt int 0
    & info [ "disk-cap" ] ~docv:"N"
        ~doc:
          "Cap the on-disk certificate tier at $(docv) records; the \
           least-recently-used records (by mtime) are garbage-collected \
           past the cap. 0 means unbounded.")

let faults =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Inject storage faults (testing/drills). $(docv) is a \
           comma-separated list over the sequence of mutating file ops: \
           fail@N[:TAG] (op N raises, e.g. ENOSPC; N+ makes it \
           persistent), torn@N:B (write truncated at byte B, then \
           crash), flip@N:B (silent bit flip at bit B), crash@N \
           (process death before op N; certd exits 3).")

let jsonl =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE"
        ~doc:"Write one JSON object per job to $(docv) ('-' for stdout).")

let canonical =
  Arg.(
    value & flag
    & info [ "canonical" ]
        ~doc:
          "Emit the canonical projection in --jsonl lines: volatile fields \
           (timings, fresh-vs-cached serving detail) dropped, so two runs of \
           one manifest are byte-comparable however they were sharded.")

let passes =
  Arg.(
    value & opt int 1
    & info [ "passes" ] ~docv:"P"
        ~doc:
          "Run the whole manifest $(docv) times against the same store \
           (pass 2+ measures the warm cache).")

let njobs =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Shard the manifest across $(docv) worker processes (stable \
           hash of job id). Each worker has a private in-memory cache \
           tier; all workers share the --cache-dir disk tier. Output is \
           merged in canonical job-id order. 0 (the default) means the \
           machine's core count.")

let quiet =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-job progress lines.")

let list_props =
  Arg.(
    value & flag
    & info [ "list-properties" ]
        ~doc:"Print the property catalogue and graph formats, then exit.")

let connect =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Client mode: submit the manifest's jobs to the certd-server \
           daemon listening on the unix-domain socket $(docv) instead of \
           running them in-process. Output and exit codes match batch mode.")

let window =
  Arg.(
    value & opt int 16
    & info [ "window" ] ~docv:"N"
        ~doc:
          "With --connect: keep at most $(docv) submissions unanswered at \
           a time.")

let deadline_ms =
  Arg.(
    value & opt float 0.0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "With --connect: per-job deadline budget the daemon's retry \
           policy must respect. 0 means the daemon's default.")

let server_stats =
  Arg.(
    value & flag
    & info [ "server-stats" ]
        ~doc:
          "With --connect: print the daemon's live statistics (queue, \
           workers, store, stage percentiles) as JSON and exit.")

let server_shutdown =
  Arg.(
    value & flag
    & info [ "server-shutdown" ]
        ~doc:
          "With --connect: ask the daemon to drain its queue and exit, as \
           SIGTERM would.")

let edits =
  Arg.(
    value
    & opt (some string) None
    & info [ "edits" ] ~docv:"FILE"
        ~doc:
          "With --connect: streaming edit mode. Open a daemon-side delta \
           session on the manifest's single job, then apply $(docv) one \
           line at a time (each line an edit batch like \
           'add=0-1,2-3 del=4-5'; blank lines and #-comments skipped). \
           Each step is re-certified incrementally and re-verified before \
           it is served; replies stream back in edit order.")

let edits_full =
  Arg.(
    value & flag
    & info [ "edits-full" ]
        ~doc:
          "With --edits: tag every step's mode $(b,full) and change \
           nothing else — the stream runs the same pipeline, so its \
           canonical JSONL must match the plain run byte for byte.")

let session =
  Arg.(
    value
    & opt (some string) None
    & info [ "session" ] ~docv:"SID"
        ~doc:
          "With --edits: the session id used to resume the edit stream \
           against a journal-backed daemon after a crash or disconnect \
           (default: a fresh id derived from this process).")

let stream =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:
          "Batch mode: stream the manifest through the engine in constant \
           memory — jobs are parsed, run, and reported one at a time, never \
           materialized as a list, so corpus size is bounded by disk, not \
           RAM. Reports are emitted in manifest order (the batch default \
           sorts by job id; the two agree whenever the manifest is \
           id-sorted, e.g. any --workload stream). Implied by --workload.")

let workload =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~docv:"SPEC"
        ~doc:
          "Generate the job stream instead of reading a manifest: \
           Zipf-distributed popularity over a hot universe with seeded \
           cold/corrupt adversarial mixes, e.g. \
           'zipf:u=2000,t=1000000,s=1.05,seed=42,cold=0.01,corrupt=0.002'. \
           Deterministic in the spec; exclusive with --manifest.")

let write_batch =
  Arg.(
    value & opt int 1
    & info [ "write-batch" ] ~docv:"B"
        ~doc:
          "Group-commit the certificate store's disk writes: pool up to \
           $(docv) new records and write them in one burst with a single \
           directory fsync per batch (1, the default, writes through). A \
           crash loses at most the unflushed tail — future cache misses, \
           never corruption.")

let cmd =
  let doc = "batch certification service driver (cached Theorem 1 pipeline)" in
  Cmd.v
    (Cmd.info "certd" ~doc)
    Term.(
      const run $ manifest $ base_dir $ cache_cap $ cache_dir $ disk_cap
      $ faults $ jsonl $ canonical $ passes $ njobs $ quiet $ list_props
      $ connect $ window $ deadline_ms $ server_stats $ server_shutdown
      $ edits $ edits_full $ session $ stream $ workload $ write_batch)

let () = exit (Cmd.eval cmd)
