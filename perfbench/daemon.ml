(* The daemon_zipf workload: a private certd_server with one worker, fed
   by one connection that keeps one submission in flight (a closed
   loop). Every daemon this module starts gets its
   own socket and cache directory under the run directory, is stopped
   with a Shutdown request that must exit 0 and unlink the socket, and
   must leave no server or worker process behind. *)

open Common
module Wire = Svc.Wire
module Workload = Svc.Workload

exception Daemon_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Daemon_error s)) fmt

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* pids whose parent is [pid] *)
let children pid =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map (fun f ->
         match int_of_string_opt f with
         | None -> None
         | Some p -> (
             match open_in (Printf.sprintf "/proc/%d/stat" p) with
             | exception Sys_error _ -> None
             | ic ->
                 let l =
                   Fun.protect
                     ~finally:(fun () -> close_in_noerr ic)
                     (fun () -> try input_line ic with End_of_file -> "")
                 in
                 (* the command name is parenthesized and may hold
                    spaces; the parent pid is the second field after it *)
                 match String.rindex_opt l ')' with
                 | None -> None
                 | Some i -> (
                     match
                       String.split_on_char ' '
                         (String.sub l (i + 2) (String.length l - i - 2))
                     with
                     | _state :: ppid :: _ when int_of_string_opt ppid = Some pid
                       ->
                         Some p
                     | _ -> None)))

let alive pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> false
  | ic ->
      let l =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> try input_line ic with End_of_file -> "")
      in
      (* a zombie has exited; only its parent's wait is missing *)
      match String.rindex_opt l ')' with
      | Some i when i + 2 < String.length l -> l.[i + 2] <> 'Z'
      | _ -> false

type t = {
  pid : int;
  dir : string;
  socket : string;
  cache : string;
  fd : Unix.file_descr;
  mutable serial : int;
}

(* Wait up to [seconds] for [pid] to exit; its wait status, or None. *)
let wait_exit pid seconds =
  let deadline = now_ms () +. (1000.0 *. seconds) in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now_ms () > deadline then None
        else begin
          Unix.sleepf 0.002;
          go ()
        end
    | _, st -> Some st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
  in
  go ()

let kill_quietly pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let send d req = Wire.write_frame d.fd (Wire.encode_request req)

let recv d =
  match Wire.read_frame d.fd with
  | None -> fail "daemon closed the connection"
  | Some p -> (
      match Wire.decode_response p with
      | Ok r -> r
      | Error e -> fail "undecodable reply: %s" e)

(* E16's group-commit batch. With 16, about one job in 36 paid a
   directory fsync, p99 fell among those jobs, and it moved with the
   disk. *)
let write_batch = 64

(* Start a daemon in [dir] and complete the hello handshake. *)
let spawn ~exe ~dir =
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let cache = Filename.concat dir "cache" in
  let log =
    Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe; "--socket"; socket; "--workers"; "1"; "--cache-dir"; cache;
        "--write-batch"; string_of_int write_batch; "--quiet";
      |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let deadline = now_ms () +. 20_000.0 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if now_ms () > deadline then begin
          kill_quietly pid;
          ignore (wait_exit pid 5.0);
          fail "daemon did not listen on %s" socket
        end
        else if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
          fail "daemon exited during start-up (see %s/server.log)" dir
        else begin
          Unix.sleepf 0.001;
          connect ()
        end
  in
  let d = { pid; dir; socket; cache; fd = connect (); serial = 0 } in
  send d (Wire.Hello { version = Wire.protocol_version });
  (match recv d with
  | Wire.Hello_ok _ -> ()
  | _ -> fail "no hello-ok from the daemon");
  d

let stats d =
  send d Wire.Stats_req;
  match recv d with Wire.Stats_reply s -> s | _ -> fail "no stats reply"

(* The peak resident set of the server and its workers, in MB. *)
let rss_mb d =
  List.fold_left
    (fun acc p -> max acc (vm_hwm_kb (string_of_int p)))
    0
    (d.pid :: children d.pid)
  |> fun kb -> float kb /. 1024.0

(* Shutdown must drain, exit 0, unlink the socket and reap the worker. *)
let shutdown d =
  let workers = children d.pid in
  send d Wire.Shutdown;
  let status = wait_exit d.pid 30.0 in
  Unix.close d.fd;
  (match status with
  | Some (Unix.WEXITED 0) -> ()
  | Some _ -> fail "daemon did not exit 0 after shutdown"
  | None ->
      kill_quietly d.pid;
      ignore (wait_exit d.pid 5.0);
      fail "daemon outlived its shutdown");
  if Sys.file_exists d.socket then fail "daemon left its socket behind";
  let leaked = List.filter alive workers in
  List.iter kill_quietly leaked;
  if leaked <> [] then
    fail "%d worker process(es) outlived the daemon" (List.length leaked)

(* ---------------------------------------------------------------- *)
(* the closed loop                                                   *)

type reply = {
  job : Manifest.job;
  verdict : verdict;
  rtt_ms : float;  (** from the first write of the job to its reply *)
  json : string;  (** the worker's job report, when there was one *)
  overloaded : int;  (** overloaded replies this job was retried after *)
}

let max_overload_retries = 3

(* Submit [job] and wait for its reply: one request in flight. An
   overloaded job is resubmitted, keeping its first send time, until it
   has used its retries. *)
let request d job =
  let t0 = now_ms () in
  let rec attempt tries =
    d.serial <- d.serial + 1;
    send d
      (Wire.Submit
         {
           serial = d.serial;
           canonical = false;
           deadline_ms = 0.0;
           line = Manifest.print_job job;
         });
    let reply verdict json =
      { job; verdict; rtt_ms = now_ms () -. t0; json; overloaded = tries }
    in
    match recv d with
    | Wire.Report { serial; status; json; _ } when serial = d.serial ->
        reply (verdict_of_status_name status) json
    | Wire.Err { serial; _ } when serial = d.serial -> reply Input_error ""
    | Wire.Overloaded { serial; _ } when serial = d.serial ->
        if tries >= max_overload_retries then reply Broken ""
        else attempt (tries + 1)
    | _ -> fail "unexpected reply to a submission"
  in
  attempt 0

let submit_all d jobs = List.map (request d) jobs

(* ---------------------------------------------------------------- *)
(* the workload                                                      *)

(* The corpus: the light-mix Zipf stream of the repository's corpus-scale
   experiment E16 (universe 2000, exponent 1.05, 1% cold, 0.2% corrupt),
   with no end. Its seed stays fixed, so the rank-to-instance mapping,
   and with it the mix of per-job costs, does not swing with the run
   seed; the run seed chooses which window of the one stream is
   replayed. *)
let corpus = { Workload.default with total = max_int; mix = Workload.Light }

exception Stop

(* Call [f] on the stream's jobs from position [skip] on, in order,
   until it returns false. *)
let replay ~skip f =
  try
    ignore
      (Workload.fold corpus ~init:0 ~f:(fun i job ->
           if i >= skip && not (f job) then raise Stop;
           i + 1))
  with Stop -> ()

(* [count] jobs of the stream from position [skip] *)
let window ~skip count =
  let out = ref [] and n = ref 0 in
  if count > 0 then
    replay ~skip (fun job ->
        out := job :: !out;
        incr n;
        !n < count);
  List.rev !out

(* Where the run seed's window starts: one of 256 starts 4096 jobs
   apart. Skipping to the furthest one takes about 1.3 s, before the
   timed phase starts its clock. *)
let window_start seed = (seed land 255) * 4096

let hot_universe () =
  List.init corpus.Workload.universe (fun r -> Workload.job_of_rank corpus r r)

(* the seed-independent reference stream: the stream's first 512 jobs *)
let reference_jobs () = window ~skip:0 512

let run_root = ".perfbench_run"
let run_dir = Filename.concat run_root (string_of_int (Unix.getpid ()))

let remove_run_dir () =
  rm_rf run_dir;
  try Unix.rmdir run_root with Unix.Unix_error _ -> ()

(* Set up a daemon: spawn, hello, fill the store with the hot universe,
   one warm-up job. *)
let setup ~exe i =
  let d = spawn ~exe ~dir:(Filename.concat run_dir (Printf.sprintf "d%d" i)) in
  let universe = hot_universe () in
  List.iter
    (fun j ->
      ignore (calibrate ());
      ignore (request d j))
    universe;
  ignore (request d (List.hd universe));
  d

(* The daemon's peak resident set is read after this many jobs of the
   timed phase (see [Workloads.rss_jobs]). *)
let rss_jobs = 4096

(* Drive the seed's window of the stream for [seconds]; every reply, in
   order, and the peak resident set after [rss_jobs] jobs. *)
let timed d ~seed ~seconds =
  let out = ref [] and n = ref 0 and peak = ref None in
  let calibrating = ref 0.0 in
  let t0 = ref 0.0 and deadline = ref 0.0 in
  replay ~skip:(window_start seed) (fun job ->
      if !n = 0 then begin
        t0 := now_ms ();
        deadline := !t0 +. (1000.0 *. seconds)
      end;
      if !n = rss_jobs then peak := Some (rss_mb d);
      calibrating := !calibrating +. calibrate ();
      out := request d job :: !out;
      incr n;
      now_ms () < !deadline);
  let peak = match !peak with Some p -> p | None -> rss_mb d in
  ((now_ms () -. !t0 -. !calibrating) /. 1000.0, List.rev !out, peak)

(* the number after ["key":] in a flat JSON object, if any *)
let json_number json key =
  let pat = Printf.sprintf "\"%s\":" key in
  let lp = String.length pat in
  let rec find i =
    if i + lp > String.length json then None
    else if String.sub json i lp = pat then
      Scanf.sscanf_opt
        (String.sub json (i + lp) (String.length json - i - lp))
        "%f" Fun.id
    else find (i + 1)
  in
  find 0

(* Minor kilo-words per job of the worker's job path, [Engine.run_job]
   with the daemon's store settings, replayed in-process on the
   reference stream after its hot universe is stored. *)
let reference_alloc_kw () =
  let dir = Filename.concat run_dir "ref" in
  mkdir_p dir;
  let e =
    Svc.Engine.create ~cache_dir:(Filename.concat dir "cache") ~write_batch ()
  in
  List.iter (fun j -> ignore (Svc.Engine.run_job e j)) (hot_universe ());
  let jobs = reference_jobs () in
  let w0 = Gc.minor_words () in
  List.iter (fun j -> ignore (Svc.Engine.run_job e j)) jobs;
  let w1 = Gc.minor_words () in
  Svc.Engine.flush e;
  (w1 -. w0) /. 1000.0 /. float (List.length jobs)

(* The last served job of each distinct store key, in serving order:
   the stored bundle of a key was proved for, or re-verified under, the
   ids of the last job served under it. *)
let last_served replies =
  let last = Hashtbl.create 256 in
  List.iteri
    (fun i r ->
      if r.verdict = Served then
        match graph_of_job r.job with
        | Error _ -> ()
        | Ok g ->
            let key =
              Svc.Cert_store.key ~property:r.job.Manifest.property
                ~k:r.job.Manifest.k g
            in
            Hashtbl.replace last (Svc.Cert_store.key_hex key) (i, r.job))
    replies;
  Hashtbl.fold (fun _ v acc -> v :: acc) last []
  |> List.sort compare |> List.map snd

(* Daemon-side figures for the trace: the server's own cost per job,
   client round trip minus the worker's [total_ms], over one-at-a-time
   submissions of [jobs]; and the stats endpoint's admission and
   supervision counters for the daemon's whole life. *)
let server_probe d ~jobs ~overloaded =
  let replies = submit_all d jobs in
  let overhead =
    List.filter_map
      (fun r -> Option.map (fun ms -> r.rtt_ms -. ms) (json_number r.json "total_ms"))
      replies
  in
  let st = stats d in
  let num key = Option.value ~default:0.0 (json_number st key) in
  ( replies,
    [
    ("server.overhead_ms", median (Array.of_list overhead), "ms");
    ("server.queue_max_depth", num "max_depth", "count");
    ("server.overloaded", num "rejected_overload" +. float overloaded, "count");
    ("server.restarts", num "restarts", "count");
  ] )

(* On the way out of a run, whatever the path: kill a daemon still
   [live] and its workers, and remove the run's directory. *)
let kill_live live =
  Option.iter
    (fun d ->
      let workers = children d.pid in
      kill_quietly d.pid;
      List.iter kill_quietly workers;
      ignore (wait_exit d.pid 5.0))
    !live;
  remove_run_dir ()

(* The server layer for a traced in-process workload, which has no
   daemon of its own: a private daemon started for the purpose is sent
   [jobs] one at a time, then shut down with the same checks as
   daemon_zipf's. The replies and the server's figures. *)
let companion ~exe jobs =
  let live = ref None in
  Fun.protect
    ~finally:(fun () -> kill_live live)
    (fun () ->
      let d = spawn ~exe ~dir:(Filename.concat run_dir "companion") in
      live := Some d;
      let replies, server = server_probe d ~jobs ~overloaded:0 in
      shutdown d;
      live := None;
      (replies, server))

let daemon_zipf ?(probe = false) ~exe ~seed ~seconds () =
  let live = ref None in
  Fun.protect
    ~finally:(fun () -> kill_live live)
    (fun () ->
      let setups_s, setup_calib_ms, d =
        Workloads.repeat_setup ~setups:3
          ~drop:(fun d ->
            shutdown d;
            live := None)
          ~setup:(fun i ->
            let d = setup ~exe i in
            live := Some d;
            d)
      in
      let timed_s, replies, rss_mb = timed d ~seed ~seconds in
      let overloaded = List.fold_left (fun a r -> a + r.overloaded) 0 replies in
      let probed, server =
        if probe then
          server_probe d ~jobs:(window ~skip:(window_start seed) 256) ~overloaded
        else ([], [])
      in
      let refs = submit_all d (reference_jobs ()) in
      shutdown d;
      live := None;
      let failures =
        Workloads.check_verdicts
          (List.map (fun r -> (r.job, r.verdict)) (replies @ probed @ refs))
      in
      let store = Svc.Cert_store.create ~dir:d.cache () in
      let bundle_failures =
        Workloads.check_bundles ~k:32 store
          (last_served (replies @ probed @ refs))
      in
      let served_refs = List.filter (fun r -> r.verdict = Served) refs in
      let mean_of key =
        List.fold_left
          (fun a r -> a +. Option.value ~default:0.0 (json_number r.json key))
          0.0 served_refs
        /. float (List.length served_refs)
      in
      {
        Workloads.setups_s;
        setup_calib_ms;
        timed_s;
        lat_ms = Array.of_list (List.map (fun r -> r.rtt_ms) replies);
        attempted = List.length replies;
        failures = failures @ bundle_failures;
        alloc_kw = reference_alloc_kw ();
        label_bits = mean_of "label_bits";
        bundle_bits = mean_of "bundle_bits";
        rss_mb;
        notes = [ Printf.sprintf "overloaded retries: %d" overloaded ];
        untraced_ms =
          median
            (Array.of_list
               (List.filter_map (fun r -> json_number r.json "total_ms") replies));
        server;
      })
