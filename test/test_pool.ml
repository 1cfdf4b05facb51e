(* Parallel-determinism suite for the sharded pool (lib/service/pool):
   the same manifest run at --jobs 1 and --jobs 4 must produce
   byte-identical canonical JSONL stats and an identical disk-tier
   snapshot (hash set of stored records) — including when a blob_io
   fault plan is armed in every worker. These tests regression-guard
   the three things sharding can silently break: the merge order, the
   shared-disk-tier write protocol, and crash propagation out of a
   forked worker.

   What is compared on purpose and what is not:
   - the *canonical* projection of the stats (Stats.canonical_lines):
     fresh-vs-cached serving status and wall-clock timings legitimately
     depend on shard interleaving, so they are volatile; verdicts,
     sizes and ordering are not.
   - disk snapshots are compared directly for fault-free runs; for
     faulted runs they are compared only after a clean repair pass,
     because *which* write a plan corrupts depends on the per-worker op
     interleaving — but a repair pass must converge every layout to the
     same bytes.

   Runs as its own executable: `dune build @pool`. *)

module Service = Lcp_service
module Manifest = Service.Manifest
module Engine = Service.Engine
module Pool = Service.Pool
module Stats = Service.Stats
module Store = Service.Cert_store
module Blob_io = Service.Blob_io

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let test name f = Alcotest.test_case name `Quick f

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
  go 0

(* ---------------------------------------------------------------- *)
(* scratch directories                                               *)

let dir_counter = ref 0

let fresh_dir tag =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp_pool_%s_%d_%d" tag (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir tag f =
  let d = fresh_dir tag in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* ---------------------------------------------------------------- *)
(* the corpus: mixed families, deliberate duplicate cache keys (same
   source/property/k/seed under different job ids, so they may land on
   different workers and race on the shared disk tier), one job the
   parser accepts but the registry rejects (input_error), and one
   false instance (declined). *)

let corpus_manifest =
  String.concat "\n"
    ([
       "# pool determinism corpus";
       "id=err1 gen=cycle n=12 property=nosuchproperty k=2";
       "id=decl1 gen=cycle n=12 property=acyclic k=2";
     ]
    @ List.concat_map
        (fun i ->
          [
            Printf.sprintf
              "id=conn%02d gen=random n=%d gseed=%d property=connected k=3" i
              (16 + (3 * i))
              i;
            Printf.sprintf
              "id=tree%02d gen=tree n=%d gseed=%d property=acyclic k=3" i
              (14 + (2 * i))
              i;
            Printf.sprintf
              "id=bip%02d gen=ladder n=%d property=bipartite k=2" i (8 + i);
          ])
        [ 1; 2; 3; 4; 5; 6; 7 ]
    (* duplicate key set: identical source/property/k/seed, distinct
       ids — these hash to different shards but address one record *)
    @ List.map
        (fun i ->
          Printf.sprintf
            "id=dup%02d gen=caterpillar n=15 property=triangle_free k=2" i)
        [ 1; 2; 3; 4; 5 ]
    @ [ "id=match1 gen=path n=12 property=perfect_matching k=1" ])

let corpus () =
  match Manifest.parse corpus_manifest with
  | Ok jobs -> jobs
  | Error e -> Alcotest.failf "corpus manifest did not parse: %s" e

(* every worker builds its own engine (and fault-plan counters) from
   this, exactly as certd does *)
let make_engine ?plan ~dir () timing =
  let io =
    Option.map (fun p -> fst (Blob_io.inject ~plan:p Blob_io.real)) plan
  in
  Engine.create ~cache_cap:64 ~cache_dir:dir ?io ~timing ()

let snapshot dir =
  Store.disk_snapshot (Store.create ~dir ())

let plan_of_string s =
  match Blob_io.parse_plan s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad fault plan in test: %s" e

(* ---------------------------------------------------------------- *)
(* sharding is a pure function of the job id                         *)

let shard_assignment () =
  let jobs = corpus () in
  List.iter
    (fun (j : Manifest.job) ->
      let w = Pool.shard_of ~workers:4 j.Manifest.job_id in
      check
        (Printf.sprintf "%s lands in [0,4)" j.Manifest.job_id)
        true
        (w >= 0 && w < 4);
      check_int
        (Printf.sprintf "%s shard is stable" j.Manifest.job_id)
        w
        (Pool.shard_of ~workers:4 j.Manifest.job_id))
    jobs;
  (* with 4 workers and ~30 well-spread ids, no shard should be empty —
     a degenerate all-on-one-worker hash would make every other test
     here vacuous *)
  let used =
    List.sort_uniq compare
      (List.map
         (fun (j : Manifest.job) -> Pool.shard_of ~workers:4 j.Manifest.job_id)
         jobs)
  in
  check "all 4 shards are populated" true (List.length used = 4)

(* pool at workers=1 is the sequential engine, report for report *)
let pool1_matches_sequential () =
  with_dir "seq" @@ fun d_seq ->
  with_dir "one" @@ fun d_one ->
  let jobs = corpus () in
  let engine = make_engine ~dir:d_seq () (Service.Timing.create ()) in
  let seq_reports, seq_summary = Engine.run_jobs engine jobs in
  let reports, out =
    Pool.run ~workers:1 ~make_engine:(make_engine ~dir:d_one ()) jobs
  in
  check_str "canonical stats"
    (Stats.canonical_lines seq_reports)
    (Stats.canonical_lines reports);
  (* count fields only: the timing fields are volatile by design *)
  check_int "summary: served" seq_summary.Stats.s_served
    out.Pool.summary.Stats.s_served;
  check_int "summary: declined" seq_summary.Stats.s_declined
    out.Pool.summary.Stats.s_declined;
  check_int "summary: errors" seq_summary.Stats.s_errors
    out.Pool.summary.Stats.s_errors;
  check_int "summary: max label bits" seq_summary.Stats.s_max_label_bits
    out.Pool.summary.Stats.s_max_label_bits;
  check "disk tiers identical" true (snapshot d_seq = snapshot d_one)

(* the tentpole determinism claim: canonical stats byte-identical and
   disk tier identical across worker counts, duplicates and all *)
let jobs1_vs_jobs4 () =
  let jobs = corpus () in
  let run_at n =
    let dir = fresh_dir (Printf.sprintf "w%d" n) in
    let emitted = ref [] in
    let emit (r : Stats.job_report) = emitted := r.Stats.r_id :: !emitted in
    let reports, _ =
      Pool.run ~emit ~workers:n ~make_engine:(make_engine ~dir ()) jobs
    in
    (* emit fires in canonical order, exactly once per job *)
    let ids = List.rev !emitted in
    check_int
      (Printf.sprintf "workers=%d: one emit per job" n)
      (List.length jobs) (List.length ids);
    check
      (Printf.sprintf "workers=%d: emits are job-id sorted" n)
      true
      (ids = List.sort compare ids);
    (Stats.canonical_lines reports, snapshot dir, dir)
  in
  let base_lines, base_snap, base_dir = run_at 1 in
  check "baseline stored something" true (base_snap <> []);
  List.iter
    (fun n ->
      let lines, snap, dir = run_at n in
      check_str
        (Printf.sprintf "workers=%d: canonical stats = workers=1" n)
        base_lines lines;
      check
        (Printf.sprintf "workers=%d: disk tier = workers=1" n)
        true (snap = base_snap);
      rm_rf dir)
    [ 2; 3; 4 ];
  rm_rf base_dir

(* same claim under an armed fault plan. Each worker arms its own
   counters, so *which* record a flip or a failed write lands on
   depends on the sharding — canonical verdicts must not, and one
   clean pass over the same store must repair every layout to the
   same bytes (corrupt records are quarantined on read and re-proved,
   missing ones re-proved and re-written). *)
let jobs1_vs_jobs4_under_faults () =
  let jobs = corpus () in
  let plan = plan_of_string "flip@2:40,flip@4:3,fail@6:ENOSPC" in
  let run_at n =
    let dir = fresh_dir (Printf.sprintf "f%d" n) in
    let faulted, _ =
      Pool.run ~workers:n ~make_engine:(make_engine ~plan ~dir ()) jobs
    in
    let repaired, _ =
      Pool.run ~workers:n ~make_engine:(make_engine ~dir ()) jobs
    in
    ( Stats.canonical_lines faulted,
      Stats.canonical_lines repaired,
      snapshot dir,
      dir )
  in
  let f1, r1, s1, d1 = run_at 1 in
  check "faulted baseline stored something" true (s1 <> []);
  List.iter
    (fun n ->
      let fn, rn, sn, dn = run_at n in
      check_str
        (Printf.sprintf "workers=%d: faulted-pass canonical stats" n)
        f1 fn;
      check_str
        (Printf.sprintf "workers=%d: repair-pass canonical stats" n)
        r1 rn;
      check
        (Printf.sprintf "workers=%d: disk tier after repair pass" n)
        true (sn = s1);
      rm_rf dn)
    [ 2; 4 ];
  rm_rf d1

(* a simulated crash in any worker must surface as Blob_io.Crashed in
   the parent — never as a silent partial batch — and still name the
   file op the plan killed, which crossed the worker pipe in a frame *)
let crash_propagates () =
  let jobs = corpus () in
  let plan = plan_of_string "crash@3" in
  List.iter
    (fun n ->
      with_dir (Printf.sprintf "c%d" n) @@ fun dir ->
      let crashed =
        try
          ignore
            (Pool.run ~workers:n ~make_engine:(make_engine ~plan ~dir ()) jobs);
          None
        with Blob_io.Crashed p -> Some p
      in
      match crashed with
      | None -> Alcotest.failf "workers=%d: Crashed not re-raised" n
      | Some p ->
          check
            (Printf.sprintf "workers=%d: the crash names a path under %s (got %S)"
               n dir p)
            true
            (String.length p > String.length dir
            && String.sub p 0 (String.length dir) = dir))
    [ 1; 4 ]

(* an engine that cannot be built (a cache directory that cannot be
   made, say) must reach the parent as a Failure naming the cause —
   never as a worker that exited without a word *)
let make_engine_failure_reported () =
  let jobs = corpus () in
  let msg = "engine construction refused by the test" in
  let make_engine _ = failwith msg in
  let fails_with_msg name run =
    match run () with
    | () -> Alcotest.failf "%s: returned although no engine could be built" name
    | exception Failure e ->
        check
          (Printf.sprintf "%s: the failure names the cause (got %S)" name e)
          true
          (contains e msg)
  in
  fails_with_msg "run_stream" (fun () ->
      ignore
        (Pool.run_stream ~workers:2 ~make_engine (fun feed ->
             List.iter feed jobs)));
  fails_with_msg "run" (fun () ->
      ignore (Pool.run ~workers:2 ~make_engine jobs))

(* a worker killed outright (no exception, no last word) must fail the
   run with "died before reporting" — without hanging on its pipes and
   without leaving a child unreaped *)
let silent_death_reported () =
  let jobs = corpus () in
  let make_engine _ =
    Unix.kill (Unix.getpid ()) Sys.sigkill;
    Alcotest.fail "survived SIGKILL"
  in
  let no_children () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false
  in
  let dies name run =
    (match run () with
    | () -> Alcotest.failf "%s: returned although every worker was killed" name
    | exception Failure e ->
        check
          (Printf.sprintf "%s: the failure says why (got %S)" name e)
          true
          (contains e "died before reporting"));
    check (name ^ ": every worker reaped") true (no_children ())
  in
  dies "run_stream" (fun () ->
      ignore
        (Pool.run_stream ~workers:2 ~make_engine (fun feed ->
             List.iter feed jobs)));
  dies "run" (fun () -> ignore (Pool.run ~workers:2 ~make_engine jobs))

(* the interrupt-path sweep must only touch spool files it owns (this
   pid) or whose owner is dead — a live daemon sharing the cache dir
   keeps its in-flight .tmp files *)
let sweep_is_pid_aware () =
  with_dir "sweep" @@ fun dir ->
  let touch f = close_out (open_out (Filename.concat dir f)) in
  (* a pid that is certainly dead: fork a child that exits, reap it *)
  let dead_pid =
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        pid
  in
  touch (Printf.sprintf "a.cert.%d.tmp" (Unix.getpid ())); (* ours *)
  touch (Printf.sprintf "b.cert.%d.tmp" dead_pid); (* dead owner *)
  touch (Printf.sprintf "c.cert.%d.tmp" 1); (* pid 1: alive, not ours *)
  touch "d.cert.tmp"; (* no owner pid parseable: left alone *)
  touch "e.cert"; (* not a tmp file at all *)
  check_int "swept own + dead-owner files only" 2
    (fst (Store.sweep_tmp_files dir));
  let left = Sys.readdir dir |> Array.to_list |> List.sort compare in
  check "live-owner, unparseable, and real records survive" true
    (left = [ Printf.sprintf "c.cert.%d.tmp" 1; "d.cert.tmp"; "e.cert" ])

(* every Pool worker creates its own store after fork, so a late
   worker's start-up sweep runs while siblings are mid-write: it must
   leave a live sibling's spool file alone, or the sibling's rename
   fails and its record is silently lost *)
let store_create_keeps_live_sibling_tmp () =
  with_dir "create-sweep" @@ fun dir ->
  let touch f = close_out (open_out (Filename.concat dir f)) in
  let rd, wr = Unix.pipe () in
  let sibling =
    match Unix.fork () with
    | 0 ->
        (* stays alive until the parent closes its end of the pipe *)
        Unix.close wr;
        (try ignore (Unix.read rd (Bytes.create 1) 0 1)
         with Unix.Unix_error _ -> ());
        Unix._exit 0
    | pid ->
        Unix.close rd;
        pid
  in
  let live = Printf.sprintf "a.cert.%d.tmp" sibling in
  let own = Printf.sprintf "b.cert.%d.tmp" (Unix.getpid ()) in
  touch live;
  touch own;
  touch "c.cert.tmp";
  let st = Store.create ~cap:4 ~dir () in
  Unix.close wr;
  ignore (Unix.waitpid [] sibling);
  check_int "own and pid-less spool files swept" 2
    (Store.stats st).Store.orphans_swept;
  check "the live sibling's spool file survives" true
    (Sys.file_exists (Filename.concat dir live));
  check "debris gone" false
    (Sys.file_exists (Filename.concat dir own)
    || Sys.file_exists (Filename.concat dir "c.cert.tmp"))

let () =
  Alcotest.run "lcp-pool"
    [
      ( "pool",
        [
          test "shard assignment: stable, total, non-degenerate"
            shard_assignment;
          test "workers=1 == sequential engine" pool1_matches_sequential;
          test "workers in {2,3,4}: canonical stats and store match workers=1"
            jobs1_vs_jobs4;
          test "fault plan armed per worker: verdicts and repaired store match"
            jobs1_vs_jobs4_under_faults;
          test "crash in a worker kills the batch" crash_propagates;
          test "an engine that cannot be built fails the run with its cause"
            make_engine_failure_reported;
          test "a worker killed without a word fails the run"
            silent_death_reported;
          test "interrupt sweep is pid-aware" sweep_is_pid_aware;
          test "store start-up sweep keeps a live sibling's spool file"
            store_create_keeps_live_sibling_tmp;
        ] );
    ]
