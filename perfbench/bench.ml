(* The benchmark's entry point:

     bench.exe --workload W --seed N --seconds S --trace 0|1 --server EXE

   runs one workload (fresh_pw2, warm_pw2, daemon_zipf, delta_pw) and
   prints a human-readable report followed, as the last line, by one
   JSON object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the
   per-layer ones of the traced replay (see perfbench/README.md). The
   exit code is 0 only when every job's verdict and every sampled bundle
   checked out. *)

open Common

let workloads = [ "fresh_pw2"; "warm_pw2"; "daemon_zipf"; "delta_pw" ]

type metric = Trace.metric = { name : string; value : float; unit_ : string }

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name
              m.value m.unit_)
          metrics))

(* Times are scaled by the run's host speed factor (see [Common]), set-up
   times by the slices taken around each set-up; the report line gives
   each raw figure beside it. *)
let end_to_end (r : Workloads.result) =
  let n = Array.length r.lat_ms in
  let f = speed_factor () in
  let ok = r.attempted - List.length r.failures in
  let time name raw unit_ note =
    ( { name; value = raw *. f; unit_ },
      Printf.sprintf "raw %.4g, %s" raw note )
  in
  let pct q = percentile q r.lat_ms in
  let rate = float r.attempted /. r.timed_s in
  [
    ( {
        name = "setup_s";
        value =
          median
            (Array.map2 (fun t c -> t *. calib_ref_ms /. c) r.setups_s
               r.setup_calib_ms);
        unit_ = "s";
      },
      Printf.sprintf "raw %.4g, median of %d set-ups, each scaled by its own slices: %s"
        (median r.setups_s) (Array.length r.setups_s)
        (String.concat " "
           (Array.to_list
              (Array.map2 (Printf.sprintf "%.3f@%.2fms") r.setups_s r.setup_calib_ms))) );
    ( { name = "jobs_per_s"; value = rate /. f; unit_ = "1/s" },
      Printf.sprintf "raw %.4g, %d jobs in %.3f s" rate r.attempted r.timed_s );
    time "job_ms_p50" (pct 0.5) "ms" (Printf.sprintf "n=%d" n);
    time "job_ms_p90" (pct 0.9) "ms" (Printf.sprintf "n=%d" n);
    time "job_ms_p99" (pct 0.99) "ms"
      (Printf.sprintf "n=%d, %d beyond" n (n - int_of_float (ceil (0.99 *. float n))));
    ( { name = "alloc_kw_per_job"; value = r.alloc_kw; unit_ = "kw" },
      "reference sample" );
    ( { name = "label_bits_mean"; value = r.label_bits; unit_ = "bits" },
      "reference sample" );
    ( { name = "bundle_bits_mean"; value = r.bundle_bits; unit_ = "bits" },
      "reference sample" );
    ({ name = "peak_rss_mb"; value = r.rss_mb; unit_ = "MB" }, "VmHWM");
    ( {
        name = "ok_frac";
        value = float ok /. float (max 1 r.attempted);
        unit_ = "ratio";
      },
      Printf.sprintf "%d of %d" ok r.attempted );
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 --server EXE";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and server = ref "" in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := Option.value ~default:0 (int_of_string_opt s);
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := Option.value ~default:10.0 (float_of_string_opt s);
        parse rest
    | "--trace" :: t :: rest ->
        trace := Option.value ~default:0 (int_of_string_opt t);
        parse rest
    | "--server" :: e :: rest ->
        server := e;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let r =
    match !workload with
    | "fresh_pw2" -> Workloads.fresh_pw2 ~seed ~seconds
    | "warm_pw2" -> Workloads.warm_pw2 ~seed ~seconds
    | "delta_pw" -> Workloads.delta_pw ~seed ~seconds
    | _ -> Daemon.daemon_zipf ~probe:traced ~exe:!server ~seed ~seconds ()
  in
  let trace_failures = ref [] in
  let metrics =
    if not traced then end_to_end r
    else
      let exe = !server in
      let t, layers, failures =
        match !workload with
        | "fresh_pw2" -> Trace.fresh_pw2 ~seed ~exe
        | "warm_pw2" -> Trace.warm_pw2 ~seed ~exe
        | "delta_pw" -> Trace.delta_pw ~seed ~exe
        | _ -> Trace.daemon_zipf ~seed ~server:r.server
      in
      trace_failures := failures;
      List.map
        (fun m -> (m, ""))
        (layers @ Trace.summary t ~untraced_ms:r.untraced_ms)
  in
  let failures = r.failures @ !trace_failures in
  Printf.printf "workload %s, seed %d, %.0f s timed%s\n" !workload seed seconds
    (if traced then ", traced replay" else "");
  Printf.printf
    "  host: calibration slice %.4f ms CPU, %.4f ms wall (medians of %d), times scaled by %.4f\n"
    (calib_ms ()) (median (Array.of_list !calib_wall_samples))
    (List.length !calib_samples) (speed_factor ());
  List.iter
    (fun (m, note) ->
      Printf.printf "  %-26s %14.4f %-6s %s\n" m.name m.value m.unit_ note)
    metrics;
  List.iter (Printf.printf "  %s\n") r.notes;
  List.iter (Printf.printf "  NOT OK: %s\n") failures;
  let correct = failures = [] in
  print_endline
    (json_line ~correct ~attempted:r.attempted
       ~failed:(List.length failures) (List.map fst metrics));
  exit (if correct then 0 else 1)
