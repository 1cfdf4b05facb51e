(** The batch certification engine: materialize a job's graph, consult
    the content-addressed store, and run prove -> encode -> verify,
    timing each stage.

    Cache discipline (the soundness contract): a hit returns {e bytes}.
    The engine decodes them and runs the full local verifier on the
    decoded labeling under the requesting job's configuration before
    serving; if verification rejects (corrupt entry, stale bundle, or an
    id assignment the certificate was not proved for), the entry is
    dropped and the job falls through to the fresh prover path. A miss
    runs the prover, locally verifies the fresh bundle, and only then
    stores and serves it. The cache can therefore change {e latency} but
    never {e judgements}.

    Availability discipline (the robustness contract): [run_job] is
    total. Bad inputs are [Input_error]s, disk faults are absorbed
    inside the store (which degrades to memory-only under persistent
    failure — such jobs report [Served_degraded]), and any exception a
    job attempt raises is retried under a bounded, deterministic
    backoff policy with a per-job deadline budget; a job that exhausts
    its budget ends as [Failed], never as an escaped exception that
    would abort the batch. The one deliberate exception is
    [Blob_io.Crashed] — a simulated process death must kill the batch,
    that is its meaning. *)

module Graph = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module Rep = Lcp_interval.Representation
module PW = Lcp_interval.Pathwidth
module Config = Lcp_pls.Config
module Scheme = Lcp_pls.Scheme
module EM = Scheme.Edge_map
module Bitenc = Lcp_util.Bitenc

type retry_policy = {
  max_retries : int;  (** attempts beyond the first (0 = fail fast) *)
  backoff_ms : float;  (** base delay; attempt [i] waits [backoff_ms * 2^i] *)
  deadline_ms : float;  (** per-job budget: no retry is scheduled past it *)
}

let default_retry =
  { max_retries = 2; backoff_ms = 1.0; deadline_ms = Float.infinity }

(* deterministic backoff schedule: 1x, 2x, 4x, ... of the base delay *)
let backoff_delay policy attempt =
  policy.backoff_ms *. Float.of_int (1 lsl attempt)

type t = {
  store : Cert_store.t;
  base_dir : string;  (** file= paths in manifests resolve against this *)
  retry : retry_policy;
  timing : Timing.t option;
      (** when present, every pipeline stage records its duration here *)
}

let create ?(cache_cap = 4096) ?cache_dir ?(cache_disk_cap = 0)
    ?(degrade_after = 3) ?write_batch ?filter_bits ?io ?(retry = default_retry)
    ?(base_dir = ".") ?timing () =
  {
    store =
      Cert_store.create ~cap:cache_cap ?dir:cache_dir ~disk_cap:cache_disk_cap
        ~degrade_after ?write_batch ?filter_bits ?io ();
    base_dir;
    retry;
    timing;
  }

let store t = t.store

(* Commit any records still pooled in the store's group-commit dirty
   set. Runners call this at batch/stream boundaries and on worker
   exit; with the default [write_batch = 1] it is a no-op. *)
let flush t = Cert_store.flush t.store

let retry t = t.retry

let base_dir t = t.base_dir

let now_ms () = Unix.gettimeofday () *. 1000.0

(** Run [f attempt] until it returns, retrying on any exception except
    [Blob_io.Crashed] (simulated process death must propagate). Retries
    follow the deterministic doubling backoff and stop when either
    [max_retries] attempts beyond the first are spent or the next delay
    would overrun the [deadline_ms] budget. Returns [Ok (v, retries)] or
    [Error (message, retries)] — never raises (modulo [Crashed]). *)
let with_retries ~retry ~now f =
  let start = now () in
  let rec go attempt =
    match f attempt with
    | v -> Ok (v, attempt)
    | exception Blob_io.Crashed p -> raise (Blob_io.Crashed p)
    | exception e ->
        let elapsed = now () -. start in
        let delay = backoff_delay retry attempt in
        if attempt >= retry.max_retries then
          Error
            ( Printf.sprintf "gave up after %d attempt(s): %s" (attempt + 1)
                (Printexc.to_string e),
              attempt )
        else if elapsed +. delay > retry.deadline_ms then
          Error
            ( Printf.sprintf
                "deadline budget exhausted after %d attempt(s) (%.1f of %.1f \
                 ms): %s"
                (attempt + 1) elapsed retry.deadline_ms (Printexc.to_string e),
              attempt )
        else begin
          if delay > 0.0 then Unix.sleepf (delay /. 1000.0);
          go (attempt + 1)
        end
  in
  go 0

let known_families =
  [ "path"; "cycle"; "caterpillar"; "ladder"; "star"; "tree"; "random" ]

let graph_of_source ~base_dir ~k source =
  match source with
  | Manifest.File f ->
      let path = if Filename.is_relative f then Filename.concat base_dir f else f in
      Graph_io.load_file path
  | Manifest.Generated { family; n; gen_seed } -> (
      if not (List.mem family known_families) then
        Error
          (Printf.sprintf "unknown generator family %S (known: %s)" family
             (String.concat ", " known_families))
        (* every family requires n >= 1 — a zero or negative n must fail
           here as an input error, not reach a generator's Bytes.create *)
      else if n < 1 then
        Error (Printf.sprintf "gen=%s needs n >= 1 (got n=%d)" family n)
      else
        let rng = Random.State.make [| gen_seed |] in
        match family with
        | "path" -> Ok (Gen.path n)
        | "cycle" when n >= 3 -> Ok (Gen.cycle n)
        | "cycle" -> Error (Printf.sprintf "gen=cycle needs n >= 3 (got n=%d)" n)
        | "caterpillar" -> Ok (Gen.caterpillar ~spine:(max 1 (n / 3)) ~legs:2)
        | "ladder" -> Ok (Gen.ladder (max 2 (n / 2)))
        | "star" -> Ok (Gen.star (max 1 (n - 1)))
        | "tree" -> Ok (Gen.random_tree rng n)
        | "random" -> Ok (fst (Gen.random_pathwidth rng ~n ~k ()))
        | _ -> assert false)

(** The representation policy: the exact search on graphs of at most 20
    vertices, the greedy heuristic above. Engine jobs and the fresh
    representations of delta sessions both draw from it, so a session
    step is byte-comparable with an engine job on the same graph. *)
let fresh_rep g =
  if Graph.n g <= 20 then PW.exact_interval_representation g
  else PW.heuristic_interval_representation g

let default_rep c = Some (fresh_rep (Config.graph c))

(** [job]'s report with no work recorded yet, on a graph of [n]
    vertices and [m] edges: [r_total_ms] is the time since [t0]. *)
let blank_report (job : Manifest.job) ~n ~m ~t0 status =
  {
    Stats.r_id = job.job_id;
    r_property = job.property;
    r_k = job.k;
    r_n = n;
    r_m = m;
    r_status = status;
    r_cache_hit = false;
    r_prove_ms = 0.0;
    r_verify_ms = 0.0;
    r_total_ms = now_ms () -. t0;
    r_label_bits = 0;
    r_bundle_bits = 0;
    r_reject_reasons = [];
    r_retries = 0;
  }

let classify rs =
  List.sort_uniq compare
    (List.map (fun (_, reason) -> Lcp_cert.Reject_reason.classify reason) rs)

let verify_labels t cfg scheme labels =
  let tv = now_ms () in
  let outcome =
    Timing.time t.timing Timing.Verify (fun () ->
        Scheme.run_edge cfg scheme labels)
  in
  (outcome, now_ms () -. tv)

(** What a job served: its labeling and bundle, or nothing. *)
type 'l served = Unserved | Served of 'l EM.t * Bundle.t

(** The job pipeline from the store probe on, and the one place where
    a job's steps are ordered: probe the store for [key]; on a hit,
    [decode] the bundle, verify the labeling in full under [cfg] and
    serve it; on a miss or a rejected hit (whose entry is dropped),
    prove with [scheme], encode, verify in full, and only then store
    and serve. Returns [job]'s report, on the graph of [cfg], and what
    it served. Engine jobs and delta-session steps both run it, and
    differ only in [scheme]'s representation and in [decode]. *)
let certify t ~(job : Manifest.job) ~t0 ~cfg ~key
    (scheme : 'l Scheme.edge_scheme)
    ~(decode : Bundle.t -> ('l EM.t, string) result) :
    Stats.job_report * 'l served =
  let g = Config.graph cfg in
  let n = Graph.n g and m = Graph.m g in
  (* 1. cache tier: decode + re-verify before serving *)
  let cached =
    match
      Timing.time t.timing Timing.Store (fun () -> Cert_store.find t.store key)
    with
    | None -> None
    | Some entry -> (
        match decode entry.Cert_store.e_bundle with
        | Error e ->
            Cert_store.remove t.store key;
            Some (Error [ "bundle: " ^ e ])
        | Ok labels -> (
            match verify_labels t cfg scheme labels with
            | Scheme.Accepted, verify_ms -> Some (Ok (entry, labels, verify_ms))
            | Scheme.Rejected rs, _ ->
                Cert_store.remove t.store key;
                Some (Error (classify rs))))
  in
  match cached with
  | Some (Ok (entry, labels, verify_ms)) ->
      ( {
          (blank_report job ~n ~m ~t0 Stats.Served_cached) with
          r_cache_hit = true;
          r_verify_ms = verify_ms;
          r_label_bits = entry.Cert_store.e_label_bits;
          r_bundle_bits = Bundle.size_bits entry.Cert_store.e_bundle;
        },
        Served (labels, entry.Cert_store.e_bundle) )
  | (None | Some (Error _)) as cache_outcome -> (
      let reject_reasons =
        match cache_outcome with Some (Error rs) -> rs | _ -> []
      in
      (* 2. fresh path: prove, encode, verify, store *)
      let tp = now_ms () in
      match
        Timing.time t.timing Timing.Prove (fun () -> scheme.Scheme.es_prove cfg)
      with
      | None ->
          ( {
              (blank_report job ~n ~m ~t0 Stats.Declined) with
              r_prove_ms = now_ms () -. tp;
              r_reject_reasons = reject_reasons;
            },
            Unserved )
      | Some labels -> (
          let prove_ms = now_ms () -. tp in
          match
            Timing.time t.timing Timing.Encode (fun () ->
                Bundle.encode_sized ~encode_label:scheme.Scheme.es_encode g
                  labels)
          with
          | Error e ->
              ( { (blank_report job ~n ~m ~t0 (Stats.Unsound e)) with
                  r_prove_ms = prove_ms },
                Unserved )
          | Ok (bundle, label_bits) -> (
              match verify_labels t cfg scheme labels with
              | Scheme.Rejected rs, verify_ms ->
                  ( {
                      (blank_report job ~n ~m ~t0
                         (Stats.Unsound
                            (Printf.sprintf "fresh bundle rejected locally: %s"
                               (String.concat ", " (classify rs)))))
                      with
                      r_prove_ms = prove_ms;
                      r_verify_ms = verify_ms;
                      r_reject_reasons = reject_reasons;
                    },
                    Unserved )
              | Scheme.Accepted, verify_ms ->
                  Timing.time t.timing Timing.Store (fun () ->
                      Cert_store.add t.store
                        {
                          Cert_store.e_key = key;
                          e_bundle = bundle;
                          e_label_bits = label_bits;
                        });
                  ( {
                      (blank_report job ~n ~m ~t0 Stats.Served_fresh) with
                      r_prove_ms = prove_ms;
                      r_verify_ms = verify_ms;
                      r_label_bits = label_bits;
                      r_bundle_bits = Bundle.size_bits bundle;
                      r_reject_reasons = reject_reasons;
                    },
                    Served (labels, bundle) ))))

let run_once t (job : Manifest.job) : Stats.job_report =
  let t0 = now_ms () in
  match
    Timing.time t.timing Timing.Parse (fun () ->
        graph_of_source ~base_dir:t.base_dir ~k:job.k job.source)
  with
  | Error e -> blank_report job ~n:0 ~m:0 ~t0 (Stats.Input_error e)
  | Ok g -> (
      match Registry.find job.property with
      | None ->
          blank_report job ~n:(Graph.n g) ~m:(Graph.m g) ~t0
            (Stats.Input_error
               (Printf.sprintf "unknown property %S; catalogue: %s"
                  job.property
                  (String.concat ", " (Registry.names ()))))
      | Some (module P) ->
          let module T1 = Lcp_cert.Theorem1.Make (P.A) in
          let cfg = Config.random_ids (Random.State.make [| job.seed |]) g in
          let key = Cert_store.key ~property:job.property ~k:job.k g in
          (* one sharing decoder per bundle decoded *)
          let decode bundle =
            Bundle.decode
              ~decode_label:
                (Lcp_cert.Certificate.decode ~decode_state:P.decode_state)
              g bundle
          in
          fst
            (certify t ~job ~t0 ~cfg ~key
               (T1.edge_scheme ~rep:default_rep ~k:job.k ())
               ~decode))

(** The total, retrying wrapper every job runs under, engine jobs and
    delta steps alike: [attempt i] runs attempt [i] (from 0) and reruns
    whole on any exception but
    [Blob_io.Crashed], so it must be effect-free until it returns (a
    delta step commits its session state exactly when it produces a
    report). A job that exhausts its budget ends as [Failed], paired
    with [fallback]; a success under a demoted (memory-only) store
    reports [Served_degraded]. [?retry] overrides the engine's policy
    for this one job: the daemon uses it to honor a per-job deadline
    carried in the request without rebuilding its long-lived,
    cache-warm engine. *)
let retrying ?retry:retry_override t ~(job : Manifest.job) ~fallback attempt =
  let t0 = now_ms () in
  let retry = Option.value retry_override ~default:t.retry in
  match with_retries ~retry ~now:now_ms attempt with
  | Ok ((report, x), retries) ->
      let report =
        { report with Stats.r_retries = retries; r_total_ms = now_ms () -. t0 }
      in
      (* a success under a demoted store is still a success, but the
         operator must see it in the status *)
      if
        Cert_store.degraded t.store
        &&
        match report.Stats.r_status with
        | Stats.Served_fresh | Stats.Served_cached -> true
        | _ -> false
      then ({ report with Stats.r_status = Stats.Served_degraded }, x)
      else (report, x)
  | Error (msg, retries) ->
      ( {
          (blank_report job ~n:0 ~m:0 ~t0 (Stats.Failed msg))
          with
          Stats.r_retries = retries;
        },
        fallback )

let run_job ?retry t (job : Manifest.job) : Stats.job_report =
  fst (retrying ?retry t ~job ~fallback:() (fun _ -> (run_once t job, ())))

(* The counters a run reports besides the verifier memos': the
   negative-lookup filter and group-commit traffic, so the certd footer
   and --server-stats can show disk probes saved/paid, and the GC minor
   allocation count. All are cumulative totals of this process. *)
let process_counters t =
  let s = Cert_store.stats t.store in
  [
    ("filter_hit", s.Cert_store.filter_hits);
    ("filter_skip", s.Cert_store.filter_skips);
    ("filter_fp", s.Cert_store.filter_fps);
    ("store_flush", s.Cert_store.flushes);
    ("minor_words", int_of_float (Gc.minor_words ()));
  ]

(* Copy the process-global verifier-memo counters and
   [process_counters] into the timing sink, where they render next to
   the histogram. Counters are cumulative totals, so [set_counter]
   (overwrite) keeps one snapshot per run. *)
let snapshot_counters t =
  match t.timing with
  | None -> ()
  | Some timing ->
      List.iter
        (fun (name, v) -> Timing.set_counter timing name v)
        (Lcp_cert.Memo.counters () @ process_counters t)

(* Reports are emitted and returned in canonical order (sorted by job
   id), not arrival order, so the JSONL stream of a sequential run is
   byte-comparable with any sharded run of the same manifest. *)
let run_jobs ?(emit = fun (_ : Stats.job_report) -> ()) t jobs =
  let reports = Stats.sort_reports (List.map (run_job t) jobs) in
  List.iter emit reports;
  flush t;
  snapshot_counters t;
  (reports, Stats.summarize reports)
