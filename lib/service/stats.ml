(** Per-job reports and aggregate throughput accounting for the batch
    driver, including a hand-rolled JSON-lines emitter (one object per
    job — easy to stream, easy to grep). *)

type status =
  | Served_fresh  (** proved, locally verified, stored, served *)
  | Served_cached
      (** cache hit; decoded bundle re-verified, or accepted before by
          this process under the same ids, then served *)
  | Served_degraded
      (** served (fresh or cached) while the certificate store was
          demoted to memory-only by persistent disk faults *)
  | Declined  (** the prover declined: the property does not hold *)
  | Input_error of string  (** bad graph file / unknown property / bad job *)
  | Unsound of string
      (** a freshly proved bundle failed local verification — a pipeline
          bug; never served *)
  | Failed of string
      (** the job kept raising through every retry (or blew its
          deadline budget); terminal, nothing served *)

let status_name = function
  | Served_fresh -> "served_fresh"
  | Served_cached -> "served_cached"
  | Served_degraded -> "served_degraded"
  | Declined -> "declined"
  | Input_error _ -> "input_error"
  | Unsound _ -> "unsound"
  | Failed _ -> "failed"

(** Statuses that make a batch (or a connected client) exit nonzero:
    the job reached a terminal state with nothing sound served and the
    workload itself was not at fault the way a [Declined] is. *)
let is_failure = function
  | Input_error _ | Unsound _ | Failed _ -> true
  | Served_fresh | Served_cached | Served_degraded | Declined -> false

type job_report = {
  r_id : string;
  r_property : string;
  r_k : int;
  r_n : int;
  r_m : int;
  r_status : status;
  r_cache_hit : bool;
  r_prove_ms : float;
  r_verify_ms : float;
  mutable r_total_ms : float;
      (** the whole job; [Engine.retrying] sets it, retries included *)
  r_label_bits : int;  (** max bits of one edge label; 0 if none served *)
  r_bundle_bits : int;  (** whole-bundle size; 0 if none served *)
  r_reject_reasons : string list;
      (** classified reasons when a cached bundle was rejected on
          re-verification (the entry is dropped and recomputed) *)
  mutable r_retries : int;
      (** attempts beyond the first that the retry policy spent on
          transient faults before this terminal status *)
}

(* ---------------------------------------------------------------- *)
(* JSON lines                                                        *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json r =
  let field_s k v = Printf.sprintf "\"%s\":\"%s\"" k (json_escape v) in
  let field_i k v = Printf.sprintf "\"%s\":%d" k v in
  let field_f k v = Printf.sprintf "\"%s\":%.3f" k v in
  let field_b k v = Printf.sprintf "\"%s\":%b" k v in
  let detail =
    match r.r_status with
    | Input_error e | Unsound e | Failed e -> [ field_s "error" e ]
    | _ -> []
  in
  let rejects =
    match r.r_reject_reasons with
    | [] -> []
    | rs ->
        [
          Printf.sprintf "\"cache_rejects\":[%s]"
            (String.concat ","
               (List.map (fun s -> "\"" ^ json_escape s ^ "\"") rs));
        ]
  in
  "{"
  ^ String.concat ","
      ([
         field_s "id" r.r_id;
         field_s "property" r.r_property;
         field_i "k" r.r_k;
         field_i "n" r.r_n;
         field_i "m" r.r_m;
         field_s "status" (status_name r.r_status);
         field_b "cache_hit" r.r_cache_hit;
         field_f "prove_ms" r.r_prove_ms;
         field_f "verify_ms" r.r_verify_ms;
         field_f "total_ms" r.r_total_ms;
         field_i "label_bits" r.r_label_bits;
         field_i "bundle_bits" r.r_bundle_bits;
         field_i "retries" r.r_retries;
       ]
      @ detail @ rejects)
  ^ "}"

(* ---------------------------------------------------------------- *)
(* canonical ordering and canonical (run-invariant) projection        *)

(* Reports sort by job id before they are emitted or returned, so the
   JSONL stream is a pure function of the workload — not of arrival
   order, and in particular not of how a parallel run sharded the
   manifest. Stable, so duplicate ids keep their relative order. *)
let sort_reports reports =
  List.stable_sort (fun a b -> compare a.r_id b.r_id) reports

(** The run-invariant projection of a report: what must be byte-for-byte
    identical between a sequential run and any sharded run of the same
    manifest. Volatile fields are normalized away:

    - timings and retry counts vary per run;
    - [cache_hit] and fresh-vs-cached-vs-degraded status depend on which
      worker reached a shared key first, so all three serving statuses
      collapse to ["served"];
    - cache re-verification rejects depend on interleaving.

    Everything the service {e decided} — verdict, sizes, input errors —
    stays, so two runs with equal canonical lines produced the same
    judgements. *)
let to_canonical_json r =
  let field_s k v = Printf.sprintf "\"%s\":\"%s\"" k (json_escape v) in
  let field_i k v = Printf.sprintf "\"%s\":%d" k v in
  let verdict =
    match r.r_status with
    | Served_fresh | Served_cached | Served_degraded -> "served"
    | Declined -> "declined"
    | Input_error _ -> "input_error"
    | Unsound _ -> "unsound"
    | Failed _ -> "failed"
  in
  let detail =
    (* input errors are deterministic parser/registry messages; failure
       and unsoundness messages embed attempt counts and timings *)
    match r.r_status with
    | Input_error e -> [ field_s "error" e ]
    | _ -> []
  in
  "{"
  ^ String.concat ","
      ([
         field_s "id" r.r_id;
         field_s "property" r.r_property;
         field_i "k" r.r_k;
         field_i "n" r.r_n;
         field_i "m" r.r_m;
         field_s "verdict" verdict;
         field_i "label_bits" r.r_label_bits;
         field_i "bundle_bits" r.r_bundle_bits;
       ]
      @ detail)
  ^ "}"

let canonical_lines reports =
  String.concat "\n" (List.map to_canonical_json (sort_reports reports))

(* ---------------------------------------------------------------- *)
(* aggregates                                                        *)

type summary = {
  s_jobs : int;
  s_served : int;  (** fresh + cached + degraded *)
  s_fresh : int;
  s_cached : int;
  s_degraded : int;  (** served while the store was memory-only *)
  s_declined : int;
  s_errors : int;
  s_unsound : int;
  s_failed : int;  (** retries/deadline exhausted; nothing served *)
  s_total_ms : float;
  s_prove_ms : float;
  s_verify_ms : float;
  s_jobs_per_sec : float;
  s_hit_rate : float;  (** cache hits / served jobs *)
  s_max_label_bits : int;
  s_cache_rejects : int;
  s_retries : int;  (** total retry attempts across all jobs *)
}

let summary_zero =
  {
    s_jobs = 0;
    s_served = 0;
    s_fresh = 0;
    s_cached = 0;
    s_degraded = 0;
    s_declined = 0;
    s_errors = 0;
    s_unsound = 0;
    s_failed = 0;
    s_total_ms = 0.0;
    s_prove_ms = 0.0;
    s_verify_ms = 0.0;
    s_jobs_per_sec = 0.0;
    s_hit_rate = 0.0;
    s_max_label_bits = 0;
    s_cache_rejects = 0;
    s_retries = 0;
  }

(* Fold one report into a running summary. The streaming runners use
   this so a million-job pass never holds a report list; [summarize]
   is the same fold, so batch and stream share one definition of the
   aggregate semantics. The two derived rates are recomputed from the
   running totals each step; the cache-hit count is recovered exactly
   from the previous rate (it was hits/served with both far below
   2^53, so round-tripping through the float is lossless). *)
let summary_add s r =
  let served_status =
    match r.r_status with
    | Served_fresh | Served_cached | Served_degraded -> true
    | Declined | Input_error _ | Unsound _ | Failed _ -> false
  in
  let hits =
    int_of_float (Float.round (s.s_hit_rate *. float_of_int s.s_served))
    + if r.r_cache_hit && served_status then 1 else 0
  in
  let bump status n = if r.r_status = status then n + 1 else n in
  let fresh = bump Served_fresh s.s_fresh in
  let cached = bump Served_cached s.s_cached in
  let degraded = bump Served_degraded s.s_degraded in
  let served = fresh + cached + degraded in
  let jobs = s.s_jobs + 1 in
  let total_ms = s.s_total_ms +. r.r_total_ms in
  {
    s_jobs = jobs;
    s_served = served;
    s_fresh = fresh;
    s_cached = cached;
    s_degraded = degraded;
    s_declined = bump Declined s.s_declined;
    s_errors =
      (s.s_errors
      + match r.r_status with Input_error _ -> 1 | _ -> 0);
    s_unsound =
      (s.s_unsound + match r.r_status with Unsound _ -> 1 | _ -> 0);
    s_failed = (s.s_failed + match r.r_status with Failed _ -> 1 | _ -> 0);
    s_total_ms = total_ms;
    s_prove_ms = s.s_prove_ms +. r.r_prove_ms;
    s_verify_ms = s.s_verify_ms +. r.r_verify_ms;
    s_jobs_per_sec =
      (if total_ms > 0.0 then 1000.0 *. float_of_int jobs /. total_ms
       else 0.0);
    s_hit_rate =
      (if served > 0 then float_of_int hits /. float_of_int served else 0.0);
    s_max_label_bits = max s.s_max_label_bits r.r_label_bits;
    s_cache_rejects = s.s_cache_rejects + List.length r.r_reject_reasons;
    s_retries = s.s_retries + r.r_retries;
  }

let summarize reports = List.fold_left summary_add summary_zero reports

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>jobs: %d (served %d = %d fresh + %d cached + %d degraded; %d \
     declined, %d input errors, %d unsound, %d failed)@,\
     time: %.1f ms total (%.1f prove + %.1f verify) -> %.1f jobs/sec@,\
     cache: hit rate %.1f%% over served jobs, %d re-verification \
     rejects; %d transient-fault retries@,\
     labels: max %d bits per edge label@]"
    s.s_jobs s.s_served s.s_fresh s.s_cached s.s_degraded s.s_declined
    s.s_errors s.s_unsound s.s_failed s.s_total_ms s.s_prove_ms s.s_verify_ms
    s.s_jobs_per_sec
    (100.0 *. s.s_hit_rate)
    s.s_cache_rejects s.s_retries s.s_max_label_bits
