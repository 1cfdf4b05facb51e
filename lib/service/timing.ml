(** Per-stage timing for the certification pipeline: every engine stage
    (parse, prove, encode, verify, store) records its duration, on the
    monotonic clock, into a fixed-size histogram, rendered as a footer
    (count, total, p50/p90/p99, max per stage) and as the daemon's
    stats JSON.

    The sink has one shape and is always on. A stage keeps an exact
    count, total (integer nanoseconds), min and max, and log-linear
    buckets, 16 per power of two from 2^9 to 2^40 ns (about 2^-11 to
    2^20 ms; a sample outside lands in an end bucket), so a percentile
    in range is within 1/32 of the exact value. [record_ns], which
    [time] calls, allocates nothing, and the sink never grows. A worker
    ships each stage's buckets between its min's and its max's with
    [flush] and the parent adds them with [absorb], a bucket-wise sum:
    a sharded run's histogram is the sequential run's, bucket for bucket.

    Besides durations the sink carries named integer {e counters}
    (verifier-memo hits/misses, store filter traffic, GC minor words);
    [absorb] merges them by summation and [pp] renders them on one
    [counters:] line after the histogram. *)

type stage = Parse | Prove | Encode | Verify | Store

let stages = [ Parse; Prove; Encode; Verify; Store ]

let stage_name = function
  | Parse -> "parse" | Prove -> "prove" | Encode -> "encode" | Verify -> "verify" | Store -> "store"

let stage_index = function
  | Parse -> 0 | Prove -> 1 | Encode -> 2 | Verify -> 3 | Store -> 4

(* log-linear buckets over integer nanoseconds: 16 per power of two,
   bucket 0 starting at 2^lo_exp ns and the last ending at 2^40 ns *)
let sub_bits = 4 and lo_exp = 9

let n_buckets = (40 - lo_exp) lsl sub_bits

let bucket_of_ns v =
  (* [e] + the index of [v]'s highest set bit, halving the step [s] *)
  let rec msb v e s =
    if s = 0 then e else if v lsr s <> 0 then msb (v lsr s) (e + s) (s / 2) else msb v e (s / 2)
  in
  if v < 1 lsl lo_exp then 0
  else
    let e = msb v 0 32 in
    Int.min (n_buckets - 1) (((e - lo_exp) lsl sub_bits) lor ((v lsr (e - sub_bits)) land 15))

(* the middle of bucket [i]: within half a bucket, 1/32, of any
   in-range sample the bucket holds *)
let bucket_mid_ns i =
  let shift = lo_exp + (i lsr sub_bits) - sub_bits in
  ((16 + (i land 15)) lsl shift) + ((1 lsl shift) / 2)

type hist = {
  mutable count : int;
  mutable total_ns : int;
  mutable min_ns : int;
  mutable max_ns : int;
  buckets : int array;
}

type t = {
  hists : hist array;  (** indexed by [stage_index] *)
  ctrs : (string, int) Hashtbl.t;
      (* named event counters (memo hits, allocation words, ...) riding
         along with the histogram; merged across workers by summation *)
}

let create () : t =
  let hist _ =
    { count = 0; total_ns = 0; min_ns = max_int; max_ns = 0; buckets = Array.make n_buckets 0 }
  in
  { hists = Array.init (List.length stages) hist; ctrs = Hashtbl.create 16 }

let record_ns (t : t) stage ns =
  let h = t.hists.(stage_index stage) and ns = Int.max 0 ns in
  h.count <- h.count + 1;
  h.total_ns <- h.total_ns + ns;
  h.min_ns <- Int.min h.min_ns ns;
  h.max_ns <- Int.max h.max_ns ns;
  let i = bucket_of_ns ns in
  h.buckets.(i) <- h.buckets.(i) + 1

(* [record_ns] for a duration in milliseconds *)
let record (t : t) stage ms =
  record_ns t stage (int_of_float (Float.round (ms *. 1e6)))

let set_counter (t : t) name v = Hashtbl.replace t.ctrs name v

let add_counter (t : t) name v =
  set_counter t name (v + Option.value ~default:0 (Hashtbl.find_opt t.ctrs name))

let unsorted_counters (t : t) = Hashtbl.fold (fun name v acc -> (name, v) :: acc) t.ctrs []

let counters (t : t) = List.sort compare (unsorted_counters t)

(** [time t stage f] runs [f ()], recording its duration under [stage]. *)
let time (t : t) stage f =
  let now () = Int64.to_int (Monotonic_clock.now ()) in
  let t0 = now () in
  let r = f () in
  record_ns t stage (now () - t0);
  r

(* ---------------------------------------------------------------- *)
(* cross-process merge                                               *)

type samples = { w_stages : (stage * hist) list; w_ctrs : (string * int) list }
(** the wire form: each recorded stage's histogram, its buckets cut to
    the window from [min_ns]'s bucket to [max_ns]'s, which holds every
    nonzero one; plus the counters *)

(* (first, length) of the buckets from [min_ns]'s to [max_ns]'s, the
   ones a recorded stage can have nonzero *)
let window h =
  let lo = bucket_of_ns h.min_ns in
  (lo, bucket_of_ns h.max_ns - lo + 1)

let samples (t : t) : samples =
  let stage s =
    let h = t.hists.(stage_index s) in
    let lo, len = window h in
    (s, { h with buckets = Array.sub h.buckets lo len })
  in
  let recorded s = t.hists.(stage_index s).count > 0 in
  { w_stages = List.map stage (List.filter recorded stages); w_ctrs = unsorted_counters t }

let absorb (t : t) (xs : samples) =
  List.iter
    (fun (s, w) ->
      let h = t.hists.(stage_index s) and lo = fst (window w) in
      h.count <- h.count + w.count;
      h.total_ns <- h.total_ns + w.total_ns;
      h.min_ns <- Int.min h.min_ns w.min_ns;
      h.max_ns <- Int.max h.max_ns w.max_ns;
      Array.iteri (fun i c -> h.buckets.(lo + i) <- h.buckets.(lo + i) + c) w.buckets)
    xs.w_stages;
  List.iter (fun (name, v) -> add_counter t name v) xs.w_ctrs

(** Take the sink's samples and reset it: the shipping discipline of a
    long-lived daemon worker, which flushes after every job so the
    supervisor absorbs each job's stage durations exactly once. *)
let flush (t : t) : samples =
  let s = samples t in
  Array.iter
    (fun h ->
      if h.count > 0 then begin
        let lo, len = window h in
        Array.fill h.buckets lo len 0
      end;
      h.count <- 0;
      h.total_ns <- 0;
      h.min_ns <- max_int;
      h.max_ns <- 0)
    t.hists;
  Hashtbl.clear t.ctrs;
  s

(* ---------------------------------------------------------------- *)
(* rendering                                                         *)

type line = {
  l_stage : string;
  l_count : int;
  l_total_ms : float;
  l_p50 : float;
  l_p90 : float;
  l_p99 : float;
  l_max : float;
}

let ms_of_ns ns = float_of_int ns /. 1e6

(* nearest-rank percentile: the middle of the bucket holding the
   rank-th smallest sample, clamped to [min, max] so that a stage whose
   samples are all equal reports that value exactly *)
let percentile h q =
  let rank =
    Int.max 1 (Int.min h.count (int_of_float (ceil (q *. float_of_int h.count))))
  in
  let rec find i seen =
    let seen = seen + h.buckets.(i) in
    if seen >= rank || i = n_buckets - 1 then i else find (i + 1) seen
  in
  ms_of_ns (Int.max h.min_ns (Int.min h.max_ns (bucket_mid_ns (find 0 0))))

let report (t : t) : line list =
  List.filter_map
    (fun s ->
      let h = t.hists.(stage_index s) in
      if h.count = 0 then None
      else
        Some
          {
            l_stage = stage_name s;
            l_count = h.count;
            l_total_ms = ms_of_ns h.total_ns;
            l_p50 = percentile h 0.50;
            l_p90 = percentile h 0.90;
            l_p99 = percentile h 0.99;
            l_max = ms_of_ns h.max_ns;
          })
    stages

(** The percentile lines as a JSON array, for the daemon's live stats
    endpoint — same numbers [pp] renders as the histogram footer. *)
let report_json (t : t) =
  let line l =
    Printf.sprintf
      "{\"stage\":\"%s\",\"count\":%d,\"total_ms\":%.3f,\"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,\"max_ms\":%.3f}"
      l.l_stage l.l_count l.l_total_ms l.l_p50 l.l_p90 l.l_p99 l.l_max
  in
  "[" ^ String.concat "," (List.map line (report t)) ^ "]"

(** The counters as one JSON object ([{}] when none have been
    recorded), for the daemon's live stats endpoint — the same numbers
    [pp_counters] renders after the histogram. Counter names are
    identifier-shaped (view_hit, minor_words, ...), so no escaping. *)
let counters_json (t : t) =
  "{"
  ^ String.concat ","
      (List.map (fun (name, v) -> Printf.sprintf "\"%s\":%d" name v) (counters t))
  ^ "}"

let pp_counters ppf (t : t) =
  match counters t with
  | [] -> ()
  | cs ->
      Format.fprintf ppf "@,counters:";
      List.iter (fun (name, v) -> Format.fprintf ppf " %s=%d" name v) cs

let pp ppf (t : t) =
  match report t with
  | [] ->
      Format.fprintf ppf "@[<v>timing: no samples%a@]" pp_counters t
  | lines ->
      Format.fprintf ppf "@[<v>%-8s %8s %12s %10s %10s %10s %10s" "stage"
        "count" "total ms" "p50 ms" "p90 ms" "p99 ms" "max ms";
      List.iter
        (fun l ->
          Format.fprintf ppf "@,%-8s %8d %12.1f %10.3f %10.3f %10.3f %10.3f"
            l.l_stage l.l_count l.l_total_ms l.l_p50 l.l_p90 l.l_p99 l.l_max)
        lines;
      Format.fprintf ppf "%a@]" pp_counters t
