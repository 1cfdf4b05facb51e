(** Lightweight per-stage timing for the certification pipeline: every
    engine stage (parse, prove, encode, verify, store) records its
    duration into a growable sample buffer keyed by stage, and the
    buffer renders as a histogram footer (count, total, p50/p90/p99,
    max per stage).

    Durations are measured on the {e monotonic} clock
    ([Monotonic_clock.now], CLOCK_MONOTONIC under the hood), so a
    wall-clock step (NTP slew, suspend) can never produce a negative or
    wildly inflated sample — gettimeofday arithmetic can.

    The sink is deliberately dumb: raw samples, no pre-bucketing. A
    worker process serializes its samples with [samples] and the pool
    merges them into the parent's sink with [absorb], so percentiles
    over a sharded run are computed from the {e exact} union of
    samples, identical to what a sequential run would report.

    Besides durations the sink carries named integer {e counters}
    (verifier-memo hits/misses, store filter traffic, GC minor words);
    [absorb] merges them by summation and [pp] renders them on one
    [counters:] line after the histogram. *)

type stage = Parse | Prove | Encode | Verify | Store

let stages = [ Parse; Prove; Encode; Verify; Store ]

let stage_name = function
  | Parse -> "parse"
  | Prove -> "prove"
  | Encode -> "encode"
  | Verify -> "verify"
  | Store -> "store"

(* a growable float buffer; Buffer for floats, nothing more *)
type buf = { mutable data : float array; mutable len : int }

let buf_create () = { data = Array.make 64 0.0; len = 0 }

let buf_push b x =
  if b.len = Array.length b.data then begin
    let grown = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 grown 0 b.len;
    b.data <- grown
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let buf_to_list b = Array.to_list (Array.sub b.data 0 b.len)

type t = {
  bufs : (stage * buf) list;
      (* assoc over the five fixed stages; tiny, allocation-free on record *)
  mutable ctrs : (string * int) list;
      (* named event counters (memo hits, allocation words, ...) riding
         along with the histogram; merged across workers by summation *)
}

let create () : t = { bufs = List.map (fun s -> (s, buf_create ())) stages; ctrs = [] }

let now_ns () = Monotonic_clock.now ()

let ms_of_ns ns = Int64.to_float ns /. 1e6

let record (t : t) stage ms = buf_push (List.assoc stage t.bufs) ms

let set_counter (t : t) name v =
  t.ctrs <- (name, v) :: List.remove_assoc name t.ctrs

let add_counter (t : t) name v =
  let cur = match List.assoc_opt name t.ctrs with Some c -> c | None -> 0 in
  set_counter t name (cur + v)

let counters (t : t) =
  List.sort (fun (a, _) (b, _) -> compare a b) t.ctrs

(** [time t stage f] runs [f ()], recording its duration under [stage]
    when a sink is present. The [option] lives here so call sites stay
    one line. *)
let time (t : t option) stage f =
  match t with
  | None -> f ()
  | Some t ->
      let t0 = now_ns () in
      let r = f () in
      record t stage (ms_of_ns (Int64.sub (now_ns ()) t0));
      r

(* ---------------------------------------------------------------- *)
(* cross-process merge                                               *)

type samples = {
  w_stages : (string * float list) list;
  w_ctrs : (string * int) list;
}
(** the wire form: stage name -> raw samples, plus the counter snapshot.
    Strings rather than the variant so a marshalled payload from a
    worker of a different build degrades to an error, not a segfault. *)

let samples (t : t) : samples =
  {
    w_stages = List.map (fun (s, b) -> (stage_name s, buf_to_list b)) t.bufs;
    w_ctrs = t.ctrs;
  }

let absorb (t : t) (xs : samples) =
  List.iter
    (fun (name, values) ->
      match List.find_opt (fun (s, _) -> stage_name s = name) t.bufs with
      | Some (_, b) -> List.iter (buf_push b) values
      | None -> ())
    xs.w_stages;
  List.iter (fun (name, v) -> add_counter t name v) xs.w_ctrs

(** Drop every sample and counter, keeping the sink itself. *)
let reset (t : t) =
  List.iter (fun (_, b) -> b.len <- 0) t.bufs;
  t.ctrs <- []

(** Take the sink's samples and reset it: the shipping discipline of a
    long-lived daemon worker, which flushes after every job so the
    supervisor absorbs each job's stage durations exactly once. *)
let flush (t : t) : samples =
  let s = samples t in
  reset t;
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

(* nearest-rank percentile over a sorted copy of the samples *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let report (t : t) : line list =
  List.filter_map
    (fun ((s : stage), b) ->
      if b.len = 0 then None
      else begin
        let sorted = Array.sub b.data 0 b.len in
        Array.sort compare sorted;
        let total = Array.fold_left ( +. ) 0.0 sorted in
        Some
          {
            l_stage = stage_name s;
            l_count = b.len;
            l_total_ms = total;
            l_p50 = percentile sorted 0.50;
            l_p90 = percentile sorted 0.90;
            l_p99 = percentile sorted 0.99;
            l_max = sorted.(b.len - 1);
          }
      end)
    t.bufs

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
