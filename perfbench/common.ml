(* Shared pieces of the benchmark: the clock, the host-speed
   calibration, order statistics, process memory, the independent
   verdict oracle, and the sampled re-verifier that every workload runs
   after its timed phase. *)

module Svc = Lcp_service
module Graph = Lcp_graph.Graph
module Config = Lcp_pls.Config
module Scheme = Lcp_pls.Scheme
module Stats = Svc.Stats
module Manifest = Svc.Manifest

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* nearest-rank percentile of an unsorted sample, [p] in (0, 1] *)
let percentile p xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let median xs = percentile 0.5 xs

(* VmHWM (peak resident set) of a process in kB; "self" for this one *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0
            | l -> (
                match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
                | Some k -> k
                | None -> go ())
          in
          go ())

(* ---------------------------------------------------------------- *)
(* host speed                                                        *)

(* The speed of the host this benchmark was built on drifts by up to
   ±25% in phases that last minutes, and every workload speeds up and
   slows down with it. So the run measures the host's speed as it goes:
   a fixed, allocation-free kernel runs in short slices between jobs, and
   every reported time is scaled to a host on which one slice takes
   [calib_ref_ms]. The kernel shares no code and no heap with the
   program and never triggers a collection. Two things keep the
   program's own state out of a slice: a sequential pass over the
   kernel's buffer first, so the slice does not pay for the cache and TLB
   misses the last job left behind, and timing by this process's CPU
   time rather than by wall clock, so a daemon still working after its
   reply (it shares the benchmark's CPU) does not lengthen the slice. *)
let calib_ref_ms = 1.5

let calib_buf = Bytes.make (8 lsl 20) '\000'

(* one read per cache line, in order, outside the timed part *)
let pretouch () =
  let acc = ref 0 in
  let i = ref 0 in
  while !i < Bytes.length calib_buf do
    acc := !acc + Char.code (Bytes.unsafe_get calib_buf !i);
    i := !i + 64
  done;
  Sys.opaque_identity !acc |> ignore

(* random read-modify-writes over 8 MB: bound by cache and memory
   latency, as the workloads' allocation-heavy jobs are. Returns the
   CPU time of the random pass and its wall time, in ms. *)
let calib_slice () =
  pretouch ();
  let w0 = now_ms () and t0 = Sys.time () in
  let mask = Bytes.length calib_buf - 1 in
  let x = ref 12345 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land mask in
    Bytes.unsafe_set calib_buf i
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get calib_buf i) + 1) land 255))
  done;
  (1000.0 *. (Sys.time () -. t0), now_ms () -. w0)

let calib_samples = ref []

(* each slice's wall time, for the report only *)
let calib_wall_samples = ref []
let calib_last = ref neg_infinity

(* wall time spent in slices so far, in ms *)
let calib_spent_ms = ref 0.0

(* Between jobs, in set-up and in the timed phase: run a slice if 250 ms
   have passed since the last one. Returns the wall time it took, for
   the caller to leave out of its own wall. *)
let calibrate () =
  if now_ms () -. !calib_last < 250.0 then 0.0
  else begin
    let t0 = now_ms () in
    let cpu, wall = calib_slice () in
    calib_samples := cpu :: !calib_samples;
    calib_wall_samples := wall :: !calib_wall_samples;
    calib_last := now_ms ();
    calib_spent_ms := !calib_spent_ms +. (!calib_last -. t0);
    !calib_last -. t0
  end

(* the run's median slice time, in ms *)
let calib_ms () = median (Array.of_list !calib_samples)

(* what a time measured in this run is multiplied by *)
let speed_factor () = calib_ref_ms /. calib_ms ()

(* ---------------------------------------------------------------- *)
(* verdicts                                                          *)

type verdict = Served | Declined | Input_error | Broken

let verdict_name = function
  | Served -> "served"
  | Declined -> "declined"
  | Input_error -> "input_error"
  | Broken -> "broken"

let verdict_of_status = function
  | Stats.Served_fresh | Stats.Served_cached | Stats.Served_degraded -> Served
  | Stats.Declined -> Declined
  | Stats.Input_error _ -> Input_error
  | Stats.Unsound _ | Stats.Failed _ -> Broken

let verdict_of_status_name = function
  | "served_fresh" | "served_cached" | "served_degraded" -> Served
  | "declined" -> Declined
  | "input_error" -> Input_error
  | _ -> Broken

(* The oracle is independent of the prover: plain BFS connectivity and
   a bitmask matching search. Every Theorem 1 proof also needs a
   connected graph, so a property is certifiable exactly when the graph
   is connected and the property holds. *)
let connected g =
  let n = Graph.n g in
  n > 0
  &&
  let seen = Array.make n false in
  let rec visit = function
    | [] -> ()
    | v :: rest ->
        let next =
          List.filter
            (fun w ->
              if seen.(w) then false
              else begin
                seen.(w) <- true;
                true
              end)
            (Graph.neighbors g v)
        in
        visit (next @ rest)
  in
  seen.(0) <- true;
  visit [ 0 ];
  Array.for_all Fun.id seen

let perfect_matching g =
  let n = Graph.n g in
  if n mod 2 = 1 then false
  else if n > 20 then invalid_arg "perfect_matching oracle: n > 20"
  else
    let memo = Hashtbl.create 64 in
    let rec go used =
      if used = (1 lsl n) - 1 then true
      else
        match Hashtbl.find_opt memo used with
        | Some b -> b
        | None ->
            let rec lowest i = if used land (1 lsl i) = 0 then i else lowest (i + 1) in
            let v = lowest 0 in
            let b =
              List.exists
                (fun w ->
                  used land (1 lsl w) = 0
                  && go (used lor (1 lsl v) lor (1 lsl w)))
                (Graph.neighbors g v)
            in
            Hashtbl.replace memo used b;
            b
    in
    go 0

let holds property g =
  match property with
  | "connected" -> true
  | "perfect_matching" -> perfect_matching g
  | p -> invalid_arg ("no oracle for property " ^ p)

let graph_of_job (job : Manifest.job) =
  Svc.Engine.graph_of_source ~base_dir:"." ~k:job.Manifest.k job.Manifest.source

(* the class a correct service must answer [job] with *)
let expected (job : Manifest.job) =
  match graph_of_job job with
  | Error _ -> Input_error
  | Ok g -> (
      match Svc.Registry.find job.Manifest.property with
      | None -> Input_error
      | Some _ ->
          if connected g && holds job.Manifest.property g then Served
          else Declined)

(* ---------------------------------------------------------------- *)
(* sampled re-verification                                           *)

(* Decode [bundle] and run the local verifier of a Theorem 1 scheme the
   benchmark instantiates itself, under the job's own id assignment. *)
let reverify (job : Manifest.job) g (bundle : Svc.Bundle.t) =
  match Svc.Registry.find job.Manifest.property with
  | None -> false
  | Some (module P) -> (
      let module T1 = Lcp_cert.Theorem1.Make (P.A) in
      let scheme = T1.edge_scheme ~k:job.Manifest.k () in
      let decode_label =
        Lcp_cert.Certificate.decode ~decode_state:P.decode_state
      in
      match Svc.Bundle.decode ~decode_label g bundle with
      | Error _ -> false
      | Ok labels ->
          let cfg =
            Config.random_ids (Random.State.make [| job.Manifest.seed |]) g
          in
          Scheme.accepted (Scheme.run_edge cfg scheme labels))

(* Re-verify the stored bundle of [job] in [store]; false when the
   store has no entry for a job that was served. The store keys on
   (property, k, graph) while the proof depends on the job's ids, so
   [job] must be the last job served under its key. *)
let reverify_stored store (job : Manifest.job) =
  match graph_of_job job with
  | Error _ -> false
  | Ok g -> (
      let key =
        Svc.Cert_store.key ~property:job.Manifest.property ~k:job.Manifest.k g
      in
      match Svc.Cert_store.find store key with
      | None -> false
      | Some e -> reverify job g e.Svc.Cert_store.e_bundle)

(* up to [k] elements of [xs], evenly spaced, first and last included *)
let spread_sample k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n <= k then xs
  else List.init k (fun i -> a.(i * (n - 1) / max 1 (k - 1)))

let job ~id ~family ~n ~gseed ~property ~k ~seed =
  {
    Manifest.job_id = id;
    source = Manifest.Generated { family; n; gen_seed = gseed };
    property;
    k;
    seed;
  }

(* a nonnegative 30-bit mix of the run seed with a stream tag and index,
   so distinct (tag, i) pairs give distinct generator seeds *)
let mix seed tag i = Hashtbl.hash (seed, tag, i)
