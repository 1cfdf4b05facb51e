(* The four workloads, untraced. Each one sets up several times and keeps
   the median set-up time, runs a closed loop of jobs until the timed
   phase is over, checks every verdict against the oracle and re-verifies
   a sample of served bundles, then measures the per-job costs that must
   repeat exactly (minor words, label and bundle bits) on a fixed
   reference sample that is the same for every seed. *)

open Common
module Engine = Svc.Engine
module Delta = Svc.Delta

type result = {
  setups_s : float array;
  setup_calib_ms : float array;  (** the host's slice time around each set-up *)
  timed_s : float;  (** wall time of the timed phase, calibration left out *)
  lat_ms : float array;  (** one latency per job of the timed phase *)
  attempted : int;
  failures : string list;  (** one line per job that was not ok *)
  alloc_kw : float;  (** minor kilo-words per job, reference sample *)
  label_bits : float;  (** mean largest edge label, reference sample *)
  bundle_bits : float;  (** mean bundle size, reference sample *)
  rss_mb : float;
      (** peak resident set of the working processes, through set-up and
          the timed phase's first [rss_jobs] jobs *)
  notes : string list;  (** extra lines for the human-readable report *)
  untraced_ms : float;
      (** the untraced per-job time the traced replay is compared with:
          the raw [job_ms_p50], or the daemon worker's median [total_ms] *)
  server : (string * float * string) list;
      (** daemon-side figures gathered before shutdown, when traced *)
}

(* the traced replay's sample: this many of the timed phase's first jobs *)
let trace_sample = 8

(* Run [setup] [setups] times; return the set-up times, the host's
   calibration slice time around each, and the last state (the earlier
   ones are discarded by [drop]). A set-up that runs many jobs calls
   [calibrate] between them; its time leaves those slices out, and its
   slice time is the mean of the slices just before it, during it and
   just after it, so that each set-up is scaled by the host's speed at
   its own moment, not the timed phase's. The heap is compacted
   afterwards, outside the timed set-up, so every timed phase starts
   from the same collector state. *)
let repeat_setup ~setups ~setup ~drop =
  let times = Array.make setups 0.0 and calib = Array.make setups 0.0 in
  let before = ref (fst (calib_slice ())) in
  let rec go i prev =
    Option.iter drop prev;
    let spent = !calib_spent_ms and taken = List.length !calib_samples in
    let t0 = now_ms () in
    let st = setup i in
    times.(i) <- (now_ms () -. t0 -. (!calib_spent_ms -. spent)) /. 1000.0;
    let after = fst (calib_slice ()) in
    let during =
      List.filteri (fun j _ -> j < List.length !calib_samples - taken) !calib_samples
    in
    let slices = (!before :: after :: during) in
    calib.(i) <- List.fold_left ( +. ) 0.0 slices /. float (List.length slices);
    before := after;
    if i = setups - 1 then st else go (i + 1) (Some st)
  in
  let st = go 0 None in
  Gc.compact ();
  (times, calib, st)

(* Classify each (job, verdict) against the oracle. *)
let check_verdicts pairs =
  List.filter_map
    (fun ((job : Manifest.job), got) ->
      let want = expected job in
      if got = want then None
      else
        Some
          (Printf.sprintf "%s: expected %s, got %s" job.Manifest.job_id
             (verdict_name want) (verdict_name got)))
    pairs

(* Re-verify [k] of the served jobs' bundles from [store]. *)
let check_bundles ?(k = 4) store served =
  List.filter_map
    (fun (job : Manifest.job) ->
      if reverify_stored store job then None
      else
        Some
          (Printf.sprintf "%s: served bundle rejected on decode + re-verify"
             job.Manifest.job_id))
    (spread_sample k served)

(* Minor kilo-words per job and mean label/bundle bits of [run] over
   the reports it returns. *)
let reference run =
  let w0 = Gc.minor_words () in
  let reports = run () in
  let w1 = Gc.minor_words () in
  let k = float (List.length reports) in
  let sum f = List.fold_left (fun a r -> a +. float (f r)) 0.0 reports in
  ( (w1 -. w0) /. 1000.0 /. k,
    sum (fun r -> r.Stats.r_label_bits) /. k,
    sum (fun r -> r.Stats.r_bundle_bits) /. k )

let self_rss_mb () = float (vm_hwm_kb "self") /. 1024.0

(* The peak resident set is read once the timed phase has completed
   this many jobs (or at its end, if it completes fewer): a fixed amount
   of work, so the figure does not grow with the program's speed. *)
let rss_jobs = 32

(* Run jobs produced by [next i] through [exec] until [seconds] pass,
   calibrating between jobs; [rss ()] is read after job [rss_jobs]. The
   wall time returned leaves the calibration slices out. *)
let timed_loop ~seconds ~next ~exec ~rss =
  let t0 = now_ms () in
  let deadline = t0 +. (1000.0 *. seconds) in
  let lat = ref [] and done_ = ref [] and peak = ref None in
  let calibrating = ref 0.0 in
  let rec go i =
    if i = rss_jobs then peak := Some (rss ());
    calibrating := !calibrating +. calibrate ();
    if now_ms () < deadline then begin
      let job = next i in
      let ts = now_ms () in
      let r = exec job in
      lat := (now_ms () -. ts) :: !lat;
      done_ := (job, r) :: !done_;
      go (i + 1)
    end
  in
  go 0;
  let timed_s = (now_ms () -. t0 -. !calibrating) /. 1000.0 in
  let peak = match !peak with Some p -> p | None -> rss () in
  (timed_s, Array.of_list (List.rev !lat), List.rev !done_, peak)

(* ---------------------------------------------------------------- *)
(* fresh_pw2 and warm_pw2                                            *)

let pw2 ~tag ~seed i =
  let g = mix seed tag i in
  job
    ~id:(Printf.sprintf "%s%d" tag i)
    ~family:"random" ~n:128 ~gseed:g ~property:"connected" ~k:2
    ~seed:(g lxor 0x5bd1)

(* the seed-independent reference instances *)
let pw2_ref i = pw2 ~tag:"ref" ~seed:0 i

let served_jobs done_ =
  List.filter_map
    (fun (job, r) ->
      if verdict_of_status r.Stats.r_status = Served then Some job else None)
    done_

(* The seed's replay order of [set]: a seeded permutation, cycled, so
   every instance is replayed equally often (±1) in any run. *)
let replay_order set ~seed =
  let rng = Random.State.make [| seed; 0x3a11 |] in
  let perm = Array.init (Array.length set) Fun.id in
  for i = Array.length perm - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  fun i -> set.(perm.(i mod Array.length perm))

(* fresh_pw2 keeps a small store: every job misses anyway, and a store
   holding every bundle of the run would make the heap, and with it the
   collector's work per job, grow with the run's own speed *)
let fresh_cache_cap = 32

(* fresh_pw2's instances: a pool that is the same for every run, replayed
   in the seed's order. A run proves about 250 jobs, nearly the whole
   pool, so every run's p99 is taken over nearly the same instances; with
   a new instance for every job, the seed chose which heavy instances
   made the tail, and p99 spread by 0.22 (IQR / median) over nine runs.
   The pool is 8 times the store, so a replayed instance is still a
   miss. *)
let fresh_pool = Array.init 256 (pw2 ~tag:"f" ~seed:1)

let fresh_order ~seed = replay_order fresh_pool ~seed

let fresh_pw2 ~seed ~seconds =
  let setups_s, setup_calib_ms, engine =
    repeat_setup ~setups:15 ~drop:ignore ~setup:(fun i ->
        let e = Engine.create ~cache_cap:fresh_cache_cap () in
        ignore (Engine.run_job e (pw2 ~tag:"warmup" ~seed:0 i));
        e)
  in
  let timed_s, lat_ms, done_, rss_mb =
    timed_loop ~seconds ~next:(fresh_order ~seed) ~exec:(Engine.run_job engine)
      ~rss:self_rss_mb
  in
  let hits =
    List.length
      (List.filter (fun (_, r) -> r.Stats.r_status = Stats.Served_cached) done_)
  in
  let failures =
    check_verdicts
      (List.map (fun (j, r) -> (j, verdict_of_status r.Stats.r_status)) done_)
    @ (let served = served_jobs done_ in
       check_bundles (Engine.store engine)
         (List.filteri
            (fun i _ -> i >= List.length served - fresh_cache_cap)
            served))
    @
    if hits > 0 then [ Printf.sprintf "%d fresh jobs were cache hits" hits ]
    else []
  in
  let alloc_kw, label_bits, bundle_bits =
    let e = Engine.create ~cache_cap:fresh_cache_cap () in
    reference (fun () -> List.init 6 (fun i -> Engine.run_job e (pw2_ref i)))
  in
  {
    setups_s;
    setup_calib_ms;
    timed_s;
    lat_ms;
    attempted = List.length done_;
    failures;
    alloc_kw;
    label_bits;
    bundle_bits;
    rss_mb;
    notes = [];
    untraced_ms = median lat_ms;
    server = [];
  }

(* The stored set is the same for every run and the seed draws the
   replay order: with a set per seed, the sizes of the largest bundles
   moved the peak resident set by 20% between seeds. *)
let warm_set = Array.init 24 (pw2 ~tag:"w" ~seed:1)

let warm_order ~seed = replay_order warm_set ~seed

let warm_pw2 ~seed ~seconds =
  let fill e jobs = List.iter (fun j -> ignore (Engine.run_job e j)) jobs in
  let warm = Array.to_list warm_set in
  let setups_s, setup_calib_ms, engine =
    repeat_setup ~setups:3 ~drop:ignore ~setup:(fun _ ->
        let e = Engine.create () in
        List.iter
          (fun j ->
            ignore (calibrate ());
            ignore (Engine.run_job e j))
          warm;
        ignore (Engine.run_job e (List.hd warm));
        e)
  in
  let timed_s, lat_ms, done_, rss_mb =
    timed_loop ~seconds ~next:(warm_order ~seed) ~exec:(Engine.run_job engine)
      ~rss:self_rss_mb
  in
  let misses =
    List.length
      (List.filter (fun (_, r) -> r.Stats.r_status <> Stats.Served_cached) done_)
  in
  let failures =
    check_verdicts
      (List.map (fun (j, r) -> (j, verdict_of_status r.Stats.r_status)) done_)
    @ check_bundles (Engine.store engine) (served_jobs done_)
    @
    if misses > 0 then
      [ Printf.sprintf "%d replayed jobs were not cache hits" misses ]
    else []
  in
  let alloc_kw, label_bits, bundle_bits =
    let e = Engine.create () in
    let refs = List.init 3 pw2_ref in
    fill e refs;
    reference (fun () -> List.map (Engine.run_job e) (refs @ refs))
  in
  {
    setups_s;
    setup_calib_ms;
    timed_s;
    lat_ms;
    attempted = List.length done_;
    failures;
    alloc_kw;
    label_bits;
    bundle_bits;
    rss_mb;
    notes = [];
    untraced_ms = median lat_ms;
    server = [];
  }

(* ---------------------------------------------------------------- *)
(* delta_pw                                                          *)

(* Short chords (u, u+2..u+6) keep every edited graph connected and of
   small pathwidth. The base graph leaves about 1,200 of them free. A
   miss adds a pair of free chords that has never been added before, so
   the supply of misses is some 700,000 pairs: no run can use it up, and
   a run that somehow did would stop with an error, not spin. *)
let free_chords g0 =
  let n = Graph.n g0 in
  Array.of_list
    (List.concat
       (List.init (n - 7) (fun u ->
            List.filter_map
              (fun o -> if Graph.mem_edge g0 u (u + o) then None else Some (u, u + o))
              [ 2; 3; 4; 5; 6 ])))

(* A run makes about 80 misses. The first [pair_pool] misses of a session
   take their pairs from a pool that is the same for every run, in the
   seed's order, so the slowest misses, which set p99, come from nearly
   the same pairs in every run: with every pair drawn by the seed, one
   seed's p99 read 470 to 500 ms where the others read 330 to 400. Later
   misses draw new pairs with the seed. *)
let pair_pool = 96

(* [fixed] is a free chord, the same for every run; [next_pair ()] gives
   a pair of free chords not given before. *)
let chord_source ~seed g0 =
  let pool = free_chords g0 in
  let used = Hashtbl.create 64 in
  let draw rng =
    let rec go tries =
      if tries = 0 then failwith "delta_pw: no unused chord pair left";
      let a = pool.(Random.State.int rng (Array.length pool)) in
      let b = pool.(Random.State.int rng (Array.length pool)) in
      let pair = (min a b, max a b) in
      if a = b || Hashtbl.mem used pair then go (tries - 1)
      else begin
        Hashtbl.replace used pair ();
        pair
      end
    in
    go 100_000
  in
  let fixed_rng = Random.State.make [| 1; 0xde17a |] in
  let fixed = pool.(Random.State.int fixed_rng (Array.length pool)) in
  let pooled = replay_order (Array.init pair_pool (fun _ -> draw fixed_rng)) ~seed in
  let rng = Random.State.make [| seed; 0xde17a |] in
  let given = ref 0 in
  let next_pair () =
    incr given;
    if !given <= pair_pool then pooled (!given - 1) else draw rng
  in
  (fixed, next_pair)

(* One cycle of four edits: a never-seen pair of chords goes in (a miss)
   and out again (a hit on the base), then the fixed chord toggles on
   and off (two hits once it has been certified). Each edit comes with
   the chords present after it. *)
let cycle ~fixed:(fu, fv) ((au, av), (bu, bv)) =
  let pair = Printf.sprintf "%d-%d,%d-%d" au av bu bv in
  [
    ("add=" ^ pair, [ (au, av); (bu, bv) ]);
    ("del=" ^ pair, []);
    (Printf.sprintf "add=%d-%d" fu fv, [ (fu, fv) ]);
    (Printf.sprintf "del=%d-%d" fu fv, []);
  ]

(* The base graph is the same for every run and the seed draws the
   edits: with a base per seed, the base alone moved jobs_per_s by up to
   1.8x between seeds. *)
let delta_base =
  let g = mix 1 "delta" 0 in
  job ~id:"d" ~family:"random" ~n:256 ~gseed:g ~property:"connected" ~k:2
    ~seed:(g lxor 0x5bd1)

type delta_run = {
  session : Delta.session;
  engine : Engine.t;
  g0 : Graph.t;
  next_pair : unit -> (int * int) * (int * int);
  fixed : int * int;
}

let open_delta job ~seed =
  let engine = Engine.create () in
  match Delta.create engine job with
  | Ok (session, _, _) ->
      let g0 = Delta.graph session in
      let fixed, next_pair = chord_source ~seed g0 in
      { session; engine; g0; next_pair; fixed }
  | Error (r, _) -> failwith ("delta_pw: base did not open: " ^ Stats.to_json r)

(* the steps of [cycles] full cycles, as (edit, chords present after it) *)
let delta_steps d cycles =
  List.concat (List.init cycles (fun _ -> cycle ~fixed:d.fixed (d.next_pair ())))

let graph_after d = function [] -> d.g0 | chords -> Graph.add_edges d.g0 chords

let step d ops = Delta.step d.session ~full:false ops

let delta_pw ~seed ~seconds =
  let base = delta_base in
  let setups_s, setup_calib_ms, d =
    repeat_setup ~setups:7 ~drop:ignore ~setup:(fun _ ->
        let d = open_delta base ~seed in
        List.iter
          (fun (ops, _) ->
            ignore (calibrate ());
            ignore (step d ops))
          (delta_steps d 1);
        d)
  in
  let pending = ref [] in
  let next _ =
    (match !pending with [] -> pending := delta_steps d 1 | _ -> ());
    match !pending with
    | s :: rest ->
        pending := rest;
        s
    | [] -> assert false
  in
  let timed_s, lat_ms, done_, rss_mb =
    timed_loop ~seconds ~next ~exec:(fun (ops, _) -> step d ops) ~rss:self_rss_mb
  in
  let failures =
    List.filter_map
      (fun ((ops, added), (r, _)) ->
        let g = graph_after d added in
        let want = if connected g then Served else Declined in
        let got = verdict_of_status r.Stats.r_status in
        if got = want then None
        else
          Some
            (Printf.sprintf "%s (%s): expected %s, got %s" r.Stats.r_id ops
               (verdict_name want) (verdict_name got)))
      done_
  in
  (* re-verify the bundles of the last few distinct graphs served *)
  let bundle_failures =
    let graphs =
      List.sort_uniq compare
        (List.filter_map
           (fun ((_, added), (r, _)) ->
             if verdict_of_status r.Stats.r_status = Served then
               Some (Graph.edges (graph_after d added))
             else None)
           (List.filteri (fun i _ -> i >= List.length done_ - 8) done_))
    in
    List.filter_map
      (fun edges ->
        let g = Graph.of_edges ~n:(Graph.n d.g0) edges in
        let key = Svc.Cert_store.key ~property:"connected" ~k:2 g in
        let ok =
          match Svc.Cert_store.find (Engine.store d.engine) key with
          | None -> false
          | Some e -> reverify base g e.Svc.Cert_store.e_bundle
        in
        if ok then None
        else Some "delta_pw: a served bundle was rejected on decode + re-verify")
      graphs
  in
  let misses =
    List.length
      (List.filter (fun (_, (_, i)) -> i.Delta.pi_mode <> "cached") done_)
  in
  let alloc_kw, label_bits, bundle_bits =
    let rd = open_delta delta_base ~seed:0 in
    List.iter (fun (ops, _) -> ignore (step rd ops)) (delta_steps rd 1);
    let steps = delta_steps rd 2 in
    reference (fun () -> List.map (fun (ops, _) -> fst (step rd ops)) steps)
  in
  {
    setups_s;
    setup_calib_ms;
    timed_s;
    lat_ms;
    attempted = List.length done_;
    failures = failures @ bundle_failures;
    alloc_kw;
    label_bits;
    bundle_bits;
    rss_mb;
    notes =
      [
        Printf.sprintf "delta steps: %d misses, %d hits" misses
          (List.length done_ - misses);
      ];
    untraced_ms = median lat_ms;
    server = [];
  }
