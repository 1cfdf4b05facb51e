(* The traced replay: a fixed sample of a workload's jobs goes through
   the program twice, once as a whole ([Engine.run_job] or
   [Delta.step], timed as [engine.run_job] or [delta.step]) and once
   call by call through the public functions of each layer, each call
   timed from outside as a span. A layer's figure is its mean per call
   over the sample jobs that made the call; derived self times subtract
   the child spans.

   Spans live in memory only: name, duration and minor words, summed
   per name. *)

open Common
module Engine = Svc.Engine
module Store = Svc.Cert_store
module Bundle = Svc.Bundle
module Rep = Lcp_interval.Representation
module Low_congestion = Lcp_lanes.Low_congestion
module Completion = Lcp_lanes.Completion
module Prop52 = Lcp_lanewidth.Prop52
module Builder = Lcp_lanewidth.Builder
module Hierarchy = Lcp_lanewidth.Hierarchy
module Klane = Lcp_lanewidth.Klane
module Spanning_tree = Lcp_pls.Spanning_tree
module Memo = Lcp_cert.Memo
module Incr = Lcp_cert.Incremental

(* ---------------------------------------------------------------- *)
(* spans                                                             *)

type acc = { mutable ms : float; mutable kw : float; mutable calls : int }

type t = {
  spans : (string, acc) Hashtbl.t;
  mutable jobs : int;  (** jobs in the sample *)
  counts : (string, float) Hashtbl.t;  (** summed per-job counts *)
  run_job_ms : float list ref;  (** one whole-job time per sample job *)
  fixed_ms : float list ref;
      (** per sample job: whole-job time minus its replayed layer calls *)
}

let create () =
  {
    spans = Hashtbl.create 32;
    jobs = 0;
    counts = Hashtbl.create 16;
    run_job_ms = ref [];
    fixed_ms = ref [];
  }

let acc t name =
  match Hashtbl.find_opt t.spans name with
  | Some a -> a
  | None ->
      let a = { ms = 0.0; kw = 0.0; calls = 0 } in
      Hashtbl.replace t.spans name a;
      a

let span t name f =
  let w0 = Gc.minor_words () in
  let t0 = now_ms () in
  let r = f () in
  let t1 = now_ms () in
  let w1 = Gc.minor_words () in
  let a = acc t name in
  a.ms <- a.ms +. (t1 -. t0);
  a.kw <- a.kw +. ((w1 -. w0) /. 1000.0);
  a.calls <- a.calls + 1;
  r

let add_ms t name dt =
  let a = acc t name in
  a.ms <- a.ms +. dt;
  a.calls <- a.calls + 1

let count t name v =
  Hashtbl.replace t.counts name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

let ms t name = (acc t name).ms
let calls t name = (acc t name).calls

(* mean per sample job *)
let per_job t x = x /. float (max 1 t.jobs)

(* mean time and minor kilo-words per call of a span, over the sample
   jobs that made the call *)
let per_call t name =
  let a = acc t name in
  a.ms /. float (max 1 a.calls)

let kw_per_call t name =
  let a = acc t name in
  a.kw /. float (max 1 a.calls)

let whole_job t name f =
  let t0 = now_ms () in
  let r = span t name f in
  t.run_job_ms := (now_ms () -. t0) :: !(t.run_job_ms);
  r

(* ---------------------------------------------------------------- *)
(* the prover's layers, call by call                                 *)

(* The vertex the prover roots the global pointer at: a vertex of the
   hierarchy's root member, as [Prover.prepare] picks it. *)
let root_vertex = function
  | Hierarchy.T_node { tree; _ } ->
      List.hd (Hierarchy.klane_of tree.Hierarchy.piece).Klane.vertices
  | _ -> 0

(* Replay the four child calls of [Prover.prepare] and the pointer
   labels on [rep], timing each. *)
let prover_children t cfg rep =
  let r = span t "lanes.construct" (fun () -> Low_congestion.construct rep) in
  let p = r.Low_congestion.partition in
  let host = span t "lanes.completion" (fun () -> Completion.completion p) in
  let trace, to_host =
    span t "lanewidth.trace" (fun () -> Prop52.trace_of_partition p)
  in
  let h =
    span t "lanewidth.hierarchy" (fun () ->
        Builder.of_trace_on ~host ~to_host trace)
  in
  let root = root_vertex h in
  ignore
    (span t "pls.pointer" (fun () ->
         Spanning_tree.labels_for cfg ~root ~target:(Config.id cfg root)))

let label_counts t labels =
  Scheme.Edge_map.bindings labels
  |> List.iter (fun (_, (l : _ Lcp_cert.Certificate.label)) ->
         count t "edges" 1.0;
         count t "frames" (float (List.length l.Lcp_cert.Certificate.frames));
         count t "transported"
           (float (List.length l.Lcp_cert.Certificate.transported)))

let memo_totals () = (float !Memo.hits, float !Memo.misses)

(* Time [prepare] as [cert.prepare], count the composition-memo traffic
   it caused, then replay its child calls on the same representation. *)
let traced_prepare t cfg rep prepare =
  let h0, m0 = memo_totals () in
  let art = span t "cert.prepare" prepare in
  let h1, m1 = memo_totals () in
  count t "memo_hits" (h1 -. h0);
  count t "memo_lookups" (h1 -. h0 +. (m1 -. m0));
  prover_children t cfg rep;
  art

(* the counts read off one prepared certificate *)
let prepared_counts t ~lane_count ~congestion labels =
  count t "lanes" (float lane_count);
  count t "congestion" (float congestion);
  count t "provers" 1.0;
  label_counts t labels

(* One job through the engine's steps, layer by layer, against
   [store]: the same calls [Engine.run_once] makes, in its order. *)
let replay_job t ~store (job : Manifest.job) =
  match span t "engine.parse" (fun () -> graph_of_job job) with
  | Error _ -> ()
  | Ok g -> (
      match Svc.Registry.find job.Manifest.property with
      | None -> ()
      | Some (module P) -> (
          let t0 = now_ms () in
          let module T1 = Lcp_cert.Theorem1.Make (P.A) in
          let scheme = T1.edge_scheme ~rep:Engine.default_rep ~k:job.Manifest.k () in
          add_ms t "engine.instantiate" (now_ms () -. t0);
          let cfg =
            span t "engine.ids" (fun () ->
                Config.random_ids (Random.State.make [| job.Manifest.seed |]) g)
          in
          let key =
            span t "store.key" (fun () ->
                Store.key ~property:job.Manifest.property ~k:job.Manifest.k g)
          in
          match span t "store.find" (fun () -> Store.find store key) with
          | Some e -> (
              let decode_label =
                Lcp_cert.Certificate.decode ~decode_state:P.decode_state
              in
              match
                span t "bundle.decode" (fun () ->
                    Bundle.decode ~decode_label g e.Store.e_bundle)
              with
              | Error _ -> ()
              | Ok labels ->
                  ignore
                    (span t "pls.verify" (fun () -> Scheme.run_edge cfg scheme labels)))
          | None -> (
              let rep =
                span t "interval.rep" (fun () -> Option.get (Engine.default_rep cfg))
              in
              count t "width" (float (Rep.width rep));
              match traced_prepare t cfg rep (fun () -> T1.P.prepare ~rep cfg) with
              | Error _ -> ()
              | Ok art when not art.T1.P.holds -> ()
              | Ok art -> (
                  let labels = art.T1.P.labels in
                  prepared_counts t ~lane_count:art.T1.P.lane_count
                    ~congestion:art.T1.P.congestion labels;
                  match
                    span t "bundle.encode" (fun () ->
                        Bundle.encode ~encode_label:scheme.Scheme.es_encode g labels)
                  with
                  | Error _ -> ()
                  | Ok bundle ->
                      ignore
                        (span t "pls.verify" (fun () ->
                             Scheme.run_edge cfg scheme labels));
                      let label_bits =
                        span t "pls.label_bits" (fun () ->
                            Scheme.max_edge_label_bits scheme labels)
                      in
                      span t "store.add" (fun () ->
                          Store.add store
                            {
                              Store.e_key = key;
                              e_bundle = bundle;
                              e_label_bits = label_bits;
                            })))))

(* the calls that make up [Engine.run_job]'s layer work *)
let layer_spans =
  [
    "engine.parse"; "store.key"; "store.find"; "bundle.decode"; "pls.verify";
    "interval.rep"; "cert.prepare"; "bundle.encode"; "pls.label_bits";
    "store.add";
  ]

(* Run each sample job whole through [engine], then replay it layer by
   layer against [mirror], a store kept in the same state. Which of the
   two runs first alternates, starting with the whole run when [first]
   is even. *)
let replay_engine ?(first = 0) t ~engine ~mirror jobs =
  let s0 = Store.stats (Engine.store engine) in
  let hits0 = s0.Store.hits and misses0 = s0.Store.misses in
  let skips0 = s0.Store.filter_skips and flushes0 = s0.Store.flushes in
  let layers () = List.fold_left (fun a n -> a +. ms t n) 0.0 layer_spans in
  List.iteri
    (fun i job ->
      t.jobs <- t.jobs + 1;
      let run0 = ms t "engine.run_job" and layers0 = layers () in
      let whole () =
        let r = whole_job t "engine.run_job" (fun () -> Engine.run_job engine job) in
        count t "retries" (float r.Stats.r_retries)
      in
      (* alternate which of the two runs first, so the caches the first
         one warms favour neither side of [engine.fixed_ms] *)
      if (first + i) mod 2 = 0 then begin
        whole ();
        replay_job t ~store:mirror job
      end
      else begin
        replay_job t ~store:mirror job;
        whole ()
      end;
      t.fixed_ms :=
        (ms t "engine.run_job" -. run0 -. (layers () -. layers0)) :: !(t.fixed_ms))
    jobs;
  let s = Store.stats (Engine.store engine) in
  count t "store_hits" (float (s.Store.hits - hits0));
  count t "store_misses" (float (s.Store.misses - misses0));
  count t "filter_skips" (float (s.Store.filter_skips - skips0));
  count t "flushes" (float (s.Store.flushes - flushes0))

(* ---------------------------------------------------------------- *)
(* metrics                                                           *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

let c t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Every per-layer figure, each tied to the span whose calls it
   describes: a figure is given only when the replay made that call. *)
let layer_metrics t =
  let time name = (name ^ "_ms", "ms", name, fun () -> per_call t name) in
  let kw name = (name ^ "_kw", "kw", name, fun () -> kw_per_call t name) in
  let children () =
    List.fold_left
      (fun a n -> a +. per_call t n)
      0.0
      [ "lanes.construct"; "lanes.completion"; "lanewidth.trace"; "lanewidth.hierarchy" ]
  in
  let provers () = max 1.0 (c t "provers") in
  let steps () = float (calls t "delta.step") in
  [
    time "interval.rep";
    ( "interval.width_mean", "count", "interval.rep",
      fun () -> c t "width" /. float (calls t "interval.rep") );
    time "lanes.construct";
    time "lanes.completion";
    ("lanes.count_mean", "count", "cert.prepare", fun () -> c t "lanes" /. provers ());
    ( "lanes.congestion_mean", "count", "cert.prepare",
      fun () -> c t "congestion" /. provers () );
    time "lanewidth.trace";
    time "lanewidth.hierarchy";
    time "cert.prepare";
    ( "cert.annotate_ms", "ms", "cert.prepare",
      fun () -> per_call t "cert.prepare" -. children () );
    kw "cert.prepare";
    ( "cert.memo_hit_ratio", "ratio", "cert.prepare",
      fun () -> ratio (c t "memo_hits") (c t "memo_lookups") );
    ( "cert.frames_per_edge", "count", "cert.prepare",
      fun () -> ratio (c t "frames") (c t "edges") );
    ( "cert.transported_per_edge", "count", "cert.prepare",
      fun () -> ratio (c t "transported") (c t "edges") );
    time "pls.pointer";
    time "pls.verify";
    kw "pls.verify";
    time "pls.label_bits";
    time "bundle.encode";
    kw "bundle.encode";
    time "bundle.decode";
    kw "bundle.decode";
    time "store.key";
    time "store.find";
    time "store.add";
    ( "store.hit_ratio", "ratio", "store.find",
      fun () -> ratio (c t "store_hits") (c t "store_hits" +. c t "store_misses") );
    (* 0 on a memory store: it has no filter and commits nothing *)
    ( "store.filter_skip_ratio", "ratio", "store.find",
      fun () -> ratio (c t "filter_skips") (c t "store_misses") );
    ("store.flushes", "count", "store.find", fun () -> c t "flushes");
    ( "engine.run_job_ms", "ms", "engine.run_job",
      fun () -> per_job t (ms t "engine.run_job") );
    (* each job's whole time minus its replayed layer calls: a
       difference of two timings of the same work, so a median resists
       the odd collection that lands in one of them *)
    ( "engine.fixed_ms", "ms", "engine.run_job",
      fun () -> median (Array.of_list !(t.fixed_ms)) );
    time "engine.instantiate";
    ("engine.retries", "count", "engine.run_job", fun () -> c t "retries");
    time "delta.hit";
    time "delta.miss";
    ( "delta.miss_frac", "ratio", "delta.step",
      fun () -> float (calls t "delta.miss") /. steps () );
    ( "delta.reuse_ratio", "ratio", "delta.step",
      fun () -> ratio (c t "reused") (c t "reused" +. c t "changed") );
    ( "delta.verified_per_step", "count", "delta.step",
      fun () -> c t "verified" /. steps () );
    time "delta.apply";
  ]
  |> List.filter_map (fun (name, unit_, needs, value) ->
         if calls t needs > 0 then Some (m name (value ()) unit_) else None)

(* the sample size, the host's calibration slice time (layer times are
   not scaled by it), and the sample's median traced whole-job time
   against the untraced median the timed phase measured. The slice time
   is the mean, not the median the scaling uses: a slice is timed to the
   microsecond, so the median of a run can repeat exactly in the next. *)
let summary t ~untraced_ms =
  let slices = !calib_samples in
  [
    m "trace.sample_jobs" (float t.jobs) "count";
    m "host.calib_ms"
      (List.fold_left ( +. ) 0.0 slices /. float (List.length slices))
      "ms";
    m "trace.overhead_ratio"
      (median (Array.of_list !(t.run_job_ms)) /. untraced_ms)
      "ratio";
  ]

(* The traced run reports every per-layer metric. One that the sample's
   own calls do not give is taken from the first of [fallbacks] that
   gives it: the workload's own set-up, then the companions below. *)
let complete own fallbacks =
  List.fold_left
    (fun acc ms ->
      acc
      @ List.filter (fun x -> not (List.exists (fun a -> a.name = x.name) acc)) ms)
    own fallbacks

(* [Bundle.decode] of a bundle the replay stored: what a later hit on it
   pays *)
let decode_stored t g (bundle : Bundle.t) =
  let (module P) = Option.get (Svc.Registry.find "connected") in
  let decode_label = Lcp_cert.Certificate.decode ~decode_state:P.decode_state in
  ignore (span t "bundle.decode" (fun () -> Bundle.decode ~decode_label g bundle))

(* The server companion of an in-process workload: its sample jobs sent
   one at a time to a private daemon; the server's figures, and a line
   for each reply whose verdict is not the expected one. *)
let server_companion ~exe jobs =
  let replies, server = Daemon.companion ~exe jobs in
  ( List.map (fun (name, value, unit_) -> m name value unit_) server,
    Workloads.check_verdicts
      (List.map (fun r -> (r.Daemon.job, r.Daemon.verdict)) replies) )

(* ---------------------------------------------------------------- *)
(* the workloads' traced replays                                     *)

(* delta_pw: a session of its own runs [cycles] cycles, each step timed
   whole; a mirror built from the same calls the session makes (apply,
   key, find, transplant, a session-long prover whose memo stays warm,
   encode, verify, add) replays each step layer by layer. The bundles
   the mirror stores are decoded afterwards. *)
let delta_replay ~cycles ~seed =
  let base = Workloads.delta_base in
  let d = Workloads.open_delta base ~seed in
  let (module P) = Option.get (Svc.Registry.find "connected") in
  let module I = Incr.Make (P.A) in
  let module T1 = Lcp_cert.Theorem1.Make (P.A) in
  let scheme = T1.edge_scheme ~k:2 () in
  let n = Graph.n d.Workloads.g0 in
  let ids =
    let cfg = Config.random_ids (Random.State.make [| base.Manifest.seed |]) d.g0 in
    Array.init n (Config.id cfg)
  in
  let mirror = Store.create () in
  let labels_of = Hashtbl.create 16 in
  let stored = ref [] in
  let cur_graph = ref d.g0 in
  let cur_rep = ref (Svc.Delta.fresh_rep d.g0) in
  let certify t g rep cfg key =
    match traced_prepare t cfg rep (fun () -> I.P.prepare ~rep cfg) with
    | Ok art when art.I.P.holds -> (
        let labels = art.I.P.labels in
        prepared_counts t ~lane_count:art.I.P.lane_count
          ~congestion:art.I.P.congestion labels;
        match
          span t "bundle.encode" (fun () ->
              Bundle.encode ~encode_label:scheme.Scheme.es_encode g labels)
        with
        | Error _ -> ()
        | Ok bundle ->
            ignore (span t "pls.verify" (fun () -> Scheme.run_edge cfg scheme labels));
            let label_bits =
              span t "pls.label_bits" (fun () ->
                  Scheme.max_edge_label_bits scheme labels)
            in
            span t "store.add" (fun () ->
                Store.add mirror
                  { Store.e_key = key; e_bundle = bundle; e_label_bits = label_bits });
            stored := (g, bundle) :: !stored;
            Hashtbl.replace labels_of (Store.key_hex key) labels)
    | _ -> ()
  in
  let mirror_step t ops =
    let delta = Result.get_ok (Incr.parse_delta ops) in
    let g1 = span t "delta.apply" (fun () -> Incr.apply !cur_graph delta) in
    let cfg = Config.make ~ids g1 in
    let key =
      span t "store.key" (fun () -> Store.key ~property:"connected" ~k:2 g1)
    in
    let found = span t "store.find" (fun () -> Store.find mirror key) in
    count t (if found = None then "store_misses" else "store_hits") 1.0;
    let rep =
      span t "interval.rep" (fun () ->
          match Incr.transplant !cur_rep g1 with
          | Ok r -> r
          | Error _ -> Svc.Delta.fresh_rep g1)
    in
    count t "width" (float (Rep.width rep));
    (match found with
    | Some _ ->
        let labels = Hashtbl.find labels_of (Store.key_hex key) in
        ignore (span t "pls.verify" (fun () -> Scheme.run_edge cfg scheme labels))
    | None -> certify t g1 rep cfg key);
    cur_graph := g1;
    cur_rep := rep
  in
  (* the session's base, then one untraced cycle, as in set-up *)
  let g0 = d.g0 in
  certify (create ()) g0 !cur_rep (Config.make ~ids g0)
    (Store.key ~property:"connected" ~k:2 g0);
  let scratch = create () in
  List.iter
    (fun (ops, _) ->
      ignore (Workloads.step d ops);
      mirror_step scratch ops)
    (Workloads.delta_steps d 1);
  stored := [];
  let t = create () in
  List.iter
    (fun (ops, _) ->
      t.jobs <- t.jobs + 1;
      let t0 = now_ms () in
      let _, info = Workloads.step d ops in
      let dt = now_ms () -. t0 in
      t.run_job_ms := dt :: !(t.run_job_ms);
      add_ms t "delta.step" dt;
      if info.Svc.Delta.pi_mode = "cached" then add_ms t "delta.hit" dt
      else begin
        add_ms t "delta.miss" dt;
        count t "reused" (float info.Svc.Delta.pi_reused);
        count t "changed" (float info.Svc.Delta.pi_changed)
      end;
      count t "verified" (float info.Svc.Delta.pi_verified);
      mirror_step t ops)
    (Workloads.delta_steps d cycles);
  List.iter (fun (g, b) -> decode_stored t g b) (List.rev !stored);
  (t, layer_metrics t)

(* The delta companion of the other workloads: one cycle of delta_pw's
   session, for the delta layer's figures. *)
let delta_companion ~seed = snd (delta_replay ~cycles:1 ~seed)

let fresh_pw2 ~seed ~exe =
  let t = create () in
  let engine = Engine.create ~cache_cap:Workloads.fresh_cache_cap () in
  let mirror = Store.create ~cap:Workloads.fresh_cache_cap () in
  let sample = List.init Workloads.trace_sample (Workloads.fresh_order ~seed) in
  replay_engine t ~engine ~mirror sample;
  List.iter
    (fun job ->
      let g = Result.get_ok (graph_of_job job) in
      let key = Store.key ~property:job.Manifest.property ~k:job.Manifest.k g in
      Option.iter
        (fun e -> decode_stored t g e.Store.e_bundle)
        (Store.find mirror key))
    sample;
  let server, failures = server_companion ~exe sample in
  (t, complete (layer_metrics t) [ server; delta_companion ~seed ], failures)

(* store [jobs] in both the engine and its mirror, the mirror's calls
   traced in [t] *)
let fill t ~engine ~mirror jobs =
  List.iter
    (fun j ->
      ignore (Engine.run_job engine j);
      replay_job t ~store:mirror j)
    jobs

(* warm_pw2's sample only hits; the prover's layers, encode and store
   add come from its set-up, which proves the stored set *)
let warm_pw2 ~seed ~exe =
  (* the timed phase's first jobs, in the seed's replay order *)
  let sample = List.init Workloads.trace_sample (Workloads.warm_order ~seed) in
  let engine = Engine.create () and mirror = Store.create () in
  let setup = create () in
  fill setup ~engine ~mirror sample;
  let t = create () in
  replay_engine t ~engine ~mirror sample;
  let server, failures = server_companion ~exe sample in
  ( t,
    complete (layer_metrics t)
      [ layer_metrics setup; server; delta_companion ~seed ],
    failures )

let daemon_zipf ~seed ~server =
  let dir = Filename.concat Daemon.run_dir "trace" in
  Fun.protect
    ~finally:Daemon.remove_run_dir
    (fun () ->
      Daemon.mkdir_p dir;
      let engine =
        Engine.create ~cache_dir:(Filename.concat dir "e") ~write_batch:Daemon.write_batch ()
      in
      let mirror = Store.create ~dir:(Filename.concat dir "m") ~write_batch:Daemon.write_batch () in
      fill (create ()) ~engine ~mirror (Daemon.hot_universe ());
      let t = create () in
      replay_engine t ~engine ~mirror
        (Daemon.window ~skip:(Daemon.window_start seed) 512);
      Engine.flush engine;
      Store.flush mirror;
      let server = List.map (fun (name, value, unit_) -> m name value unit_) server in
      (t, complete (layer_metrics t) [ server; delta_companion ~seed ], []))

(* delta_pw's session is opened through [Engine.run_job] on its base;
   the engine's figures come from replaying that job, four times on a
   cold engine *)
let delta_pw ~seed ~exe =
  let t, own = delta_replay ~cycles:6 ~seed in
  let opening = create () in
  for first = 0 to 3 do
    replay_engine ~first opening ~engine:(Engine.create ()) ~mirror:(Store.create ())
      [ Workloads.delta_base ]
  done;
  let server, failures = server_companion ~exe [ Workloads.delta_base ] in
  (t, complete own [ layer_metrics opening; server ], failures)
