(** Delta sessions: re-certification of an evolving graph against the
    service engine.

    A session pins one base job (graph source, property, k, id seed)
    and keeps what the engine cannot know across edits: the current
    graph, its interval representation, the bundle last served, a table
    of the labelings it decoded or proved, and one [Theorem1.Make]
    instance whose verifier memo tables stay warm for the session's
    life. The property's algebra state type is existential (it comes
    out of [Registry] as a first-class module), so the typed machinery
    hides behind closures built once in [create].

    A step is an ordinary engine job on the edited graph
    ([Engine.certify], under [Engine.retrying]): store probe, decode
    and full verify on a hit; prove, encode, full verify and store on
    a miss or a rejected hit. What the session adds is its inputs:

    - the edited graph, the seed-drawn ids of the base (n is invariant
      under edge edits, so these are the ids an engine job on the
      edited graph draws);
    - a representation hint: the previous representation transplanted
      onto the edited graph, or a fresh one by the engine's policy
      when the edit escapes the old windows;
    - a decoder that first looks up the labeling the session already
      holds for a bundle value, so memory-tier hits skip the decode.

    Every served labeling passes the verifier at every vertex. A
    memory-tier hit recalls a labeling the session's verifier instance
    accepted when it served it before, and the instance answers each
    view it already passed from its view memo without a check; a new
    labeling or a disk-tier reload runs every check.

    Certificates are global (the spine is a shortest path of the
    current graph, pointer labels carry BFS distances), so one edit
    moves almost every label: a miss re-proves and verifies in full,
    and the dirty-window count is reported, not used.

    [full:true] only tags the step's mode [full]: the representation
    policy and the pipeline are the same, so the canonical JSONL of a
    [full] stream is byte-identical to the plain one (the [@incr] suite
    and the check.sh daemon smoke assert exactly that).

    Session state only advances when a step returns a report
    (exceptions leave it untouched, so retried attempts rerun whole);
    a well-formed delta advances the graph even when the property no
    longer holds (Declined) — the stream's shape is the client's
    business, judgements are ours. *)

module Graph = Lcp_graph.Graph
module Config = Lcp_pls.Config
module Incr = Lcp_cert.Incremental

type patch_info = {
  pi_mode : string;
      (** [open]: base certification; [patched]: miss on the
          transplanted representation; [rebuilt]: miss on a fresh
          representation; [full]: a miss forced to that tag;
          [cached]: store hit re-verified and served; [none]: nothing
          ran (bad delta, retry exhaustion) *)
  pi_edits : int;  (** operations in the normalized delta *)
  pi_dirty_windows : int;  (** window-overlap closure of the delta *)
  pi_changed : int;  (** edge labels proved this step: m on a miss *)
  pi_reused : int;  (** always 0: every miss proves every label *)
  pi_verified : int;  (** vertices verified: n when the step served *)
}

let no_info mode =
  {
    pi_mode = mode;
    pi_edits = 0;
    pi_dirty_windows = 0;
    pi_changed = 0;
    pi_reused = 0;
    pi_verified = 0;
  }

(* one line, no newlines: the wire protocol frames it as a single
   body line of a dreport *)
let info_json i =
  Printf.sprintf
    "{\"mode\":\"%s\",\"edits\":%d,\"dirty_windows\":%d,\"changed\":%d,\"reused\":%d,\"verified\":%d}"
    i.pi_mode i.pi_edits i.pi_dirty_windows i.pi_changed i.pi_reused
    i.pi_verified

type session = {
  s_job : Manifest.job;
  mutable s_edits : int;  (** edits consumed (including malformed ones) *)
  s_graph : unit -> Graph.t;
  s_bundle : unit -> Bundle.t option;
  s_exec :
    retry:Engine.retry_policy option ->
    full:bool ->
    id:string ->
    Incr.delta ->
    Stats.job_report * patch_info;
}

let base_job s = s.s_job

let edits s = s.s_edits

let graph s = s.s_graph ()

let bundle s = s.s_bundle ()

let now_ms () = Unix.gettimeofday () *. 1000.0

let fresh_rep = Engine.fresh_rep

let input_error (job : Manifest.job) ~id ~n ~m e =
  Engine.blank_report { job with job_id = id } ~n ~m ~t0:(now_ms ())
    (Stats.Input_error e)

let create ?retry engine (job : Manifest.job) =
  let t0 = now_ms () in
  let timing = engine.Engine.timing in
  let fail ~n ~m e =
    Error
      ( Engine.blank_report job ~n ~m ~t0 (Stats.Input_error e),
        no_info "none" )
  in
  match
    Timing.time timing Timing.Parse (fun () ->
        Engine.graph_of_source ~base_dir:(Engine.base_dir engine) ~k:job.k
          job.source)
  with
  | Error e -> fail ~n:0 ~m:0 e
  | Ok g0 -> (
      let n = Graph.n g0 in
      match Registry.find job.property with
      | None ->
          fail ~n ~m:(Graph.m g0)
            (Printf.sprintf "unknown property %S; catalogue: %s" job.property
               (String.concat ", " (Registry.names ())))
      | Some (module Pr) ->
          (* one prover and verifier for the session: the verifier's
             memos stay warm across steps *)
          let module T1 = Lcp_cert.Theorem1.Make (Pr.A) in
          (* memory-tier warm hits skip the bundle decode: the session
             remembers the labeling it decoded (or proved) for each
             bundle value it has served, keyed by content hash and
             guarded by physical identity of the bundle — a disk-tier
             reload is a fresh value and decodes as usual. A recalled
             labeling is the one this session's verifier accepted, so
             its views are answered from the view memo; a decoded one
             runs every check. *)
          let decoded : (string, Bundle.t * T1.P.labeling) Hashtbl.t =
            Hashtbl.create 64
          in
          let remember key bundle labels =
            if Hashtbl.length decoded > 512 then Hashtbl.reset decoded;
            Hashtbl.replace decoded (Cert_store.key_hex key) (bundle, labels)
          in
          let recall key bundle =
            match Hashtbl.find_opt decoded (Cert_store.key_hex key) with
            | Some (b, labels) when b == bundle -> Some labels
            | _ -> None
          in
          let cfg0 = Config.random_ids (Random.State.make [| job.seed |]) g0 in
          (* ids depend on n and the seed only; n is invariant under
             edge edits, so the assignment is reused verbatim — the
             same ids a fresh engine run of the edited graph draws *)
          let ids = Array.init n (Config.id cfg0) in
          let cur_graph = ref g0 in
          let cur_rep = ref None in
          let cur_bundle = ref None in
          (* effect-free until it returns: state commits only with a
             report, so retries rerun it whole *)
          let exec_once ~full (step_job : Manifest.job) (delta : Incr.delta) =
            let t0 = now_ms () in
            let g1 =
              Timing.time timing Timing.Parse (fun () ->
                  Incr.apply !cur_graph delta)
            in
            let cfg = Config.make ~ids g1 in
            let key = Cert_store.key ~property:job.property ~k:job.k g1 in
            (* transplant-else-fresh: deterministic in the edit stream.
               A miss forces it inside the prover's timing, as the
               engine's [default_rep]; a hit only to carry it on *)
            let rep =
              lazy
                (match !cur_rep with
                | None -> (fresh_rep g1, false)
                | Some rep -> (
                    match Incr.transplant rep g1 with
                    | Ok rep1 -> (rep1, true)
                    | Error _ -> (fresh_rep g1, false)))
            in
            let scheme =
              T1.edge_scheme
                ~rep:(fun _ -> Some (fst (Lazy.force rep)))
                ~k:job.k ()
            in
            let decode bundle =
              match recall key bundle with
              | Some labels -> Ok labels
              | None ->
                  Bundle.decode
                    ~decode_label:
                      (Lcp_cert.Certificate.decode
                         ~decode_state:Pr.decode_state)
                    g1 bundle
            in
            let report, outcome =
              Engine.certify engine ~job:step_job ~t0 ~cfg ~key scheme ~decode
            in
            let rep1, transplanted = Lazy.force rep in
            let bundle =
              match outcome with
              | Engine.Served (labels, bundle) ->
                  remember key bundle labels;
                  Some bundle
              | Engine.Unserved -> None
            in
            cur_graph := g1;
            cur_rep := Some rep1;
            cur_bundle := bundle;
            let served = Option.is_some bundle in
            let verified = if served then Graph.n g1 else 0 in
            let info =
              if report.Stats.r_cache_hit then
                { (no_info "cached") with pi_verified = verified }
              else
                {
                  (no_info
                     (if full then "full"
                      else if transplanted then "patched"
                      else "rebuilt"))
                  with
                  pi_dirty_windows = Incr.dirty_count rep1 delta;
                  pi_changed = (if served then Graph.m g1 else 0);
                  pi_verified = verified;
                }
            in
            (report, { info with pi_edits = Incr.delta_size delta })
          in
          let exec ~retry ~full ~id delta =
            let step_job = { job with job_id = id } in
            Engine.retrying ?retry engine ~job:step_job ~fallback:(no_info "none")
              (fun _ -> exec_once ~full step_job delta)
          in
          let session =
            {
              s_job = job;
              s_edits = 0;
              s_graph = (fun () -> !cur_graph);
              s_bundle = (fun () -> !cur_bundle);
              s_exec = exec;
            }
          in
          let report, info =
            exec ~retry ~full:false ~id:job.job_id Incr.empty_delta
          in
          let info =
            if info.pi_mode = "rebuilt" then { info with pi_mode = "open" }
            else info
          in
          Ok (session, report, info))

(** Apply one delta (already parsed) to the session. A malformed delta
    (self-loop, out-of-range vertex, add∩del conflict) is an
    [Input_error] and leaves the graph untouched; a well-formed one
    advances it whatever the verdict. [full] tags the step's mode. *)
let step_delta ?retry s ~full (d : Incr.delta) =
  s.s_edits <- s.s_edits + 1;
  let id = Printf.sprintf "%s#e%04d" s.s_job.Manifest.job_id s.s_edits in
  let g = s.s_graph () in
  match Incr.normalize g d with
  | Error e ->
      (input_error s.s_job ~id ~n:(Graph.n g) ~m:(Graph.m g) e, no_info "none")
  | Ok d -> s.s_exec ~retry ~full ~id d

(** Parse and apply one textual edit line ("add=0-1,2-3 del=4-5"). *)
let step ?retry s ~full ops =
  match Incr.parse_delta ops with
  | Error e ->
      s.s_edits <- s.s_edits + 1;
      let id = Printf.sprintf "%s#e%04d" s.s_job.Manifest.job_id s.s_edits in
      let g = s.s_graph () in
      (input_error s.s_job ~id ~n:(Graph.n g) ~m:(Graph.m g) e, no_info "none")
  | Ok d -> step_delta ?retry s ~full d
