(** Certification job manifests: the workload description the batch
    driver streams. A manifest is a line-oriented text file; [#] starts
    a comment, blank lines are skipped, and every remaining line is one
    job given as whitespace-separated [key=value] tokens:

    {v
    # graph from a file, format inferred from the extension
    file=graphs/karate.g6 property=connected k=3 seed=11

    # generated graph (no file needed); gseed seeds the generator
    gen=random n=80 k=2 gseed=7 property=bipartite seed=5
    gen=cycle n=24 property=connected k=2
    v}

    Keys: exactly one of [file=PATH] | [gen=FAMILY]; [property=NAME]
    (required); [k=INT] (required, >= 1); optional [n=INT] (generated
    sources, default 24), [gseed=INT] (generator seed, default 0),
    [seed=INT] (id-assignment seed, default 0), [id=NAME] (job label,
    default "job<line>"). Unknown keys are an error — typos must not
    silently change a workload. *)

type source =
  | File of string
  | Generated of { family : string; n : int; gen_seed : int }

type job = {
  job_id : string;
  source : source;
  property : string;
  k : int;
  seed : int;
}

let known_keys = [ "file"; "gen"; "n"; "gseed"; "property"; "k"; "seed"; "id" ]

let err line msg = Error (Printf.sprintf "manifest, line %d: %s" line msg)

let parse_job ~line l =
  let ( let* ) = Result.bind in
  let* kvs =
    List.fold_left
      (fun acc tok ->
        let* acc = acc in
        match String.index_opt tok '=' with
        | None ->
            err line (Printf.sprintf "token %S is not of the form key=value" tok)
        | Some i ->
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            if not (List.mem k known_keys) then
              err line
                (Printf.sprintf "unknown key %S (known: %s)" k
                   (String.concat ", " known_keys))
            else if List.mem_assoc k acc then
              err line (Printf.sprintf "duplicate key %S" k)
            else Ok ((k, v) :: acc))
      (Ok []) l
  in
  let get k = List.assoc_opt k kvs in
  let get_int k default =
    match get k with
    | None -> Ok default
    | Some v -> (
        match int_of_string_opt v with
        | Some x -> Ok x
        | None -> err line (Printf.sprintf "%s=%S is not an integer" k v))
  in
  let* source =
    match (get "file", get "gen") with
    | Some _, Some _ -> err line "both file= and gen= given; pick one"
    | None, None -> err line "missing graph source: give file=PATH or gen=FAMILY"
    | Some f, None ->
        let* () =
          match get "n" with
          | Some _ -> err line "n= only applies to generated sources"
          | None -> Ok ()
        in
        Ok (File f)
    | None, Some family ->
        let* n = get_int "n" 24 in
        let* gen_seed = get_int "gseed" 0 in
        if n < 0 then err line "n= must be nonnegative"
        else Ok (Generated { family; n; gen_seed })
  in
  let* property =
    match get "property" with
    | Some p -> Ok p
    | None -> err line "missing property= (see Registry.names ())"
  in
  let* k =
    match get "k" with
    | None -> err line "missing k= (the promised pathwidth bound)"
    | Some _ -> get_int "k" 0
  in
  let* () = if k < 1 then err line "k= must be >= 1" else Ok () in
  let* seed = get_int "seed" 0 in
  let job_id =
    match get "id" with Some id -> id | None -> Printf.sprintf "job%d" line
  in
  Ok { job_id; source; property; k; seed }

(* One raw manifest line -> [Ok None] (blank/comment), [Ok (Some job)],
   or a line-numbered error. Both the whole-string parser and the
   streaming reader go through here, so their tokenization and error
   text cannot drift apart. *)
let parse_line ~line raw =
  let l =
    match String.index_opt raw '#' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  let toks =
    String.split_on_char ' ' l
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "" && t <> "\r")
  in
  match toks with
  | [] -> Ok None
  | toks -> Result.map Option.some (parse_job ~line toks)

let parse s =
  let lines = String.split_on_char '\n' s in
  let ( let* ) = Result.bind in
  let* _, rev =
    List.fold_left
      (fun acc raw ->
        let* line, jobs = acc in
        match parse_line ~line raw with
        | Error _ as e -> e
        | Ok None -> Ok (line + 1, jobs)
        | Ok (Some job) -> Ok (line + 1, job :: jobs))
      (Ok (1, []))
      lines
  in
  Ok (List.rev rev)

let print_job j =
  let src =
    match j.source with
    | File f -> Printf.sprintf "file=%s" f
    | Generated { family; n; gen_seed } ->
        Printf.sprintf "gen=%s n=%d gseed=%d" family n gen_seed
  in
  Printf.sprintf "id=%s %s property=%s k=%d seed=%d" j.job_id src j.property
    j.k j.seed

let print jobs = String.concat "\n" (List.map print_job jobs) ^ "\n"

(* Streaming reader: fold [f] over the jobs of [file] one line at a
   time, never materializing the job list. Memory is O(longest line).
   Line numbering, tokenization, and error text are byte-identical to
   [load_file] (both run [parse_line]); the first bad line stops the
   fold with its error, after [f] has already seen every job above it.
   This is the corpus-scale entry point: a 10^6-line manifest streams
   through in constant space. *)
let fold_file file ~init ~f =
  match open_in_bin file with
  | exception Sys_error e -> Error (Printf.sprintf "%s: %s" file e)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go line acc =
            match input_line ic with
            | exception End_of_file -> Ok acc
            | exception Sys_error e -> Error (Printf.sprintf "%s: %s" file e)
            | raw -> (
                match parse_line ~line raw with
                | Error e -> Error (Printf.sprintf "%s: %s" file e)
                | Ok None -> go (line + 1) acc
                | Ok (Some job) -> go (line + 1) (f acc job))
          in
          go 1 init)

let iter_file file ~f = fold_file file ~init:() ~f:(fun () job -> f job)

let load_file file =
  Result.map List.rev (fold_file file ~init:[] ~f:(fun acc job -> job :: acc))
