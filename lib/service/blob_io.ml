(** An injectable substrate for every file operation the certification
    service performs. The API is a {e record of operations} — read,
    write, rename, remove, list, mkdir, stat — so the storage layer
    ([Cert_store]) never touches [Sys] or channels directly and a test
    (or [certd --faults]) can swap the real backend for one that
    injects disk faults at precise points in the operation sequence.

    Two backends ship here:

    - [real]: the obvious implementation over the OCaml stdlib. Every
      failure surfaces as [Sys_error] (Unix errors are converted), so
      callers have exactly one exception to reason about.
    - [inject ~plan real]: wraps any backend and executes a {e fault
      plan}. Mutating operations (write/rename/remove/mkdir) are
      numbered 1, 2, 3, ... and a plan entry fires when the counter
      matches: fail with an errno-style tag, tear a write at a byte
      offset, silently flip one bit of the written contents (bit rot),
      or crash — halting the whole operation sequence, as a killed
      process would.

    A crash is modelled by the [Crashed] exception. It is deliberately
    {e not} a [Sys_error]: the storage layer catches [Sys_error] and
    degrades, but a crash must propagate — a dead process does not
    handle exceptions. Campaign drivers catch [Crashed] at the top,
    "reboot" by reopening the store, and assert recovery. *)

exception Crashed of string
(** Simulated process death at an operation boundary. The payload names
    the path of the operation that was executing (or about to). *)

type t = {
  read_file : string -> string;  (** whole contents of a regular file *)
  write_file : string -> string -> unit;
      (** create-or-truncate, then write the full contents *)
  append_file : string -> string -> unit;
      (** create-or-append: write the contents at the end of the file.
          A mutating op like [write_file] — [torn@]/[flip@]/[crash@]
          plans apply to the appended chunk. *)
  sync : string -> unit;
      (** fsync the file's — or directory's, for group commit — contents
          to stable storage. Not counted as a mutating op (plans written
          against the PR 3 numbering keep firing at the same points),
          but dead after a crash. *)
  rename : string -> string -> unit;
  remove : string -> unit;
  list_dir : string -> string array;
  mkdir : string -> unit;  (** one level, mode 0o755 *)
  file_exists : string -> bool;
  is_directory : string -> bool;
  mtime : string -> float;
  touch : string -> unit;
      (** set the file's mtime to "now" (recency marker for mtime-LRU) *)
}

let of_unix_error path e =
  Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let real : t =
  {
    read_file =
      (fun p ->
        let ic = open_in_bin p in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic)));
    write_file =
      (fun p s ->
        let oc = open_out_bin p in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc s));
    append_file =
      (fun p s ->
        let oc =
          open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ]
            0o644 p
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc s));
    sync =
      (fun p ->
        try
          (* O_RDONLY so directories can be synced too: the cert
             store's group commit fsyncs the cache directory once per
             batch to make its renames durable. fsync on a read-only
             fd flushes the same inode either way. *)
          let fd = Unix.openfile p [ Unix.O_RDONLY ] 0o644 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> Unix.fsync fd)
        with Unix.Unix_error (e, _, _) -> raise (of_unix_error p e));
    rename = Sys.rename;
    remove = Sys.remove;
    list_dir = Sys.readdir;
    mkdir = (fun p -> Sys.mkdir p 0o755);
    file_exists = Sys.file_exists;
    is_directory = (fun p -> Sys.file_exists p && Sys.is_directory p);
    mtime =
      (fun p ->
        try (Unix.stat p).Unix.st_mtime
        with Unix.Unix_error (e, _, _) -> raise (of_unix_error p e));
    touch =
      (fun p ->
        try
          let now = Unix.gettimeofday () in
          Unix.utimes p now now
        with Unix.Unix_error (e, _, _) -> raise (of_unix_error p e));
  }

(* ---------------------------------------------------------------- *)
(* fault plans                                                       *)

type fault =
  | Fail of string
      (** the op raises [Sys_error "<path>: <tag>"]; nothing happens *)
  | Torn of int
      (** a [write_file] writes only the first [b] bytes, then the
          process crashes (the classic torn write). On a non-write op
          this degenerates to [Crash]. *)
  | Flip of int
      (** a [write_file] silently flips bit [b] of the contents (bit
          rot); the op "succeeds". No effect on non-write ops. *)
  | Crash  (** die before the op; every later op raises [Crashed] too *)

type planned = {
  at : int;  (** 1-based index into the sequence of mutating ops *)
  repeat : bool;  (** fire on every op with index >= [at] (syntax [N+]) *)
  on : fault;
}

type counters = {
  mutable ops : int;  (** mutating ops attempted so far *)
  mutable injected : int;  (** plan entries that actually fired *)
  mutable crashed : bool;
}

let planned_to_string p =
  let kind, arg =
    match p.on with
    | Fail tag -> ("fail", ":" ^ tag)
    | Torn b -> ("torn", Printf.sprintf ":%d" b)
    | Flip b -> ("flip", Printf.sprintf ":%d" b)
    | Crash -> ("crash", "")
  in
  Printf.sprintf "%s@%d%s%s" kind p.at (if p.repeat then "+" else "") arg

let plan_to_string plan = String.concat "," (List.map planned_to_string plan)

(** Plan syntax, comma-separated:
    - [fail@N] or [fail@N:TAG] — op N raises [Sys_error] (default tag EIO)
    - [fail@N+:TAG]            — op N and every later op fail (persistent)
    - [torn@N:B]               — op N (a write) writes B bytes, then crashes
    - [flip@N:B]               — op N (a write) flips bit B, silently
    - [crash@N]                — die just before op N *)
let parse_plan s =
  let ( let* ) = Result.bind in
  let item tok =
    let err msg = Error (Printf.sprintf "fault plan, %S: %s" tok msg) in
    match String.index_opt tok '@' with
    | None -> err "expected kind@N (e.g. fail@3:ENOSPC)"
    | Some i ->
        let kind = String.sub tok 0 i in
        let rest = String.sub tok (i + 1) (String.length tok - i - 1) in
        let num, arg =
          match String.index_opt rest ':' with
          | None -> (rest, None)
          | Some j ->
              ( String.sub rest 0 j,
                Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
        in
        let num, repeat =
          let l = String.length num in
          if l > 0 && num.[l - 1] = '+' then (String.sub num 0 (l - 1), true)
          else (num, false)
        in
        let* at =
          match int_of_string_opt num with
          | Some n when n >= 1 -> Ok n
          | Some _ -> err "op index must be >= 1"
          | None -> err (Printf.sprintf "%S is not an op index" num)
        in
        let* on =
          match (kind, arg) with
          | "fail", None -> Ok (Fail "EIO")
          | "fail", Some tag when tag <> "" -> Ok (Fail tag)
          | "fail", Some _ -> err "empty errno tag after ':'"
          | "torn", Some b | "flip", Some b -> (
              match int_of_string_opt b with
              | Some b when b >= 0 ->
                  Ok (if kind = "torn" then Torn b else Flip b)
              | _ -> err "byte/bit offset must be a nonnegative integer")
          | "torn", None -> err "torn needs a byte offset (torn@N:B)"
          | "flip", None -> err "flip needs a bit offset (flip@N:B)"
          | "crash", None -> Ok Crash
          | "crash", Some _ -> err "crash takes no argument"
          | k, _ ->
              err
                (Printf.sprintf "unknown fault kind %S (fail, torn, flip, crash)"
                   k)
        in
        Ok { at; repeat; on }
  in
  let toks =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  if toks = [] then Error "fault plan is empty"
  else
    List.fold_left
      (fun acc tok ->
        let* acc = acc in
        let* p = item tok in
        Ok (p :: acc))
      (Ok []) toks
    |> Result.map List.rev

let flip_bit_of_string s b =
  let bytes = Bytes.of_string s in
  let i = b / 8 in
  if i < Bytes.length bytes then
    Bytes.set bytes i
      (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (b mod 8))));
  Bytes.unsafe_to_string bytes

(** Wrap [base] so that the given plan fires against the sequence of
    mutating operations. Returns the wrapped backend and live counters
    (op count, injections, crash state) for campaign reporting. *)
let inject ~plan base =
  let c = { ops = 0; injected = 0; crashed = false } in
  let die path =
    c.crashed <- true;
    raise (Crashed path)
  in
  (* every op — including reads — on a crashed backend is dead *)
  let alive path = if c.crashed then raise (Crashed path) in
  let next path =
    alive path;
    c.ops <- c.ops + 1;
    match
      List.find_opt (fun p -> p.at = c.ops || (p.repeat && c.ops >= p.at)) plan
    with
    | Some p ->
        c.injected <- c.injected + 1;
        Some p.on
    | None -> None
  in
  let mutate1 op path =
    match next path with
    | None -> op path
    | Some (Fail tag) -> raise (Sys_error (path ^ ": " ^ tag))
    | Some (Torn _ | Crash) -> die path
    | Some (Flip _) -> op path
  in
  let io =
    {
      read_file =
        (fun p ->
          alive p;
          base.read_file p);
      write_file =
        (fun p s ->
          match next p with
          | None -> base.write_file p s
          | Some (Fail tag) -> raise (Sys_error (p ^ ": " ^ tag))
          | Some Crash -> die p
          | Some (Torn b) ->
              base.write_file p (String.sub s 0 (min b (String.length s)));
              die p
          | Some (Flip b) -> base.write_file p (flip_bit_of_string s b));
      append_file =
        (fun p s ->
          match next p with
          | None -> base.append_file p s
          | Some (Fail tag) -> raise (Sys_error (p ^ ": " ^ tag))
          | Some Crash -> die p
          | Some (Torn b) ->
              base.append_file p (String.sub s 0 (min b (String.length s)));
              die p
          | Some (Flip b) -> base.append_file p (flip_bit_of_string s b));
      sync =
        (fun p ->
          alive p;
          base.sync p);
      rename =
        (fun a b ->
          match next a with
          | None -> base.rename a b
          | Some (Fail tag) -> raise (Sys_error (a ^ ": " ^ tag))
          | Some (Torn _ | Crash) -> die a
          | Some (Flip _) -> base.rename a b);
      remove = mutate1 (fun p -> base.remove p);
      mkdir = mutate1 (fun p -> base.mkdir p);
      list_dir =
        (fun p ->
          alive p;
          base.list_dir p);
      file_exists =
        (fun p ->
          alive p;
          base.file_exists p);
      is_directory =
        (fun p ->
          alive p;
          base.is_directory p);
      mtime =
        (fun p ->
          alive p;
          base.mtime p);
      touch =
        (fun p ->
          alive p;
          base.touch p);
    }
  in
  (io, c)
