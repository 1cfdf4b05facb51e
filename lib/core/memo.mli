(** Switch and counters for the verifier's memos (see {!Verifier.Make}).

    There is no composition memo: [Compose.Make] computes f_B and f_P
    directly, because each hierarchy node is composed once per proof
    and once per verifier (DESIGN, "Why there is no composition memo").

    Soundness does not depend on [enabled]. The verifier's group-check
    memo keys on the physical identity of immutable frame values and
    remembers only passed checks, so its verdicts and reasons are those
    of the uncached verifier (the @packed suite asserts it over every
    registered property, honest and faulty labelings). Its view memo
    answers a vertex view it has accepted before, the same id, degree,
    lane bound and label values ([==]), with that verdict: the verifier
    is a function of the view, so the answer is the uncached one.
    Rejected views are never remembered, and a labeling new to the
    instance (a fresh proof, a decoded bundle, a disk-tier reload) runs
    every check. *)

val enabled : bool ref
(** Toggle the verifier's memos globally (default [true]). Flipping it
    affects [Verifier.Make] instances created before or after the flip;
    with it off the verifier runs every check on every view. Proofs
    and certificates do not depend on it. *)

val max_entries : int
(** Per-instance table cap for the verifier's group-check and view
    memos; a table at the cap is dropped wholesale. *)

val hits : int ref
(** The former composition memo's hit count. Nothing increments it: it
    reads 0, and so does [misses]. Kept for readers outside the library
    (a per-layer hit ratio in the benchmark) that still sample it. *)

val misses : int ref

val group_hits : int ref
(** Hierarchy nodes whose pure sub-checks the verifier skipped because
    its instance had passed them on the same frame before (see
    {!Verifier.Make}). *)

val group_misses : int ref

val view_hits : int ref
(** Vertex views the verifier answered without a check because its
    instance had accepted the same view before (see {!Verifier.Make}).
    Reported in the certd footer and [--server-stats]; not in canonical
    JSONL, nor in a delta report's patch info. *)

val view_misses : int ref

val counters : unit -> (string * int) list
(** Snapshot as [(name, count)] pairs: [group_hit], [group_miss],
    [view_hit], [view_miss]. *)

val reset_counters : unit -> unit
(** Zero the group and view counters. *)
