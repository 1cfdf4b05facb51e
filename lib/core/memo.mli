(** Switches and counters for composition memoization (see {!Compose}).

    Soundness does not depend on [enabled]: memo keys are the packed
    flat images of the exact inputs ([Algebra_sig.S.pack]), compared
    word for word on bucket collision, so a hit returns a value the
    algebra treats identically to what recomputation would produce, and
    encoded certificates are byte-identical with the memo on or off
    (the @graphcore and @packed suites assert this across every
    registered property). The verifier's group-check memo keys on the
    physical identity of immutable frame values and remembers only
    passed checks, so its verdicts and reasons are those of the uncached
    verifier (the @packed suite asserts it over every registered
    property, honest and faulty labelings). Its view memo answers a
    vertex view it has accepted before, the same id, degree, lane bound
    and label values ([==]), with that verdict: the verifier is a
    function of the view, so the answer is the uncached one. Rejected
    views are never remembered, and a labeling new to the instance
    (a fresh proof, a decoded bundle, a disk-tier reload) runs every
    check. *)

val enabled : bool ref
(** Toggle memoization globally (default [true]). Flipping it affects
    [Compose.Make] and [Verifier.Make] instances created before or after
    the flip; with it off the verifier runs every check on every
    view. *)

val max_entries : int
(** Per-instance table cap, for the composition memo and the verifier's
    group-check and view memos alike; a table at the cap is dropped
    wholesale. *)

val hits : int ref
val misses : int ref
val intern_hits : int ref
val intern_misses : int ref

val key_fallbacks : int ref
(** Number of memo/intern lookups skipped because a state's [pack]
    raised. Packs are total, so anything nonzero flags a broken algebra
    contract; the count is exported (as [memo_key_fallback]) so it shows
    up in [--server-stats] instead of silently disabling memoization. *)

val group_hits : int ref
(** Hierarchy nodes whose pure sub-checks the verifier skipped because
    its instance had passed them on the same frame before (see
    {!Verifier.Make}). *)

val group_misses : int ref

val view_hits : int ref
(** Vertex views the verifier answered without a check because its
    instance had accepted the same view before (see {!Verifier.Make}).
    Reported in the certd footer and [--server-stats]; not in canonical
    JSONL, and not in a delta report's [memo_hits]. *)

val view_misses : int ref

val counters : unit -> (string * int) list
(** Snapshot as [(name, count)] pairs: [memo_hit], [memo_miss],
    [intern_hit], [intern_miss], [memo_key_fallback], [group_hit],
    [group_miss], [view_hit], [view_miss]. *)

val reset_counters : unit -> unit
