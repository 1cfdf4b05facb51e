(* Global switch and counters for the group-check and view memos inside
   each [Verifier.Make] instance (one instance per algebra per job, or
   per delta session). The tables themselves are per-instance — states
   of different algebras must never share a table — but the counters
   aggregate globally so the service layer can report one hit/miss line
   per run. *)

let enabled = ref true

(* per-instance table size cap; a full table is dropped wholesale
   (Hashtbl.reset), bounding memory without an LRU's bookkeeping *)
let max_entries = 1 lsl 16

(* the composition memo's counters, kept only for readers that still
   report them: nothing increments them, so they stay at 0 *)
let hits = ref 0
let misses = ref 0

(* the verifier's group-check memo (see [Verifier.Make]): a hit is a
   hierarchy node whose pure sub-checks this instance has already
   passed on the very same frame value *)
let group_hits = ref 0
let group_misses = ref 0

(* the verifier's view memo: a hit is a vertex view this instance has
   already accepted, answered without a check *)
let view_hits = ref 0
let view_misses = ref 0

let counters () =
  [
    ("group_hit", !group_hits);
    ("group_miss", !group_misses);
    ("view_hit", !view_hits);
    ("view_miss", !view_misses);
  ]

let reset_counters () =
  group_hits := 0;
  group_misses := 0;
  view_hits := 0;
  view_misses := 0
