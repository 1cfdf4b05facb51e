(** The service-facing property catalogue: every entry packs an algebra
    from [lcp_algebra] together with a bit-level state decoder, which is
    what lets the store round-trip certificate bundles through their
    canonical encoding (encode on insert, decode + re-verify on every
    hit). Only algebras with an exact decoder can be served — an entry
    whose states cannot be reconstructed from bits could never be
    re-verified, and the cache must never be trusted blindly. *)

module type PROPERTY = sig
  module A : Lcp_algebra.Algebra_sig.S

  val decode_state : Lcp_util.Bitenc.reader -> A.state
end

type t = (module PROPERTY)

module A = Lcp_algebra

let connected : t =
  (module struct
    module A = A.Connectivity

    let decode_state = A.decode
  end)

let acyclic : t =
  (module struct
    module A = A.Acyclicity

    let decode_state = A.decode
  end)

let bipartite : t =
  (module struct
    module A = A.Bipartite

    let decode_state = A.decode
  end)

let triangle_free : t =
  (module struct
    module A = A.Triangle_free

    let decode_state = A.decode
  end)

let perfect_matching : t =
  (module struct
    module A = A.Matching

    let decode_state = A.decode
  end)

let catalogue : (string * t) list =
  [
    ("connected", connected);
    ("acyclic", acyclic);
    ("bipartite", bipartite);
    ("triangle_free", triangle_free);
    ("perfect_matching", perfect_matching);
  ]

let find name = List.assoc_opt name catalogue

let names () = List.map fst catalogue

let description_of (p : t) =
  let (module P) = p in
  P.A.description
