module Scheme = Lcp_pls.Scheme

module Make (A : Lcp_algebra.Algebra_sig.S) = struct
  module P = Prover.Make (A)
  module V = Verifier.Make (A)

  let max_lanes_for ~k = Lcp_lanes.Bounds.f (k + 1)

  let edge_scheme ?strategy ?rep ~k () =
    let max_lanes = max_lanes_for ~k in
    let prove cfg =
      let rep = match rep with None -> None | Some f -> f cfg in
      match P.prove ?strategy ?rep ~max_lanes cfg with
      | Ok labels -> Some labels
      | Error _ -> None
    in
    {
      Scheme.es_name = Printf.sprintf "theorem1(%s, pw<=%d)" A.name k;
      es_prove = prove;
      es_verify = V.verify ~max_lanes;
      es_encode = Certificate.encode ~encode_state:A.encode;
    }

  let vertex_scheme ?strategy ?rep ~k () =
    (* bounded pathwidth implies bounded degeneracy: a width-(k+1) interval
       representation yields a (k+1)-degenerate orientation *)
    Scheme.edge_to_vertex ~d:(k + 1) (edge_scheme ?strategy ?rep ~k ())
end
