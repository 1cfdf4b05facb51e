(** Certificate bundles: the full per-edge labeling of one certification
    job, serialized to a canonical bit string. The edge order is the
    graph's canonical edge enumeration (ascending [(u, v)], [u < v]), so
    the encoding is a pure function of (graph, labeling) and the store
    can compare and persist bundles byte for byte.

    A bundle is {e data}, not truth: decoding yields a candidate
    labeling that the engine re-verifies with the local verifier before
    serving. Decode failures are ordinary [Error]s, never crashes. *)

module Graph = Lcp_graph.Graph
module Bitenc = Lcp_util.Bitenc
module EM = Lcp_pls.Scheme.Edge_map

type t = { bytes : Bytes.t; bits : int }

let equal a b = a.bits = b.bits && Bytes.equal a.bytes b.bytes

let size_bits t = t.bits

(* One pass yields the bundle and its largest label. A label's encoding
   does not depend on the bit offset it starts at, so the writer
   position after a label minus the position before it is exactly the
   label's standalone size: for a labeling with one entry per edge of
   [g], as a prover returns, the largest is the figure
   [Scheme.max_edge_label_bits] gets by re-encoding each label on its
   own.

   Every bundle is written into [scratch], one writer kept for the
   process, and copied out once: a fresh writer would start at 16 bytes
   and grow by doubling, copying the stream each time. [Bitenc.reset]
   zeroes the used prefix and bumps the writer's epoch, which also
   empties a sharing encoder's tables, so a bundle's bytes do not depend
   on the bundles written before it. *)
let scratch = Bitenc.writer ~capacity:4096 ()

let encode_sized ~encode_label g labels =
  let w = scratch in
  Bitenc.reset w;
  Bitenc.varint w (Graph.n g);
  Bitenc.varint w (Graph.m g);
  let label_bits = ref 0 in
  let missing =
    Graph.fold_edges
      (fun e missing ->
        match missing with
        | Some _ -> missing
        | None -> (
            match EM.find labels e with
            | Some l ->
                let start = Bitenc.length_bits w in
                encode_label w l;
                label_bits := max !label_bits (Bitenc.length_bits w - start);
                None
            | None -> Some e))
      g None
  in
  match missing with
  | Some (u, v) ->
      Error (Printf.sprintf "bundle: labeling is missing edge %d-%d" u v)
  | None ->
      Ok
        ( { bytes = Bitenc.to_bytes w; bits = Bitenc.length_bits w },
          !label_bits )

let encode ~encode_label g labels =
  Result.map fst (encode_sized ~encode_label g labels)

let decode ~decode_label g t =
  let r = Bitenc.reader t.bytes in
  match
    let n = Bitenc.read_varint r in
    let m = Bitenc.read_varint r in
    if n <> Graph.n g || m <> Graph.m g then
      Error
        (Printf.sprintf
           "bundle: header says n=%d m=%d but the graph has n=%d m=%d" n m
           (Graph.n g) (Graph.m g))
    else begin
      let labels =
        Graph.fold_edges
          (fun e acc -> EM.add acc e (decode_label r))
          g EM.empty
      in
      let consumed = 8 * Bytes.length t.bytes - Bitenc.bits_remaining r in
      if consumed <> t.bits then
        Error
          (Printf.sprintf "bundle: decoded %d bits but the bundle claims %d"
             consumed t.bits)
      else Ok labels
    end
  with
  | res -> res
  | exception Invalid_argument msg ->
      Error (Printf.sprintf "bundle: corrupt encoding (%s)" msg)
