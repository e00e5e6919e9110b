(* Metric names and units, and the result line.

   Every workload prints the same metric names: the end-to-end set with
   [--trace 0], the per-layer set with [--trace 1]. A per-layer metric of
   a layer a workload does not drive reads 0. latency_tail_us is measured
   with the end-to-end set, from the untraced work, but printed with the
   per-layer set: on the replay workloads it moves with the host's memory
   system by more than any bound allowed (see README.md, Noise). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("events_per_s", "1/s");
    ("cpu_us_per_event", "us");
    ("alloc_bytes_per_event", "B");
    ("rss_mb", "MB");
    ("latency_p50_us", "us");
  ]

let per_layer =
  [
    ("ingest.framing.ns_per_event", "ns");
    ("ingest.framing.bytes_per_event", "B");
    ("ingest.framing.crc_errors", "count");
    ("ingest.admission.ns_per_event", "ns");
    ("ingest.admission.reordered_frac", "ratio");
    ("ingest.admission.duplicates", "count");
    ("ingest.admission.max_depth", "count");
    ("ingest.admission.gaps", "count");
    ("poet.ns_per_event", "ns");
    ("poet.arena_bytes_per_event", "B");
    ("poet.vc_words_per_event", "words");
    ("ocep.engine.ns_per_event", "ns");
    ("ocep.engine.alloc_bytes_per_event", "B");
    ("ocep.engine.terminating_frac", "ratio");
    ("ocep.engine.searches_per_arrival", "ratio");
    ("ocep.engine.nodes_per_search", "ratio");
    ("ocep.engine.backjumps_per_search", "ratio");
    ("ocep.engine.pinned_skipped_frac", "ratio");
    ("ocep.engine.match_yield", "ratio");
    ("ocep.engine.history_entries", "count");
    ("ocep.engine.reports", "count");
    ("service.client.ns_per_event", "ns");
    ("service.server.overhead_us_per_event", "us");
    ("service.server.queue_depth_max", "count");
    ("service.server.shard_skew", "ratio");
    ("service.session.connect_ms", "ms");
    ("service.session.attach_ms", "ms");
    ("service.session.stream_ms", "ms");
    ("service.session.drain_ms", "ms");
    ("service.session.sessions_per_s", "1/s");
    ("latency_tail_us", "us");
    ("trace.unattributed_frac", "ratio");
    ("trace.overhead_frac", "ratio");
    ("trace.engine_hist_ratio", "ratio");
    ("samples.latency", "count");
    ("samples.setup", "count");
  ]

(* How far the layer self times may fall short of the traced
   measured-phase wall time: the remainder is the benchmark's own loop
   and span bookkeeping between spans. *)
let unattributed_tolerance = 0.15

type t = {
  attempted : int;  (* checked operations: replays, chunks, sessions *)
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  lines : string list;  (* human-readable notes, printed before the result *)
}

let value_of values name = match List.assoc_opt name values with Some v -> v | None -> 0.

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json ~correct r ~trace =
  let table, values = if trace then (per_layer, r.layers @ r.e2e) else (end_to_end, r.e2e) in
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number (value_of values name)) unit)
      table
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    r.attempted r.failed (String.concat ", " metrics)
