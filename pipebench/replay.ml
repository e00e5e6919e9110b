(* The replay workloads: one engine replays a recorded wire log through
   the calls a service shard makes for each frame -- [Framing.next], then
   [Admission.push], whose [emit] calls [Engine.feed_wire] -- without the
   network.

   A run is one untimed warm-up replay, then replays back to back until
   the time is up; each replay builds a fresh POET and engine (the setup
   it times) and is checked against the oracle digest. In a traced run
   every other replay is traced, so the untraced ones give the tracing
   overhead. *)

module Clock = Ocep_base.Clock
module Arena = Ocep_base.Arena
module Vc_pool = Ocep_base.Vc_pool
module Poet = Ocep_poet.Poet
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Matcher = Ocep.Matcher
module Histogram = Ocep_stats.Histogram
module Wire = Ocep_ingest.Wire
module Framing = Ocep_ingest.Framing
module Admission = Ocep_ingest.Admission

type input = {
  names : string array;
  nets : Compile.t list;
  log : string;  (* path of the framed recording *)
  frames : int;  (* frames in the log, duplicates included *)
  payload_bytes : int;  (* log bytes after the header *)
  events : int;  (* distinct events: what admission must release *)
  oracle : string;
  notes : string list;
}

let prepare ~work ~label ~seed ~oracle_digest ~case ~traces ~events ~degraded =
  let r = Inputs.record ~case ~traces ~seed ~max_events:events in
  let nets = Inputs.compile_all [ r.Inputs.pattern ] in
  let frames = if degraded then Inputs.degrade ~seed r.Inputs.wires else r.Inputs.wires in
  let log = Filename.concat work (label ^ ".wire") in
  let marks = Inputs.write_log log ~names:r.Inputs.names frames in
  let digest, _ = Inputs.oracle ~names:r.Inputs.names ~nets r.Inputs.raws in
  {
    names = r.Inputs.names;
    nets;
    log;
    frames = Array.length frames;
    payload_bytes = List.nth marks (List.length marks - 1) - List.hd marks;
    events = Array.length r.Inputs.raws;
    oracle = Option.value oracle_digest ~default:digest;
    notes =
      [
        Printf.sprintf "input: %s, %d traces, %d events (%d frames), busiest trace %d events"
          case (Array.length r.Inputs.names) (Array.length r.Inputs.raws) (Array.length frames)
          (Inputs.busiest_trace r);
      ];
  }

let l_replay = 0
let l_framing = 1
let l_admission = 2
let l_poet = 3
let l_engine = 4
let layer_names = [| "replay"; "ingest.framing"; "ingest.admission"; "poet"; "ocep.engine" |]

(* what the traced replays add up *)
type traced = {
  tr : Span.t;
  self : float array;  (* per-layer self time, us, over all traced replays *)
  mutable wall_us : float;
  mutable events : int;
  mutable engine_words : float;  (* minor words allocated inside ocep.engine spans *)
  mutable term_engine_us : float;  (* ocep.engine time on terminating arrivals *)
  mutable hist_us : float;  (* what the engine's latency histogram recorded *)
}

type rep = {
  setup_s : float;
  wall_s : float;
  cpu_s : float;
  alloc_b : float;
  rss_mb : float;
  lat_n : int;  (* terminating-arrival samples of this replay *)
  lat_q : float;  (* the percentile its tail reports *)
  lat_p50 : float;
  lat_tail : float;
  admitted : int;
  ok : bool;
  counters : (string * float) list;
}

let ratio a b = if b > 0. then a /. b else 0.

let counters inp engine poet (st : Admission.stats) crc =
  let f = float_of_int in
  let ev = f st.Admission.admitted in
  let s = Engine.search_stats engine in
  let searches = f s.Matcher.searches in
  let term = f (Engine.terminating_arrivals engine) in
  let skipped = f (Engine.pinned_skipped engine) in
  [
    ("ingest.framing.bytes_per_event", ratio (f inp.payload_bytes) (f inp.frames));
    ("ingest.framing.crc_errors", f crc);
    ("ingest.admission.reordered_frac", ratio (f st.Admission.reordered) (f st.Admission.frames));
    ("ingest.admission.duplicates", f st.Admission.duplicates);
    ("ingest.admission.max_depth", f st.Admission.max_depth);
    ("ingest.admission.gaps", f st.Admission.gaps);
    ("poet.arena_bytes_per_event", ratio (f (Arena.footprint_bytes (Poet.arena poet))) ev);
    ("poet.vc_words_per_event", ratio (f (Vc_pool.words (Poet.vc_pool poet))) ev);
    ("ocep.engine.terminating_frac", ratio term ev);
    ("ocep.engine.searches_per_arrival", ratio searches term);
    ("ocep.engine.nodes_per_search", ratio (f s.Matcher.nodes) searches);
    ("ocep.engine.backjumps_per_search", ratio (f s.Matcher.backjumps) searches);
    ("ocep.engine.pinned_skipped_frac", ratio skipped (searches +. skipped));
    ("ocep.engine.match_yield", ratio (f (Engine.matches_found engine)) searches);
    ("ocep.engine.history_entries", f (Engine.history_entries engine));
    ("ocep.engine.reports", f (List.length (Engine.reports engine)));
  ]

let replay ?traced ~lat inp =
  (* the previous replay's engine is garbage: collect it outside the
     timed phases *)
  Gc.full_major ();
  let t_setup = Clock.now_us () in
  let poet = Poet.create ~trace_names:inp.names () in
  (* two flat POET subscribers bracket the engine's own: flat
     subscribers fire in registration order, so the first marks the end
     of POET's stamping and the second the end of the engine's dispatch,
     history and search *)
  let terminating = ref (fun () -> 0) in
  let span = ref 0 and words0 = ref 0. and term0 = ref 0 in
  Option.iter
    (fun a ->
      Poet.subscribe_flat poet (fun _ ->
          term0 := !terminating ();
          words0 := Gc.minor_words ();
          span := Span.enter a.tr l_engine))
    traced;
  let engine = Engine.create ~config:Inputs.engine_config ~poet () in
  (terminating := fun () -> Engine.terminating_arrivals engine);
  Option.iter
    (fun a ->
      Poet.subscribe_flat poet (fun _ ->
          Span.exit a.tr !span;
          a.engine_words <- a.engine_words +. (Gc.minor_words () -. !words0);
          if Engine.terminating_arrivals engine <> !term0 then
            a.term_engine_us <- a.term_engine_us +. Span.duration a.tr !span))
    traced;
  List.iter (fun net -> ignore (Engine.add_pattern engine net)) inp.nets;
  let setup_s = (Clock.now_us () -. t_setup) /. 1e6 in
  let emit =
    match traced with
    | None ->
      fun ~verdict ~decode_us:_ ~admit_us:_ (w : Wire.t) ->
        let before = Engine.terminating_arrivals engine in
        let t0 = Clock.now_us () in
        ignore (Engine.feed_wire engine ~id:w.Wire.id ~verdict (Wire.to_raw w));
        let dt = Clock.now_us () -. t0 in
        if Engine.terminating_arrivals engine <> before then Measure.add lat dt
    | Some a ->
      fun ~verdict ~decode_us:_ ~admit_us:_ (w : Wire.t) ->
        let s = Span.enter a.tr l_poet in
        ignore (Engine.feed_wire engine ~id:w.Wire.id ~verdict (Wire.to_raw w));
        Span.exit a.tr s
  in
  let crc = ref 0 in
  let c0 = Measure.cpu_s () and b0 = Measure.allocated_bytes () in
  let t0 = Clock.now_us () in
  let root = match traced with Some a -> Span.clear a.tr; Span.enter a.tr l_replay | None -> 0 in
  let ic = open_in_bin inp.log in
  let reader = Framing.create_reader ic in
  let adm =
    Admission.create ~config:Inputs.admission_config ~n_traces:(Array.length inp.names) ~emit ()
  in
  (match traced with
  | None ->
    let rec loop () =
      match Framing.next reader with
      | Framing.Frame w ->
        Admission.push adm w;
        loop ()
      | Framing.Crc_error | Framing.Bad_frame _ ->
        incr crc;
        loop ()
      | Framing.Truncated | Framing.Eof -> ()
    in
    loop ();
    Admission.finish adm
  | Some a ->
    let tr = a.tr in
    let rec loop () =
      let s = Span.enter tr l_framing in
      let item = Framing.next reader in
      Span.exit tr s;
      match item with
      | Framing.Frame w ->
        let s = Span.enter tr l_admission in
        Admission.push adm w;
        Span.exit tr s;
        loop ()
      | Framing.Crc_error | Framing.Bad_frame _ ->
        incr crc;
        loop ()
      | Framing.Truncated | Framing.Eof -> ()
    in
    loop ();
    let s = Span.enter tr l_admission in
    Admission.finish adm;
    Span.exit tr s);
  close_in ic;
  Option.iter (fun a -> Span.exit a.tr root) traced;
  let wall_s = (Clock.now_us () -. t0) /. 1e6 in
  let cpu_s = Measure.cpu_s () -. c0 and alloc_b = Measure.allocated_bytes () -. b0 in
  let rss_mb = Measure.rss_mb () -. Measure.start_rss_mb in
  let st = Admission.stats adm in
  let ok =
    Engine.reports_digest engine = inp.oracle
    && st.Admission.admitted = inp.events
    && st.Admission.gaps = 0 && !crc = 0
  in
  Option.iter
    (fun a ->
      Span.add_into a.self a.tr;
      a.wall_us <- a.wall_us +. Span.duration a.tr root;
      a.events <- a.events + st.Admission.admitted;
      a.hist_us <- a.hist_us +. Histogram.sum (Engine.latency_histogram engine))
    traced;
  let counters = counters inp engine poet st !crc in
  Engine.shutdown engine;
  let sorted = Measure.sorted lat in
  let lat_q, lat_tail = Measure.tail ~q:0.95 sorted in
  let lat_n = Measure.count lat in
  Measure.reset lat;
  {
    setup_s;
    wall_s;
    cpu_s;
    alloc_b;
    rss_mb;
    lat_n;
    lat_q;
    lat_p50 = Measure.quantile sorted 0.5;
    lat_tail;
    admitted = st.Admission.admitted;
    ok;
    counters;
  }

let median f reps = Measure.median_of_list (List.map f reps)

let rate r = float_of_int r.admitted /. r.wall_s

(* The replays' timing metrics are medians over the slowest tenth of a
   run's replays, by events/s (see README.md, Noise). On a host whose
   memory system is shared, replay speed sits on plateaus that last from
   tens of seconds to minutes; the median of a run jumps between them
   from run to run, while the slowest plateau recurs in nearly every run
   and its tenth reads the same plateau each time. *)
let slow_fraction = 0.1

let slowest reps =
  let sorted = List.sort (fun a b -> Float.compare (rate a) (rate b)) reps in
  let k = max 1 (int_of_float (Float.ceil (slow_fraction *. float_of_int (List.length reps)))) in
  List.filteri (fun i _ -> i < k) sorted

let run ~trace ~seconds ~work ~label inp =
  let lat = Measure.samples () and scratch = Measure.samples ~capacity:1 () in
  let traced =
    if trace then
      Some
        {
          tr = Span.create ~capacity:(4 * inp.frames) layer_names;
          self = Array.make (Array.length layer_names) 0.;
          wall_us = 0.;
          events = 0;
          engine_words = 0.;
          term_engine_us = 0.;
          hist_us = 0.;
        }
    else None
  in
  let warm = replay ~lat:scratch inp in
  let deadline = Clock.now_us () +. (seconds *. 1e6) in
  let plain = ref [] and with_spans = ref [] in
  let i = ref 0 in
  while Clock.now_us () < deadline || !plain = [] || (trace && !with_spans = []) do
    if trace && !i mod 2 = 1 then with_spans := replay ?traced ~lat:scratch inp :: !with_spans
    else plain := replay ~lat inp :: !plain;
    incr i
  done;
  let all = (warm :: !plain) @ !with_spans in
  let failed = List.length (List.filter (fun r -> not r.ok) all) in
  let per_event r v = v /. float_of_int (max 1 r.admitted) in
  let slow = slowest !plain in
  let e2e =
    [
      ("setup_s", median (fun r -> r.setup_s) !plain);
      ("events_per_s", median rate slow);
      ("cpu_us_per_event", median (fun r -> per_event r r.cpu_s *. 1e6) slow);
      ("alloc_bytes_per_event", median (fun r -> per_event r r.alloc_b) !plain);
      ("rss_mb", median (fun r -> r.rss_mb) !plain);
      ("latency_p50_us", median (fun r -> r.lat_p50) slow);
      ("latency_tail_us", median (fun r -> r.lat_tail) slow);
    ]
  in
  let n = List.fold_left (fun acc r -> acc + r.lat_n) 0 slow in
  let lines =
    inp.notes
    @ [
        Printf.sprintf "replays: %d timed (+1 warm-up, %d traced); setup_s is the median of %d"
          (List.length !plain) (List.length !with_spans) (List.length !plain);
        Printf.sprintf
          "timings: medians over the slowest %d replays by events/s; over all %d replays the \
           median is %.0f events/s"
          (List.length slow) (List.length !plain) (median rate !plain);
        Printf.sprintf
          "arrival latency: %d terminating-arrival samples in those replays, tail reported at p%g"
          n ((List.hd slow).lat_q *. 100.);
      ]
  in
  let layers, check_failed, trace_lines =
    match traced with
    | None -> ([], 0, [])
    | Some a ->
      let ev = float_of_int (max 1 a.events) in
      let ns l = a.self.(l) *. 1000. /. ev in
      let unattributed = ratio a.self.(l_replay) a.wall_us in
      let hist_ratio = ratio a.hist_us a.term_engine_us in
      let spans = Filename.concat work ("spans-" ^ label ^ ".tsv") in
      let oc = open_out spans in
      Span.write a.tr oc;
      close_out oc;
      let bad = (if unattributed > Report.unattributed_tolerance then 1 else 0)
                + if hist_ratio > 1. then 1 else 0 in
      ( [
          ("ingest.framing.ns_per_event", ns l_framing);
          ("ingest.admission.ns_per_event", ns l_admission);
          ("poet.ns_per_event", ns l_poet);
          ("ocep.engine.ns_per_event", ns l_engine);
          ("ocep.engine.alloc_bytes_per_event", a.engine_words *. float_of_int (Sys.word_size / 8) /. ev);
          ("trace.unattributed_frac", unattributed);
          ("trace.overhead_frac", ratio (median rate !plain) (median rate !with_spans) -. 1.);
          ("trace.engine_hist_ratio", hist_ratio);
          ("samples.latency", float_of_int n);
          ("samples.setup", float_of_int (List.length !plain));
        ]
        @ warm.counters,
        bad,
        [
          Printf.sprintf
            "self-check: layer self times cover %.2f%% of the traced wall time (tolerance %.0f%%); \
             latency histogram / engine time on terminating arrivals = %.4f (must be <= 1)%s"
            ((1. -. unattributed) *. 100.) (Report.unattributed_tolerance *. 100.) hist_ratio
            (if bad > 0 then "  FAILED" else "");
          Printf.sprintf "spans of the last traced replay written to %s" spans;
        ] )
  in
  {
    Report.attempted = List.length all + (if trace then 1 else 0);
    failed = failed + check_failed;
    e2e;
    layers;
    lines = lines @ trace_lines;
  }
