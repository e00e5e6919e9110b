module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Subset = Ocep.Subset
module Oracle = Ocep_baselines.Oracle
module Workload = Ocep_workloads.Workload
module Inject = Ocep_workloads.Inject
module Summary = Ocep_stats.Summary
module Histogram = Ocep_stats.Histogram

type outcome = {
  events : int;
  latencies_us : float array;
  latency_hist : Histogram.t option;
  tail : Histogram.tail option;
  summary : Summary.t option;
  reports : Subset.report list;
  matches_found : int;
  injections_total : int;
  injections_detected : int;
  false_reports : int;
  history_entries : int;
  covered_slots : int;
  seen_slots : int;
  sim : Sim.stats;
  search_stats : Ocep.Matcher.stats;
  wall_s : float;
}

type pattern_outcome = {
  p_id : Engine.pattern_id;
  p_name : string;
  p_matches : int;
  p_reports : int;
  p_covered : int;
  p_seen : int;
  p_searches : int;
  p_nodes : int;
}

type multi_outcome = {
  m_events : int;
  m_terminating : int;
  m_history_entries : int;
  m_wall_s : float;
  m_patterns : pattern_outcome list;
}

let run_multi ?(engine_config = Engine.default_config) ~patterns (w : Workload.t) =
  let t0 = Ocep_base.Clock.now_s () in
  let names = Sim.trace_names w.sim_config in
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config:engine_config ~poet () in
  let hs =
    List.map
      (fun (name, src) -> (name, Engine.add_pattern engine (Compile.compile (Parser.parse src))))
      patterns
  in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  ignore
    (Sim.run w.sim_config ~sink:(fun raw -> ignore (Poet.ingest poet raw)) ~bodies:w.bodies);
  {
    m_events = Poet.ingested poet;
    m_terminating = Engine.terminating_arrivals engine;
    m_history_entries = Engine.history_entries engine;
    m_wall_s = Ocep_base.Clock.now_s () -. t0;
    m_patterns =
      List.map
        (fun (name, h) ->
          let m = Engine.Handle.metrics h in
          {
            p_id = Engine.Handle.id h;
            p_name = name;
            p_matches = m.Engine.Handle.matches;
            p_reports = m.Engine.Handle.reports_retained;
            p_covered = m.Engine.Handle.covered_slots;
            p_seen = m.Engine.Handle.seen_slots;
            p_searches = m.Engine.Handle.searches;
            p_nodes = m.Engine.Handle.nodes;
          })
        hs;
  }

let pp_multi_outcome ppf (o : multi_outcome) =
  Format.fprintf ppf "events=%d terminating=%d shared history entries=%d wall=%.2fs@\n"
    o.m_events o.m_terminating o.m_history_entries o.m_wall_s;
  List.iter
    (fun p ->
      Format.fprintf ppf
        "  pattern %d %-10s matches=%d reports=%d coverage=%d/%d searches=%d nodes=%d@\n"
        p.p_id p.p_name p.p_matches p.p_reports p.p_covered p.p_seen p.p_searches p.p_nodes)
    o.m_patterns

let run ?(engine_config = Engine.default_config) ?(cutoff_margin = 0.05) (w : Workload.t) =
  let t0 = Ocep_base.Clock.now_s () in
  let names = Sim.trace_names w.sim_config in
  let poet = Poet.create ~trace_names:names () in
  let net = Compile.compile (Parser.parse w.pattern) in
  (* resolve ground truth first so injection events are known even if the
     engine callback raises *)
  let last_resolved_seq : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Poet.subscribe poet (fun ev ->
      match Inject.resolve w.inject ev with
      | Some inj -> Hashtbl.replace last_resolved_seq inj.Inject.inj_id (Poet.ingested poet)
      | None -> ());
  let engine = Engine.create ~config:engine_config ~net ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let sim = Sim.run w.sim_config ~sink:(fun raw -> ignore (Poet.ingest poet raw)) ~bodies:w.bodies in
  let events = Poet.ingested poet in
  (* completeness over injections fully materialized before the margin *)
  let margin_seq = int_of_float (float_of_int events *. (1. -. cutoff_margin)) in
  let considered =
    List.filter
      (fun (inj : Inject.injection) ->
        match Hashtbl.find_opt last_resolved_seq inj.inj_id with
        | Some seq -> seq <= margin_seq
        | None -> false)
      (Inject.complete w.inject)
  in
  let detected =
    List.filter
      (fun (inj : Inject.injection) ->
        List.for_all (fun ev -> Engine.find_containing engine ev <> None) inj.Inject.resolved)
      considered
  in
  (* soundness: re-verify every reported match independently *)
  let reports = Engine.reports engine in
  let false_reports =
    List.length
      (List.filter
         (fun (r : Subset.report) -> not (Oracle.is_match ~net ~events:[] r.events))
         reports)
  in
  let latencies_us = Engine.latencies_us engine in
  (* the tail percentiles always come from a histogram: the engine's own
     when the sink populated one, otherwise the raw samples re-bucketed *)
  let latency_hist =
    let h = Engine.latency_histogram engine in
    if Histogram.count h > 0 then Some h
    else if Array.length latencies_us = 0 then None
    else begin
      let h = Histogram.create () in
      Array.iter (Histogram.record h) latencies_us;
      Some h
    end
  in
  {
    events;
    latencies_us;
    latency_hist;
    tail = Option.map Histogram.tail latency_hist;
    summary =
      (if Array.length latencies_us > 0 then Some (Summary.of_samples latencies_us)
       else Option.map Summary.of_histogram latency_hist);
    reports;
    matches_found = Engine.matches_found engine;
    injections_total = List.length considered;
    injections_detected = List.length detected;
    false_reports;
    history_entries = Engine.history_entries engine;
    covered_slots = Engine.covered_slots engine;
    seen_slots = Engine.seen_slots engine;
    sim;
    search_stats = Engine.search_stats engine;
    wall_s = Ocep_base.Clock.now_s () -. t0;
  }

(* The digest itself lives in the engine (Engine.reports_digest) since
   the service tier ships it over the control plane; these aliases keep
   the harness's historical entry points. *)
let report_digest = Engine.report_digest

let reports_digest = Engine.reports_digest

let pp_outcome ppf o =
  let terminating =
    if Array.length o.latencies_us > 0 then Array.length o.latencies_us
    else match o.latency_hist with Some h -> Histogram.count h | None -> 0
  in
  Format.fprintf ppf
    "events=%d terminating=%d matches=%d reports=%d coverage=%d/%d@\n\
     completeness: %d/%d injected violations detected, %d false positives@\n\
     history entries=%d search nodes=%d backjumps=%d searches=%d wall=%.2fs@\n"
    o.events terminating o.matches_found (List.length o.reports)
    o.covered_slots o.seen_slots o.injections_detected o.injections_total o.false_reports
    o.history_entries o.search_stats.Ocep.Matcher.nodes o.search_stats.Ocep.Matcher.backjumps
    o.search_stats.Ocep.Matcher.searches o.wall_s;
  (match o.summary with
  | None -> Format.fprintf ppf "no latency samples@\n"
  | Some s -> Format.fprintf ppf "latency (us): %a@\n" Summary.pp s);
  match o.tail with
  | None -> ()
  | Some t ->
    Format.fprintf ppf "latency tail (us): p50=%.1f p95=%.1f p99=%.1f p999=%.1f@\n"
      t.Histogram.p50 t.Histogram.p95 t.Histogram.p99 t.Histogram.p999
