open Ocep_base
module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Matcher = Ocep.Matcher
module History = Ocep.History
module Summary = Ocep_stats.Summary
module Oracle = Ocep_baselines.Oracle
module Window = Ocep_baselines.Window
module Chrono = Ocep_baselines.Chrono
module Waitfor = Ocep_baselines.Waitfor
module Conflict_graph = Ocep_baselines.Conflict_graph
module Race_checker = Ocep_baselines.Race_checker
module Workload = Ocep_workloads.Workload

type scale = { events : int; runs : int }

let scale_from_env () =
  let get name default =
    match Sys.getenv_opt name with
    | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> default)
    | None -> default
  in
  { events = get "OCEP_EVENTS" 50_000; runs = get "OCEP_RUNS" 2 }

(* OCEP_LATENCY_SINK=histogram reruns the whole evaluation in bounded
   memory (quantiles at bucket resolution); =both validates the histogram
   path against the exact samples. Default: the exact raw samples. *)
let latency_sink_from_env () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "OCEP_LATENCY_SINK") with
  | Some "histogram" -> Engine.Histogram
  | Some "both" -> Engine.Both
  | _ -> Engine.Samples

let repro_engine_config () =
  { Engine.default_config with Engine.latency_sink = latency_sink_from_env () }

(* Standalone-matcher experiments intern their net through the POET
   store's table, as the engine does internally. *)
let inet_of poet net = Compile.intern_net net ~intern:(Symbol.intern (Poet.symbols poet))

(* Pool the per-event latencies of [runs] seeded runs of one configuration
   (the paper runs each configuration five times). *)
let pooled_runs ~scale ~case ~traces =
  let config = repro_engine_config () in
  let outcomes =
    List.init scale.runs (fun i ->
        let w = Cases.make case ~traces ~seed:(1009 * (i + 1)) ~max_events:scale.events in
        Runner.run ~engine_config:config w)
  in
  let latencies = Array.concat (List.map (fun o -> o.Runner.latencies_us) outcomes) in
  (outcomes, latencies)

(* The pooled distribution: exact when raw samples were kept, otherwise the
   runs' bounded histograms merged bucket-wise. *)
let pooled_summary outcomes latencies =
  if Array.length latencies > 0 then Some (Summary.of_samples latencies)
  else
    match List.filter_map (fun o -> o.Runner.latency_hist) outcomes with
    | [] -> None
    | h :: rest ->
      let merged = List.fold_left Ocep_stats.Histogram.merge h rest in
      if Ocep_stats.Histogram.count merged = 0 then None
      else Some (Summary.of_histogram merged)

(* ------------------------------------------------------------------ *)
(* Fig. 3                                                              *)
(* ------------------------------------------------------------------ *)

let fig3 ppf =
  Format.fprintf ppf "== Fig. 3: choosing a representative subset ==@.";
  let names = [| "P0"; "P1"; "P2" |] in
  let net = Compile.compile (Parser.parse "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;") in
  let poet = Poet.create ~retain:true ~trace_names:names () in
  let engine = Engine.create ~net ~poet () in
  let window = Window.create ~net ~window:(3 * 3) () in
  Poet.subscribe poet (fun ev -> ignore (Window.on_event window ev));
  let msg = ref 0 in
  let ingest raw = ignore (Poet.ingest poet raw) in
  let internal tr ty = ingest { Event.r_trace = tr; r_etype = ty; r_text = ""; r_kind = Event.Internal } in
  let send tr =
    incr msg;
    ingest { Event.r_trace = tr; r_etype = "m"; r_text = ""; r_kind = Event.Send { msg = !msg } };
    !msg
  in
  let recv tr m = ingest { Event.r_trace = tr; r_etype = "m"; r_text = ""; r_kind = Event.Receive { msg = m } } in
  internal 1 "A";
  let m1 = send 1 in
  for _ = 1 to 20 do
    internal 0 "N"
  done;
  internal 0 "A";
  internal 0 "A";
  let m0 = send 0 in
  recv 2 m0;
  recv 2 m1;
  internal 2 "B";
  let events = Poet.all_events poet in
  let all = Oracle.all_matches ~net ~events in
  let slot_str slots =
    String.concat ", " (List.map (fun (l, t) -> Printf.sprintf "(%s,P%d)" (if l = 0 then "A" else "B") t) slots)
  in
  Format.fprintf ppf "all matches:            %d, covering slots %s@." (List.length all)
    (slot_str (Oracle.true_slots all));
  Format.fprintf ppf "window (n^2 = 9 events): %d, covering slots %s   <- (A,P1) lost@."
    (List.length (Window.matches window))
    (slot_str (Window.covered_slots window));
  let reported =
    List.sort_uniq compare
      (List.concat_map
         (fun (r : Ocep.Subset.report) ->
           Array.to_list (Array.mapi (fun leaf (e : Event.t) -> (leaf, e.trace)) r.events))
         (Engine.reports engine))
  in
  Format.fprintf ppf "OCEP subset:            %d, covering slots %s@."
    (List.length (Engine.reports engine))
    (slot_str reported);
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Figs. 6-9                                                           *)
(* ------------------------------------------------------------------ *)

let fig_number = function
  | "deadlock" -> 6
  | "races" -> 7
  | "atomicity" -> 8
  | "ordering" -> 9
  | _ -> 0

(* Fig. 6's discussion: the search is exponential in the pattern length;
   sweep the deadlock-cycle length at a fixed trace count. *)
let fig6_pattern_length ppf ~scale =
  Format.fprintf ppf
    "== Fig. 6 (discussion): cost vs pattern length (deadlock cycle, 20 traces) ==@.";
  Format.fprintf ppf "%8s %8s %10s %10s %14s %10s@." "cycle" "samples" "Med" "Q3" "TopWhisker"
    "Max";
  let config = repro_engine_config () in
  List.iter
    (fun cycle_len ->
      let outcomes =
        List.init scale.runs (fun i ->
            let w =
              Ocep_workloads.Random_walk.make ~traces:20 ~seed:(701 * (i + 1))
                ~max_events:scale.events ~cycle_len ()
            in
            Runner.run ~engine_config:config w)
      in
      let latencies = Array.concat (List.map (fun o -> o.Runner.latencies_us) outcomes) in
      match pooled_summary outcomes latencies with
      | None -> ()
      | Some s ->
        Format.fprintf ppf "%8d %8d %10.1f %10.1f %14.1f %10.1f@." cycle_len s.Summary.n
          s.Summary.median s.Summary.q3 s.Summary.top_whisker s.Summary.max)
    [ 2; 3; 4; 5; 6 ];
  Format.fprintf ppf "@."

let boxplot_figure ppf ~scale ~case =
  Format.fprintf ppf "== Fig. %d: execution time for %s (us per terminating event) ==@."
    (fig_number case) case;
  Format.fprintf ppf "%8s %8s %10s %10s %10s %14s %10s %10s@." "traces" "samples" "Q1" "Med"
    "Q3" "TopWhisker" "Max" "Outliers";
  List.iter
    (fun traces ->
      let outcomes, latencies = pooled_runs ~scale ~case ~traces in
      match pooled_summary outcomes latencies with
      | None -> Format.fprintf ppf "%8d (no terminating events at this scale)@." traces
      | Some s ->
        Format.fprintf ppf "%8d %8d %10.1f %10.1f %10.1f %14.1f %10.1f %10d@." traces
          s.Summary.n s.Summary.q1 s.Summary.median s.Summary.q3 s.Summary.top_whisker
          s.Summary.max s.Summary.outliers_above)
    (Cases.paper_trace_counts case);
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Fig. 10                                                             *)
(* ------------------------------------------------------------------ *)

let fig10_reference_traces = function "ordering" -> 100 | _ -> 20

let fig10 ppf ~scale =
  Format.fprintf ppf
    "== Fig. 10: detailed runtime per test case (us; measured at the middle trace count) ==@.";
  Format.fprintf ppf "%-12s %7s | %8s %8s %8s %12s %10s@." "Test Case" "" "Q1" "Med" "Q3"
    "Top Whisker" "Max";
  List.iter
    (fun case ->
      let traces = fig10_reference_traces case in
      let outcomes, latencies = pooled_runs ~scale ~case ~traces in
      (match pooled_summary outcomes latencies with
      | Some s ->
        Format.fprintf ppf "%-12s %7s | %8.0f %8.0f %8.0f %12.0f %10.0f@." case "measured"
          s.Summary.q1 s.Summary.median s.Summary.q3 s.Summary.top_whisker s.Summary.max
      | None -> ());
      let q1, med, q3, topw, mx = Cases.paper_fig10_us case in
      Format.fprintf ppf "%-12s %7s | %8.0f %8.0f %8.0f %12.0f %10.0f@." "" "paper" q1 med q3
        topw mx)
    Cases.names;
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Completeness (Section V-D)                                          *)
(* ------------------------------------------------------------------ *)

let completeness ppf ~scale =
  Format.fprintf ppf "== Completeness: injected violations detected / false positives ==@.";
  Format.fprintf ppf "%-12s %10s %10s %16s %10s@." "case" "injected" "detected" "false-positives"
    "reports";
  List.iter
    (fun case ->
      let traces = fig10_reference_traces case in
      let outcomes, _ = pooled_runs ~scale ~case ~traces in
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
      Format.fprintf ppf "%-12s %10d %10d %16d %10d@." case
        (sum (fun o -> o.Runner.injections_total))
        (sum (fun o -> o.Runner.injections_detected))
        (sum (fun o -> o.Runner.false_reports))
        (sum (fun o -> List.length o.Runner.reports)))
    Cases.names;
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Multi-pattern registry: the paper's four patterns in one engine     *)
(* ------------------------------------------------------------------ *)

(* The evaluation's deployment story: all four concurrency-bug patterns
   monitor the same execution. One registry engine ingests each case's
   stream once with all four patterns registered; the stream's own
   pattern must report exactly what a dedicated single-pattern engine
   does (the registry isolation contract), while the engine pays one
   POET subscription and one shared history store. *)
let multi ppf ~scale =
  Format.fprintf ppf "== Multi-pattern engine: all four case patterns in one engine ==@.";
  let traces = 6 in
  let config = repro_engine_config () in
  let patterns =
    List.map
      (fun name -> (name, (Cases.make name ~traces ~seed:7 ~max_events:1).Workload.pattern))
      Cases.names
  in
  List.iter
    (fun case ->
      let w = Cases.make case ~traces ~seed:7 ~max_events:scale.events in
      let mo = Runner.run_multi ~engine_config:config ~patterns w in
      let single = Runner.run ~engine_config:config w in
      Format.fprintf ppf "-- stream: %s --@.%a" case Runner.pp_multi_outcome mo;
      let own = List.find (fun (p : Runner.pattern_outcome) -> p.p_name = case) mo.m_patterns in
      let equal =
        own.Runner.p_matches = single.Runner.matches_found
        && own.Runner.p_reports = List.length single.Runner.reports
        && own.Runner.p_covered = single.Runner.covered_slots
      in
      Format.fprintf ppf "  vs dedicated engine: matches %d/%d reports %d/%d -> %s@." own.Runner.p_matches
        single.Runner.matches_found own.Runner.p_reports
        (List.length single.Runner.reports)
        (if equal then "equal" else "MISMATCH"))
    Cases.names;
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Baseline comparisons (Section V-C)                                  *)
(* ------------------------------------------------------------------ *)

let time_per_event f events =
  let t0 = Clock.now_s () in
  List.iter f events;
  let dt = Clock.now_s () -. t0 in
  dt /. float_of_int (max 1 (List.length events)) *. 1e6

let baselines ppf ~scale =
  Format.fprintf ppf "== Baselines (measured counterparts of Section V-C's comparisons) ==@.";
  (* deadlock: wait-for graph, incremental and full-history *)
  let w = Cases.make "deadlock" ~traces:20 ~seed:4242 ~max_events:scale.events in
  let names = Sim.trace_names w.Workload.sim_config in
  let poet = Poet.create ~retain:true ~trace_names:names () in
  let _ = Sim.run w.Workload.sim_config ~sink:(fun raw -> ignore (Poet.ingest poet raw)) ~bodies:w.Workload.bodies in
  let events = Poet.all_events poet in
  let trace_of_name = Poet.trace_of_name poet in
  let wf_inc = Waitfor.create ~n_traces:(Array.length names) ~trace_of_name `Incremental in
  let inc_us = time_per_event (fun e -> ignore (Waitfor.on_event wf_inc e)) events in
  let wf_full = Waitfor.create ~n_traces:(Array.length names) ~trace_of_name `Full_history in
  let full_us = time_per_event (fun e -> ignore (Waitfor.on_event wf_full e)) events in
  Format.fprintf ppf
    "deadlock : wait-for graph detections inc=%d (%.2f us/event) full-history=%d (%.2f us/event, %d edges kept)@."
    (List.length (Waitfor.detections wf_inc))
    inc_us
    (List.length (Waitfor.detections wf_full))
    full_us (Waitfor.edges wf_full);
  (* atomicity: conflict graph *)
  let w = Cases.make "atomicity" ~traces:20 ~seed:4242 ~max_events:scale.events in
  let names = Sim.trace_names w.Workload.sim_config in
  let poet = Poet.create ~retain:true ~trace_names:names () in
  let _ = Sim.run w.Workload.sim_config ~sink:(fun raw -> ignore (Poet.ingest poet raw)) ~bodies:w.Workload.bodies in
  let events = Poet.all_events poet in
  let cg = Conflict_graph.create ~n_traces:(Array.length names) () in
  let cg_us = time_per_event (fun e -> ignore (Conflict_graph.on_event cg e)) events in
  Format.fprintf ppf
    "atomicity: interval-overlap detector found %d observed overlaps (%.2f us/event) - observed order only, vs OCEP's causal matches@."
    (List.length (Conflict_graph.violations cg))
    cg_us;
  (* races: vector-timestamp checker *)
  let w = Cases.make "races" ~traces:20 ~seed:4242 ~max_events:scale.events in
  let names = Sim.trace_names w.Workload.sim_config in
  let poet = Poet.create ~retain:true ~trace_names:names () in
  let _ = Sim.run w.Workload.sim_config ~sink:(fun raw -> ignore (Poet.ingest poet raw)) ~bodies:w.Workload.bodies in
  let events = Poet.all_events poet in
  let rc = Race_checker.create ~n_traces:(Array.length names) ~partner_of:(Poet.find_partner poet) () in
  let rc_us = time_per_event (fun e -> ignore (Race_checker.on_event rc e)) events in
  Format.fprintf ppf "races    : vector-timestamp race checker found %d racing pairs (%.2f us/event)@."
    (List.length (Race_checker.races rc))
    rc_us;
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_pruning ppf ~scale =
  Format.fprintf ppf
    "== Ablation A1: causal pruning + backjumping vs chronological backtracking ==@.";
  let max_events = max 2_000 (scale.events / 5) in
  let w = Cases.make "ordering" ~traces:20 ~seed:31415 ~max_events in
  let names = Sim.trace_names w.Workload.sim_config in
  let poet = Poet.create ~retain:true ~trace_names:names () in
  let net = Compile.compile (Parser.parse w.Workload.pattern) in
  let _ = Sim.run w.Workload.sim_config ~sink:(fun raw -> ignore (Poet.ingest poet raw)) ~bodies:w.Workload.bodies in
  let events = Poet.all_events poet in
  let n_traces = Array.length names in
  let history = History.create net ~n_traces ~pruning:true () in
  List.iter
    (fun ev ->
      History.note_comm history ev;
      for i = 0 to Compile.size net - 1 do
        if Compile.leaf_matches net i ev then History.add history ~leaf:i ev
      done)
    events;
  (* replay all terminating anchors against the full histories *)
  let anchors =
    List.filter
      (fun (e : Event.t) ->
        List.exists
          (fun i -> net.Compile.terminating.(i) && Compile.leaf_matches net i e)
          (List.init (Compile.size net) (fun i -> i)))
      events
  in
  let stats = Matcher.new_stats () in
  let inet = inet_of poet net in
  let t0 = Clock.now_s () in
  List.iter
    (fun (e : Event.t) ->
      List.iter
        (fun i ->
          if net.Compile.terminating.(i) && Compile.leaf_matches net i e then
            ignore
              (Matcher.search ~net:inet ~history ~n_traces
                 ~trace_of_sym:(Poet.trace_of_sym poet)
                 ~partner_of:(Poet.find_partner poet) ~anchor_leaf:i ~anchor:e ~stats ()))
        (List.init (Compile.size net) (fun i -> i)))
    anchors;
  let ocep_s = Clock.now_s () -. t0 in
  let chrono_nodes = ref 0 in
  let t0 = Clock.now_s () in
  List.iter
    (fun (e : Event.t) ->
      List.iter
        (fun i ->
          if net.Compile.terminating.(i) && Compile.leaf_matches net i e then begin
            let _, n =
              Chrono.search ~net ~history ~n_traces ~anchor_leaf:i ~anchor:e
                ~node_budget:200_000 ()
            in
            chrono_nodes := !chrono_nodes + n
          end)
        (List.init (Compile.size net) (fun i -> i)))
    anchors;
  let chrono_s = Clock.now_s () -. t0 in
  Format.fprintf ppf "%d anchored searches over %d events:@." (List.length anchors)
    (List.length events);
  Format.fprintf ppf "  OCEP (Fig. 4 domains + Fig. 5 backjumps): %9d candidates  %.3f s@."
    stats.Matcher.nodes ocep_s;
  Format.fprintf ppf "  chronological generate-and-test:          %9d candidates  %.3f s@."
    !chrono_nodes chrono_s;
  Format.fprintf ppf "@."

let ablation_history ppf ~scale =
  Format.fprintf ppf "== Ablation A2: O(1) history pruning on vs off (ordering workload) ==@.";
  Format.fprintf ppf "%-10s %16s %18s %12s %10s@." "pruning" "history-entries"
    "update-leaf-entries" "median-us" "max-us";
  List.iter
    (fun pruning ->
      let w = Cases.make "ordering" ~traces:50 ~seed:2718 ~max_events:scale.events in
      let names = Sim.trace_names w.Workload.sim_config in
      let poet = Poet.create ~trace_names:names () in
      let net = Compile.compile (Parser.parse w.Workload.pattern) in
      let engine =
        Engine.create ~config:{ Engine.default_config with Engine.pruning } ~net ~poet ()
      in
      let _ =
        Sim.run w.Workload.sim_config
          ~sink:(fun raw -> ignore (Poet.ingest poet raw))
          ~bodies:w.Workload.bodies
      in
      (* the Update leaf is the one fed by uninterrupted bursts *)
      let update_leaf = ref 0 in
      Array.iter
        (fun (l : Compile.leaf) ->
          if l.Compile.cls.Ocep_pattern.Ast.cname = "Update" then update_leaf := l.Compile.id)
        net.Compile.leaves;
      let latencies = Engine.latencies_us engine in
      if Array.length latencies > 0 then begin
        let s = Summary.of_samples latencies in
        Format.fprintf ppf "%-10b %16d %18d %12.1f %10.1f@." pruning
          (Engine.history_entries engine)
          (Engine.Handle.history_entries (List.hd (Engine.handles engine)) ~leaf:!update_leaf)
          s.Summary.median s.Summary.max
      end)
    [ true; false ];
  Format.fprintf ppf "@."

(* The global-state alternative the paper's introduction dismisses: detect
   "two traces inside the critical section" by exploring the consistent-cut
   lattice, on a small slice of the atomicity workload, next to OCEP on the
   same slice. *)
let lattice ppf ~scale =
  let module Lattice = Ocep_baselines.Lattice in
  Format.fprintf ppf
    "== Global-state lattice (Cooper-Marzullo) vs event-pattern matching ==@.";
  let slice = min 600 (max 200 (scale.events / 100)) in
  let one ~skip_rate ~label =
    let w =
      Ocep_workloads.Atomicity.make ~traces:5 ~seed:5151 ~max_events:slice ~skip_rate
        ~work_burst:4 ()
    in
    let names = Sim.trace_names w.Workload.sim_config in
    let poet = Poet.create ~retain:true ~trace_names:names () in
    let net = Compile.compile (Parser.parse w.Workload.pattern) in
    let engine = Engine.create ~net ~poet () in
    let t0 = Clock.now_s () in
    let _ =
      Sim.run w.Workload.sim_config
        ~sink:(fun raw -> ignore (Poet.ingest poet raw))
        ~bodies:w.Workload.bodies
    in
    let ocep_s = Clock.now_s () -. t0 in
    let events_by_trace = Array.init (Array.length names) (fun t -> Poet.events_on poet t) in
    let t0 = Clock.now_s () in
    let r =
      Lattice.possibly ~events_by_trace ~flag:(fun e -> Lattice.cs_flag e) ~threshold:2
        ~node_budget:2_000_000 ()
    in
    let lattice_s = Clock.now_s () -. t0 in
    Format.fprintf ppf "%s (%d events, %d traces):@." label (Poet.ingested poet)
      (Array.length names);
    Format.fprintf ppf "  OCEP online matching:          %d matches in %.3f s@."
      (Engine.matches_found engine) ocep_s;
    Format.fprintf ppf "  lattice possibly(two inside):  %s after %d consistent cuts in %.3f s@."
      (match r.Lattice.outcome with
      | Lattice.Found _ -> "FOUND"
      | Lattice.Not_possible -> "not possible"
      | Lattice.Budget_exhausted -> "budget exhausted")
      r.Lattice.cuts_explored lattice_s
  in
  one ~skip_rate:0.05 ~label:"buggy run";
  (* the common case for a monitor: a correct execution, where the lattice
     has to be explored exhaustively to conclude anything *)
  one ~skip_rate:0. ~label:"correct run";
  Format.fprintf ppf "@."

let ablation_gc ppf ~scale =
  Format.fprintf ppf
    "== Ablation A3 (future work): history GC of events unable to join future matches ==@.";
  Format.fprintf ppf "%-8s %16s %12s %12s %10s@." "gc" "history-entries" "gc-dropped"
    "median-us" "max-us";
  List.iter
    (fun gc_every ->
      let w = Cases.make "races" ~traces:20 ~seed:1618 ~max_events:scale.events in
      let names = Sim.trace_names w.Workload.sim_config in
      let poet = Poet.create ~trace_names:names () in
      let net = Compile.compile (Parser.parse w.Workload.pattern) in
      let engine =
        Engine.create ~config:{ Engine.default_config with Engine.gc_every } ~net ~poet ()
      in
      let _ =
        Sim.run w.Workload.sim_config
          ~sink:(fun raw -> ignore (Poet.ingest poet raw))
          ~bodies:w.Workload.bodies
      in
      let latencies = Engine.latencies_us engine in
      if Array.length latencies > 0 then begin
        let s = Summary.of_samples latencies in
        Format.fprintf ppf "%-8s %16d %12d %12.1f %10.1f@."
          (match gc_every with None -> "off" | Some n -> Printf.sprintf "every %d" n)
          (Engine.history_entries engine) (Engine.history_dropped engine) s.Summary.median
          s.Summary.max
      end)
    [ None; Some 1_000 ];
  Format.fprintf ppf "@."

let all ppf ~scale =
  Format.fprintf ppf
    "OCEP evaluation reproduction - %d events/run, %d run(s) pooled per configuration@.\
     (paper: >1M events, 5 runs; set OCEP_EVENTS=1000000 OCEP_RUNS=5 for full scale)@.@."
    scale.events scale.runs;
  fig3 ppf;
  List.iter (fun case -> boxplot_figure ppf ~scale ~case) Cases.names;
  fig6_pattern_length ppf ~scale;
  fig10 ppf ~scale;
  completeness ppf ~scale;
  multi ppf ~scale;
  baselines ppf ~scale;
  lattice ppf ~scale;
  ablation_pruning ppf ~scale;
  ablation_history ppf ~scale;
  ablation_gc ppf ~scale
