(* Hot-path throughput and allocation rate on the four case studies.

   Each case's raw event stream is generated once and replayed through a
   fresh POET + engine (latency recording off: this program measures
   amortized ingest throughput, not per-arrival latency), fed with
   [Poet.ingest_flat]: events live as struct-of-arrays rows and are
   boxed only on a class match.

   Methodology follows bench_obs: one warm-up replay, then R cycles,
   each timed as the best of two back-to-back replays; the row reports
   the fastest cycle. Each timed replay starts from a settled heap
   (Gc.full_major). Reported per case: events/s, us/event, bytes
   allocated per event (Gc.allocated_bytes across the replay), minor
   words per event, major collections, and matches found.

   The before/after comparison works without any JSON parsing: build the
   pre-PR commit in a scratch checkout with this file dropped in, run

     bench_hotpath --raw-out baseline.tsv

   there, then on the current tree run

     bench_hotpath --baseline baseline.tsv

   which replays the same streams and writes BENCH_hotpath.json with the
   baseline columns and speedup ratios filled in. Without --baseline the
   JSON carries the current numbers only.

   Knobs: OCEP_EVENTS (default 50_000) scales the streams;
   OCEP_HOTPATH_REPS (default 3) the timed cycles; OCEP_CASES=a,b runs a
   subset of the cases; OCEP_PINS=0 turns pinned searches off;
   OCEP_ENGINE=0 times the bare POET ingest path; OCEP_HOTPATH_MAX_ALLOC
   (bytes/event, float) turns the run into a CI smoke that fails when
   the deadlock case's allocation rate exceeds the budget. *)

module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Workload = Ocep_workloads.Workload
module Cases = Ocep_harness.Cases
module Clock = Ocep_base.Clock

let bench_traces = function "races" -> 8 | "ordering" -> 50 | _ -> 20

type row = {
  case : string;
  traces : int;
  events : int;
  wall_s : float;
  events_per_s : float;
  us_per_event : float;
  alloc_per_event : float;  (* bytes *)
  minor_words_per_event : float;
  major_collections : int;
  matches : int;
}

(* one timed replay: (wall_s, alloc/ev, minor words/ev, major GCs,
   events, matches) *)
let replay ~names ~net raws =
  let poet = Poet.create ~trace_names:names () in
  (* OCEP_PINS=0 disables pinned searches — an ablation knob for isolating
     ingest/dispatch/anchored-search cost from the pinned batches *)
  let pin_searches = Sys.getenv_opt "OCEP_PINS" <> Some "0" in
  (* OCEP_ENGINE=0: no engine at all — times the bare POET ingest path *)
  let engine =
    if Sys.getenv_opt "OCEP_ENGINE" = Some "0" then None
    else
      Some
        (Engine.create
           ~config:{ Engine.default_config with Engine.record_latency = false; pin_searches }
           ~net ~poet ())
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Engine.shutdown engine)
    (fun () ->
      (* start from the same heap state every time, so major-GC work is
         not attributed to whichever replay it lands on *)
      Gc.full_major ();
      let q0 = Gc.quick_stat () in
      let a0 = Gc.allocated_bytes () in
      let t0 = Clock.now_s () in
      Array.iter (fun r -> ignore (Poet.ingest_flat poet r)) raws;
      let wall_s = Clock.now_s () -. t0 in
      let alloc = Gc.allocated_bytes () -. a0 in
      let q1 = Gc.quick_stat () in
      let events = Poet.ingested poet in
      let matches = match engine with Some e -> Engine.matches_found e | None -> 0 in
      let per = float_of_int (max 1 events) in
      ( wall_s,
        alloc /. per,
        (q1.Gc.minor_words -. q0.Gc.minor_words) /. per,
        q1.Gc.major_collections - q0.Gc.major_collections,
        events,
        matches ))

let wall_of (w, _, _, _, _, _) = w

let bench_case ~max_events ~reps case =
  let traces = bench_traces case in
  let w = Cases.make case ~traces ~seed:2013 ~max_events in
  let names = Sim.trace_names w.Workload.sim_config in
  let raws = ref [] in
  let _ =
    Sim.run w.Workload.sim_config ~sink:(fun r -> raws := r :: !raws) ~bodies:w.Workload.bodies
  in
  let raws = Array.of_list (List.rev !raws) in
  let net = Compile.compile (Parser.parse w.Workload.pattern) in
  (* warm up once: settles allocator and code paths *)
  ignore (replay ~names ~net raws);
  let runs =
    Array.init reps (fun _ ->
        let r1 = replay ~names ~net raws in
        let r2 = replay ~names ~net raws in
        if wall_of r1 <= wall_of r2 then r1 else r2)
  in
  (* the fastest cycle: wall-clock noise on a shared box is strictly
     additive (scheduler steal, cache pollution), so the minimum is the
     consistent estimator of the noise-free cost, and taking the whole
     cycle keeps all metrics in a row from one actual replay *)
  Array.sort (fun a b -> Float.compare (wall_of a) (wall_of b)) runs;
  let wall_s, alloc_per_event, minor_words_per_event, major_collections, events, matches =
    runs.(0)
  in
  {
    case;
    traces;
    events;
    wall_s;
    events_per_s = float_of_int events /. wall_s;
    us_per_event = wall_s *. 1e6 /. float_of_int (max 1 events);
    alloc_per_event;
    minor_words_per_event;
    major_collections;
    matches;
  }

(* ---- baseline exchange format: one tab-separated line per row ---- *)

let write_raw path rows =
  let oc = open_out path in
  List.iter
    (fun r ->
      Printf.fprintf oc "%s\t%d\t%d\t%.6f\t%.1f\t%.3f\t%.1f\t%.1f\t%d\t%d\n" r.case r.traces
        r.events r.wall_s r.events_per_s r.us_per_event r.alloc_per_event
        r.minor_words_per_event r.major_collections r.matches)
    rows;
  close_out oc

let read_raw path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char '\t' (String.trim line) with
       | [ case; traces; events; wall_s; eps; upe; ape; mwpe; majc; matches ] ->
         rows :=
           {
             case;
             traces = int_of_string traces;
             events = int_of_string events;
             wall_s = float_of_string wall_s;
             events_per_s = float_of_string eps;
             us_per_event = float_of_string upe;
             alloc_per_event = float_of_string ape;
             minor_words_per_event = float_of_string mwpe;
             major_collections = int_of_string majc;
             matches = int_of_string matches;
           }
           :: !rows
       | _ -> failwith (Printf.sprintf "%s: malformed baseline line: %s" path line)
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

let json_of_row r =
  Printf.sprintf
    {|{"traces": %d, "events": %d, "wall_s": %.6f, "events_per_s": %.1f, "us_per_event": %.3f, "alloc_per_event_bytes": %.1f, "minor_words_per_event": %.1f, "major_collections": %d, "matches": %d}|}
    r.traces r.events r.wall_s r.events_per_s r.us_per_event r.alloc_per_event
    r.minor_words_per_event r.major_collections r.matches

let () =
  let getenv_int name default =
    match Sys.getenv_opt name with Some s -> int_of_string s | None -> default
  in
  let max_events = getenv_int "OCEP_EVENTS" 50_000 in
  let reps = max 1 (getenv_int "OCEP_HOTPATH_REPS" 3) in
  let raw_out = ref None and baseline = ref None and out = ref "BENCH_hotpath.json" in
  let rec parse = function
    | "--raw-out" :: p :: rest -> raw_out := Some p; parse rest
    | "--baseline" :: p :: rest -> baseline := Some p; parse rest
    | "--out" :: p :: rest -> out := p; parse rest
    | [] -> ()
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf "hot-path bench: %d events/case, %d cycles\n%!" max_events reps;
  let cases =
    match Sys.getenv_opt "OCEP_CASES" with
    | None -> Cases.names
    | Some s ->
      let want = String.split_on_char ',' s in
      List.filter (fun c -> List.mem c want) Cases.names
  in
  let rows = List.map (bench_case ~max_events ~reps) cases in
  let base = Option.map read_raw !baseline in
  let base_for case = Option.bind base (List.find_opt (fun r -> r.case = case)) in
  Printf.printf "\n%-10s %7s | %12s %14s | %10s %10s %6s | %8s\n" "case" "traces" "us/event"
    "events/s" "alloc B/ev" "minorW/ev" "majGC" "vs-base";
  List.iter
    (fun r ->
      let vs_base =
        match base_for r.case with
        | Some b -> Printf.sprintf "%7.2fx" (r.events_per_s /. b.events_per_s)
        | None -> "      --"
      in
      Printf.printf "%-10s %7d | %12.3f %14.1f | %10.1f %10.1f %6d | %s\n" r.case r.traces
        r.us_per_event r.events_per_s r.alloc_per_event r.minor_words_per_event
        r.major_collections vs_base)
    rows;
  (match !raw_out with
  | Some p ->
    write_raw p rows;
    Printf.printf "\nwrote %s\n" p
  | None -> ());
  let oc = open_out !out in
  Printf.fprintf oc "{\n  \"events_per_case\": %d,\n  \"reps\": %d,\n  \"cases\": {\n" max_events
    reps;
  let n_cases = List.length rows in
  List.iteri
    (fun i r ->
      let before =
        match base_for r.case with
        | Some b ->
          Printf.sprintf
            ",\n      \"before\": %s,\n      \"speedup_events_per_s\": %.3f,\n      \
             \"alloc_ratio\": %.3f"
            (json_of_row b)
            (r.events_per_s /. b.events_per_s)
            (r.alloc_per_event /. b.alloc_per_event)
        | None -> ""
      in
      Printf.fprintf oc "    %S: {\n      \"after\": %s%s\n    }%s\n" r.case (json_of_row r)
        before
        (if i = n_cases - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  (* CI smoke: fail when the deadlock case exceeds the allocation budget
     (bytes/event) *)
  match Sys.getenv_opt "OCEP_HOTPATH_MAX_ALLOC" with
  | None -> ()
  | Some budget ->
    let budget = float_of_string budget in
    (match List.find_opt (fun r -> r.case = "deadlock") rows with
    | None -> Printf.eprintf "alloc budget set but no deadlock row; skipping check\n"
    | Some r ->
      if r.alloc_per_event > budget then (
        Printf.eprintf "FAIL: deadlock alloc %.1f B/event exceeds budget %.1f\n"
          r.alloc_per_event budget;
        exit 1)
      else
        Printf.printf "alloc budget ok: deadlock %.1f B/event <= %.1f\n" r.alloc_per_event
          budget)
