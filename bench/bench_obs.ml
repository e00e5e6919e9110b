(* Telemetry overhead micro-bench (off by default; run explicitly with
   `dune exec bench/bench_obs.exe`).

   The observability layer's promise is Dapper's: the *always-on*
   telemetry — the match-provenance flight recorder, the per-record
   wire stamping and the pipeline watermarks — must be cheap enough to
   never turn off.  This program measures that promise on the
   message-race case study: the same raw stream is replayed through a
   fresh POET + engine in five modes:

   - [off]        everything off (no latency recording, no provenance)
   - [base]       the engine's pre-provenance defaults (per-arrival
                  latency timing into the histogram sink) — the
                  baseline the thresholds are measured against
   - [provenance] base plus the flight recorder (direct feed)
   - [wire]       provenance plus the full per-record ingest stamping:
                  [Engine.feed_wire] with verdict and timestamps, and
                  the watermark plane, with Source.replay_stream's 1-in-64
                  timing sampling — everything a wire replay keeps on
   - [tracing]    provenance plus span tracing (the opt-in debug
                  facility), fed directly — the same basis the ~+40%
                  pre-optimization number was measured on

   The modes run interleaved, R cycles of all five, each mode timed as
   the best of two back-to-back replays per cycle (a scheduler burst
   rarely hits both), and each mode's overhead is the {e median across
   cycles of its within-cycle ratio to [base]}: machine-wide drift
   moves a whole cycle together, so pairing each replay with the base
   replay of the same cycle cancels it, and the median discards the
   cycles a hiccup still skews — considerably more stable than
   comparing per-mode minima on a shared box.  The run fails if the always-on plane — [wire] versus [base],
   i.e. provenance + watermark stamping — exceeds the overhead
   threshold (default 5%, OCEP_OBS_MAX_OVERHEAD to override), or if
   span tracing exceeds its own, looser budget versus [base] (default
   20%, OCEP_OBS_MAX_TRACING_OVERHEAD): spans ride a preallocated SoA
   ring precisely so that turning them on for a debugging session does
   not halve throughput.  OCEP_EVENTS and OCEP_OBS_REPS scale the
   measurement.  Results go to BENCH_obs.json. *)

module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Workload = Ocep_workloads.Workload
module Cases = Ocep_harness.Cases
module Clock = Ocep_base.Clock
module Watermark = Ocep_obs.Watermark

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some s -> ( match float_of_string_opt s with Some f when f > 0. -> f | _ -> default)
  | None -> default

type mode = {
  name : string;
  config : Engine.config;
  wire : bool;  (* replay through feed_wire + watermark stamps *)
}

let replay ~mode ~names ~net raws =
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config:mode.config ~net ~poet () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      let wall_s =
        if mode.wire then begin
          (* what a wire replay pays per record on top of the direct
             feed: the provenance stamp through [feed_wire] plus the
             watermark plane, with Source.replay_stream's 1-in-64 timing
             sampling (full stamps on sampled records, tracker-only
             advances and stamp reuse on the rest) *)
          let wm = Watermark.create (Engine.metrics engine) in
          let id = ref 0 in
          let t0 = Clock.now_s () in
          List.iter
            (fun r ->
              let i = !id in
              if i land 63 = 0 then begin
                let decode_us = Clock.now_us () in
                Watermark.observe_decode wm ~id:i ~dur_us:0.1;
                Watermark.observe_admit wm ~id:i ~dur_us:0.;
                Engine.set_wire_stamps engine ~decode_us ~admit_us:decode_us;
                Engine.feed_wire engine ~id:i ~verdict:Ocep_obs.Provenance.In_order r;
                Watermark.observe_match wm ~id:i ~dur_us:(Clock.now_us () -. decode_us)
              end
              else begin
                Watermark.advance_decode wm ~id:i;
                Watermark.advance_admit wm ~id:i;
                Engine.feed_wire engine ~id:i ~verdict:Ocep_obs.Provenance.In_order r;
                Watermark.advance_match wm ~id:i
              end;
              incr id)
            raws;
          Watermark.sync wm;
          Clock.now_s () -. t0
        end
        else begin
          let t0 = Clock.now_s () in
          List.iter (fun r -> ignore (Poet.ingest poet r)) raws;
          Clock.now_s () -. t0
        end
      in
      (wall_s, Engine.matches_found engine))

let () =
  let max_events = getenv_int "OCEP_EVENTS" 20_000 in
  let reps = getenv_int "OCEP_OBS_REPS" 9 in
  let threshold_pct = getenv_float "OCEP_OBS_MAX_OVERHEAD" 5.0 in
  let tracing_threshold_pct = getenv_float "OCEP_OBS_MAX_TRACING_OVERHEAD" 20.0 in
  let case = "races" in
  let w = Cases.make case ~traces:8 ~seed:2013 ~max_events in
  let names = Sim.trace_names w.Workload.sim_config in
  let raws = ref [] in
  let _ =
    Sim.run w.Workload.sim_config ~sink:(fun r -> raws := r :: !raws) ~bodies:w.Workload.bodies
  in
  let raws = List.rev !raws in
  let net = Compile.compile (Parser.parse w.Workload.pattern) in
  let events = List.length raws in
  let off_config =
    { Engine.default_config with Engine.record_latency = false; provenance = false }
  in
  let base_config =
    { Engine.default_config with Engine.latency_sink = Engine.Histogram; provenance = false }
  in
  let provenance_config = { base_config with Engine.provenance = true } in
  let tracing_config = { provenance_config with Engine.trace_spans = true } in
  let modes =
    [
      { name = "off"; config = off_config; wire = false };
      { name = "base"; config = base_config; wire = false };
      { name = "provenance"; config = provenance_config; wire = false };
      { name = "wire"; config = provenance_config; wire = true };
      { name = "tracing"; config = tracing_config; wire = false };
    ]
  in
  Printf.printf "telemetry overhead bench: %s, %d events, best of %d reps per mode\n%!" case
    events reps;
  (* warm up each mode once, then run R interleaved cycles *)
  List.iter (fun mode -> ignore (replay ~mode ~names ~net raws)) modes;
  let walls = Hashtbl.create 8 and matches = Hashtbl.create 8 in
  List.iter (fun m -> Hashtbl.replace walls m.name (Array.make reps 0.)) modes;
  for rep = 0 to reps - 1 do
    (* deterministically shuffle the order each cycle: any position
       effect (frequency ramps, periodic neighbors) then hits every
       mode equally often instead of always the same one *)
    let order =
      List.sort
        (fun a b -> compare (Hashtbl.hash (rep, a.name)) (Hashtbl.hash (rep, b.name)))
        modes
    in
    List.iter
      (fun mode ->
        (* start each timed replay from the same heap state so major-GC
           work is not attributed to whichever mode it lands on *)
        Gc.full_major ();
        let wall1, m = replay ~mode ~names ~net raws in
        Gc.full_major ();
        let wall2, _ = replay ~mode ~names ~net raws in
        (Hashtbl.find walls mode.name).(rep) <- Float.min wall1 wall2;
        Hashtbl.replace matches mode.name m)
      order
  done;
  let m_off = Hashtbl.find matches "off" in
  List.iter
    (fun mode ->
      if Hashtbl.find matches mode.name <> m_off then (
        Printf.eprintf "FATAL: telemetry changed the results: %d matches off, %d with %s\n" m_off
          (Hashtbl.find matches mode.name) mode.name;
        exit 1))
    modes;
  if Sys.getenv_opt "OCEP_OBS_DEBUG" <> None then
    for rep = 0 to reps - 1 do
      Printf.printf "  cycle %2d:" rep;
      List.iter
        (fun m ->
          Printf.printf " %s=%.3f" m.name
            ((Hashtbl.find walls m.name).(rep) *. 1e6 /. float_of_int events))
        modes;
      print_newline ()
    done;
  let median a =
    let s = Array.copy a in
    Array.sort compare s;
    let n = Array.length s in
    if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
  in
  let per_event w = w *. 1e6 /. float_of_int (max 1 events) in
  let wall_med name = median (Hashtbl.find walls name) in
  let base_us = per_event (wall_med "base") in
  let overhead name =
    let w = Hashtbl.find walls name and b = Hashtbl.find walls "base" in
    median (Array.init reps (fun i -> ((w.(i) /. b.(i)) -. 1.) *. 100.))
  in
  let report name note =
    Printf.printf "  %-10s : %.3f us/event (%+.2f%% vs base%s)\n" name
      (per_event (wall_med name))
      (overhead name) note
  in
  report "off" "";
  Printf.printf "  %-10s : %.3f us/event (median of %d)\n" "base" base_us reps;
  report "provenance" "";
  report "wire" (Printf.sprintf ", threshold %.1f%%" threshold_pct);
  report "tracing" (Printf.sprintf ", threshold %.1f%%" tracing_threshold_pct);
  let pass = overhead "wire" < threshold_pct && overhead "tracing" < tracing_threshold_pct in
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n\
    \  \"case\": %S,\n\
    \  \"events\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"off_us_per_event\": %.3f,\n\
    \  \"base_us_per_event\": %.3f,\n\
    \  \"provenance_us_per_event\": %.3f,\n\
    \  \"wire_us_per_event\": %.3f,\n\
    \  \"tracing_us_per_event\": %.3f,\n\
    \  \"provenance_overhead_pct\": %.2f,\n\
    \  \"wire_overhead_pct\": %.2f,\n\
    \  \"tracing_overhead_pct\": %.2f,\n\
    \  \"threshold_pct\": %.1f,\n\
    \  \"tracing_threshold_pct\": %.1f,\n\
    \  \"pass\": %b\n\
     }\n"
    case events reps
    (per_event (wall_med "off"))
    base_us
    (per_event (wall_med "provenance"))
    (per_event (wall_med "wire"))
    (per_event (wall_med "tracing"))
    (overhead "provenance") (overhead "wire") (overhead "tracing") threshold_pct
    tracing_threshold_pct pass;
  close_out oc;
  Printf.printf "wrote BENCH_obs.json\n";
  if not pass then (
    Printf.eprintf
      "FAIL: telemetry overhead out of budget (always-on %.1f%%, tracing %.1f%%)\n"
      threshold_pct tracing_threshold_pct;
    exit 1)
