(* The ocep command-line tool.

   - [ocep gen]   simulate a case-study workload and dump the trace-event
                  data to a file (POET's dump feature, Section V-B);
   - [ocep run]   reload a dump and run a pattern against it through the
                  online engine (POET's reload feature);
   - [ocep check] parse and compile a pattern file, printing the
                  constraint net;
   - [ocep repro] regenerate the paper's tables and figures. *)

module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Summary = Ocep_stats.Summary
module Workload = Ocep_workloads.Workload
module Cases = Ocep_harness.Cases
module Repro = Ocep_harness.Repro
module Fuzz = Ocep_harness.Fuzz
module Runner = Ocep_harness.Runner
module Inject = Ocep_workloads.Inject
module Framing = Ocep_ingest.Framing
module Admission = Ocep_ingest.Admission
module Bqueue = Ocep_ingest.Bqueue
module Source = Ocep_ingest.Source
module Session = Ocep_ingest.Session
module Server = Ocep_service.Server
module Explain = Ocep_harness.Explain
module Serve = Ocep_obs.Serve
module Snapshot = Ocep_obs.Snapshot
module Minijson = Ocep_obs.Minijson

open Cmdliner

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A pattern file may hold one plain pattern or a template registry; the
   plain case keeps the bare filename as its label, template instances
   are labeled file#template('binding'). *)
let load_pattern_file f =
  List.map
    (fun (name, net) -> ((if name = "main" then f else f ^ "#" ^ name), net))
    (Compile.compile_file (Parser.parse_file (read_file f)))

let load_pattern_files files = List.concat_map load_pattern_file files

(* ------------------------------------------------------------------ *)
(* telemetry (--listen)                                                *)
(* ------------------------------------------------------------------ *)

(* The one HOST:PORT parser every listening/connecting flag shares
   (telemetry --listen, serve --listen, top's address, the bench's
   --connect): same grammar, same error wording everywhere. *)
let host_port_conv what =
  let fail s reason =
    Error
      (`Msg
        (Printf.sprintf
           "bad %s %S: %s — want HOST:PORT, e.g. 127.0.0.1:7070 (PORT in 0-65535; 0 binds a \
            free port)"
           what s reason))
  in
  let parse s =
    match String.rindex_opt s ':' with
    | None -> fail s "no ':' separator"
    | Some i -> (
      let host = String.sub s 0 i and p = String.sub s (i + 1) (String.length s - i - 1) in
      if host = "" then fail s "empty host"
      else
        match int_of_string_opt p with
        | None -> fail s (Printf.sprintf "port %S is not a number" p)
        | Some port when port < 0 || port > 65535 ->
          fail s (Printf.sprintf "port %d out of range" port)
        | Some port -> Ok (host, port))
  in
  Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let gap_policy_conv =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "wait" -> Ok Admission.Wait
    | "fail" -> Ok Admission.Fail
    | s when String.length s > 5 && String.sub s 0 5 = "skip:" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some n when n >= 0 -> Ok (Admission.Skip n)
      | _ -> Error (`Msg (Printf.sprintf "bad skip patience in %S" s)))
    | _ -> Error (`Msg (Printf.sprintf "gap policy %S: want wait, skip:N or fail" s))
  in
  let print ppf = function
    | Admission.Wait -> Format.pp_print_string ppf "wait"
    | Admission.Skip n -> Format.fprintf ppf "skip:%d" n
    | Admission.Fail -> Format.pp_print_string ppf "fail"
  in
  Arg.conv (parse, print)

let listen_arg =
  Arg.(
    value
    & opt (some (host_port_conv "listen address")) None
    & info [ "listen" ] ~docv:"HOST:PORT"
        ~doc:
          "Serve live telemetry over HTTP while the command runs: $(b,/metrics) (Prometheus \
           text exposition), $(b,/snapshot.json), $(b,/healthz) and $(b,/readyz). PORT 0 binds \
           a free port; the bound address is printed before the run starts.")

let linger_arg =
  Arg.(
    value & opt float 0.
    & info [ "linger" ] ~docv:"SEC"
        ~doc:
          "With $(b,--listen): keep serving the final telemetry for SEC more seconds after the \
           run completes, then flip $(b,/healthz) to 503 and shut down.")

(* The lifecycle shared by run and replay: the listener comes up before
   the engine exists (healthz 503 "starting"), flips healthy + ready
   once the engine is built, republishes from the ingest loop so
   scrapes under live load see fresh values, and serves the final state
   through the linger window. *)
let telemetry_start listen =
  Option.map
    (fun (host, port) ->
      let srv = Serve.start ~host ~port () in
      Serve.set_health srv (Serve.Not_serving "starting: engine not built");
      Printf.printf "telemetry: http://%s:%d/ (metrics, snapshot.json, healthz, readyz)\n%!"
        host (Serve.port srv);
      srv)
    listen

let telemetry_publish srv engine =
  match srv with
  | None -> ()
  | Some srv ->
    Engine.sync_metrics engine;
    let m = Engine.metrics engine in
    Serve.publish srv ~metrics:(Snapshot.prometheus m) ~snapshot:(Snapshot.json m)

let telemetry_live srv engine =
  match srv with
  | None -> ()
  | Some s ->
    telemetry_publish srv engine;
    Serve.set_health s Serve.Serving;
    Serve.set_ready s true

let telemetry_finish srv engine ~linger =
  match srv with
  | None -> ()
  | Some s ->
    telemetry_publish srv engine;
    if linger > 0. then begin
      Printf.printf "telemetry: lingering %.1fs\n%!" linger;
      Unix.sleepf linger
    end;
    Serve.set_health s (Serve.Not_serving "run complete, shutting down");
    Serve.stop s

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let case =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) Cases.all_names))) None
      & info [ "case"; "c" ] ~docv:"CASE"
          ~doc:
            "Workload: deadlock, races, atomicity, ordering, twopc, election, gossip or \
             lockserver.")
  in
  let traces =
    Arg.(value & opt int 10 & info [ "traces"; "t" ] ~docv:"N" ~doc:"Number of traces.")
  in
  let events =
    Arg.(value & opt int 50_000 & info [ "events"; "n" ] ~docv:"N" ~doc:"Events to generate.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let output =
    Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Dump file.")
  in
  let pattern_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "pattern-out" ] ~docv:"FILE" ~doc:"Also write the case's pattern text to FILE.")
  in
  let run case traces events seed output pattern_out =
    let w = Cases.make case ~traces ~seed ~max_events:events in
    let names = Sim.trace_names w.Workload.sim_config in
    let oc = open_out output in
    Poet.dump_header ~trace_names:names oc;
    let count = ref 0 in
    let stats =
      Sim.run w.Workload.sim_config
        ~sink:(fun raw ->
          incr count;
          Poet.dump_raw oc raw)
        ~bodies:w.Workload.bodies
    in
    close_out oc;
    (match pattern_out with
    | Some p ->
      let oc = open_out p in
      output_string oc w.Workload.pattern;
      close_out oc;
      Printf.printf "pattern written to %s\n" p
    | None -> ());
    Printf.printf "dumped %d events (%d traces, %d simulated deadlocks) to %s\n" !count
      (Array.length names)
      (List.length stats.Sim.deadlocks)
      output;
    0
  in
  let info = Cmd.info "gen" ~doc:"Simulate a case-study workload and dump its trace-event data." in
  Cmd.v info Term.(const run $ case $ traces $ events $ seed $ output $ pattern_out)

(* ------------------------------------------------------------------ *)
(* record                                                              *)
(* ------------------------------------------------------------------ *)

let record_cmd =
  let case =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) Cases.all_names))) None
      & info [ "case"; "c" ] ~docv:"CASE"
          ~doc:
            "Workload: deadlock, races, atomicity, ordering, twopc, election, gossip or \
             lockserver.")
  in
  let traces =
    Arg.(value & opt int 10 & info [ "traces"; "t" ] ~docv:"N" ~doc:"Number of traces.")
  in
  let events =
    Arg.(value & opt int 50_000 & info [ "events"; "n" ] ~docv:"N" ~doc:"Events to generate.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let output =
    Arg.(
      required & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Framed wire-format log file.")
  in
  let pattern_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "pattern-out" ] ~docv:"FILE" ~doc:"Also write the case's pattern text to FILE.")
  in
  let run case traces events seed output pattern_out =
    let w = Cases.make case ~traces ~seed ~max_events:events in
    let names = Sim.trace_names w.Workload.sim_config in
    let oc = open_out_bin output in
    let wr = Framing.create_writer oc ~trace_names:names in
    let stats =
      Sim.run w.Workload.sim_config
        ~sink:(fun raw -> ignore (Framing.write_raw wr raw))
        ~bodies:w.Workload.bodies
    in
    Framing.flush wr;
    close_out oc;
    (match pattern_out with
    | Some p ->
      let oc = open_out p in
      output_string oc w.Workload.pattern;
      close_out oc;
      Printf.printf "pattern written to %s\n" p
    | None -> ());
    Printf.printf "recorded %d events (%d traces, %d simulated deadlocks) to %s\n"
      (Framing.written wr) (Array.length names)
      (List.length stats.Sim.deadlocks)
      output;
    0
  in
  let info =
    Cmd.info "record"
      ~doc:
        "Simulate a case-study workload and record its events to a framed, CRC-checked \
         wire-format log (replayable with $(b,ocep replay), including under injected delivery \
         faults)."
  in
  Cmd.v info Term.(const run $ case $ traces $ events $ seed $ output $ pattern_out)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let pattern_files =
    Arg.(
      non_empty
      & opt_all file []
      & info [ "pattern"; "p" ] ~docv:"FILE"
          ~doc:
            "Pattern-language source file. Repeatable: all patterns are registered in one \
             multi-pattern engine sharing a single POET subscription and history store, and \
             results are reported per pattern.")
  in
  let trace_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "trace"; "i" ] ~docv:"FILE" ~doc:"POET dump to reload (see $(b,ocep gen)).")
  in
  let no_pruning =
    Arg.(value & flag & info [ "no-pruning" ] ~doc:"Disable the O(1) history-pruning rule.")
  in
  let max_reports =
    Arg.(value & opt int 20 & info [ "max-reports" ] ~docv:"N" ~doc:"Reports to print.")
  in
  let diagram =
    Arg.(
      value & flag
      & info [ "diagram"; "d" ]
          ~doc:"Draw an ASCII process-time diagram of the stream tail with the first reported                 match highlighted.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the engine's metrics registry to FILE after the run: one JSON object with a \
             $(b,snapshots) array (see --metrics-every), or the Prometheus text exposition if \
             FILE ends in .prom. Also records latencies into the bounded histogram \
             (ocep_latency_us).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record a span per terminating arrival and per search into a bounded ring buffer \
             and dump it to FILE as Chrome trace_event JSON (load in chrome://tracing or \
             Perfetto).")
  in
  let metrics_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-every" ] ~docv:"N"
          ~doc:
            "With --metrics-out: also snapshot the registry every N ingested events, appending \
             each snapshot to the JSON file's $(b,snapshots) array (the final snapshot is \
             always last).")
  in
  let run pattern_files trace_file no_pruning max_reports diagram metrics_out trace_out
      metrics_every listen linger =
    (match metrics_every with
    | Some n when n <= 0 ->
      Printf.eprintf "ocep: --metrics-every must be positive, got %d\n" n;
      exit 2
    | _ -> ());
    let srv = telemetry_start listen in
    let nets = load_pattern_files pattern_files in
    let ic = open_in trace_file in
    let names, raws = Poet.load ic in
    close_in ic;
    let poet = Poet.create ~retain:diagram ~trace_names:names () in
    let config =
      {
        Engine.default_config with
        Engine.pruning = not no_pruning;
        (* keep the raw samples for the latency printout below, and feed the
           bounded histogram too when a metrics file was asked for *)
        latency_sink = (if metrics_out <> None then Engine.Both else Engine.Samples);
        trace_spans = trace_out <> None;
      }
    in
    let engine = Engine.create ~config ~poet () in
    let handles = List.map (fun (f, net) -> (f, net, Engine.add_pattern engine net)) nets in
    Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
    telemetry_live srv engine;
    let snapshots = ref [] in
    let snap () =
      Engine.sync_metrics engine;
      snapshots := Ocep_obs.Snapshot.json (Engine.metrics engine) :: !snapshots
    in
    let ingested = ref 0 in
    List.iter
      (fun raw ->
        ignore (Poet.ingest poet raw);
        incr ingested;
        if srv <> None && !ingested mod 4096 = 0 then telemetry_publish srv engine;
        match metrics_every with
        | Some n when metrics_out <> None && !ingested mod n = 0 -> snap ()
        | _ -> ())
      raws;
    (match metrics_out with
    | None -> ()
    | Some path ->
      Engine.sync_metrics engine;
      let oc = open_out path in
      if Filename.check_suffix path ".prom" then
        output_string oc (Ocep_obs.Snapshot.prometheus (Engine.metrics engine))
      else begin
        let final = Ocep_obs.Snapshot.json (Engine.metrics engine) in
        Printf.fprintf oc "{\"snapshots\": [%s]}\n"
          (String.concat ", " (List.rev (final :: !snapshots)))
      end;
      close_out oc;
      Printf.printf "metrics written to %s (%d snapshot%s)\n" path
        (List.length !snapshots + 1)
        (if !snapshots = [] then "" else "s"));
    (match (trace_out, Engine.tracer engine) with
    | Some path, Some tr ->
      let oc = open_out path in
      Ocep_obs.Tracer.dump oc tr;
      close_out oc;
      Printf.printf "trace: %d spans written to %s (%d overwritten by the ring)\n"
        (Ocep_obs.Tracer.length tr) path
        (Ocep_obs.Tracer.dropped tr)
    | _ -> ());
    Printf.printf "events: %d   matches found: %d   reported subset: %d\n"
      (Engine.events_processed engine)
      (Engine.matches_found engine)
      (List.length (Engine.reports engine));
    Printf.printf "coverage: %d/%d slots   history entries: %d\n"
      (Engine.covered_slots engine) (Engine.seen_slots engine)
      (Engine.history_entries engine);
    Printf.printf "reports digest: %s\n" (Runner.reports_digest engine);
    let latencies = Engine.latencies_us engine in
    if Array.length latencies > 0 then begin
      let s = Summary.of_samples latencies in
      Format.printf "latency (us): %a@." Summary.pp s
    end;
    let print_reports ~pattern_id net reports =
      List.iteri
        (fun i (r : Ocep.Subset.report) ->
          if i < max_reports then begin
            Format.printf "match %d (digest %s):@." (i + 1)
              (Runner.report_digest ~pattern_id r);
            Array.iteri
              (fun leaf e ->
                Format.printf "  %s = %a@."
                  net.Compile.leaves.(leaf).Compile.cls.Ocep_pattern.Ast.cname
                  Ocep_base.Event.pp e)
              r.events
          end)
        reports
    in
    (match handles with
    | [ (_, net, h) ] ->
      print_reports ~pattern_id:(Engine.Handle.id h) net (Engine.Handle.reports h)
    | _ ->
      List.iter
        (fun (file, net, h) ->
          let m = Engine.Handle.metrics h in
          Printf.printf "pattern %d (%s): matches %d   reports %d   coverage %d/%d\n"
            (Engine.Handle.id h) file m.Engine.Handle.matches m.Engine.Handle.reports_retained
            m.Engine.Handle.covered_slots m.Engine.Handle.seen_slots;
          print_reports ~pattern_id:(Engine.Handle.id h) net (Engine.Handle.reports h))
        handles);
    if diagram then begin
      let highlight =
        match Engine.reports engine with
        | r :: _ -> Array.to_list r.Ocep.Subset.events
        | [] -> []
      in
      print_string
        (Ocep_poet.Diagram.render ~max_events:70 ~highlight ~trace_names:names
           (Poet.all_events poet))
    end;
    telemetry_finish srv engine ~linger;
    0
  in
  let info = Cmd.info "run" ~doc:"Reload a trace dump and match a pattern against it online." in
  Cmd.v info
    Term.(
      const run $ pattern_files $ trace_file $ no_pruning $ max_reports $ diagram $ metrics_out
      $ trace_out $ metrics_every $ listen_arg $ linger_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let pattern_files =
    Arg.(
      non_empty
      & opt_all file []
      & info [ "pattern"; "p" ] ~docv:"FILE"
          ~doc:"Pattern-language source file; repeatable, as in $(b,ocep run).")
  in
  let wire_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "input"; "i" ] ~docv:"FILE"
          ~doc:"Framed wire-format log to replay (see $(b,ocep record)).")
  in
  let faults =
    let fconv =
      Arg.conv
        ( (fun s -> Result.map_error (fun e -> `Msg e) (Inject.parse_faults s)),
          fun ppf f -> Inject.pp_faults ppf f )
    in
    Arg.(
      value
      & opt fconv Inject.no_faults
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Degrade the delivery before admission: $(b,reorder:K) shuffles within blocks of K \
             frames, $(b,dup:P) duplicates each frame with probability P, $(b,drop:P) drops it. \
             Comma-separate any subset, e.g. $(b,reorder:8,dup:0.01).")
  in
  let fault_seed =
    Arg.(
      value & opt int 7
      & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"PRNG seed for $(b,--faults).")
  in
  let gap_policy =
    Arg.(
      value
      & opt gap_policy_conv Admission.Wait
      & info [ "gap-policy" ] ~docv:"POLICY"
          ~doc:
            "What to do about a missing record id: $(b,wait) (buffer until end of stream), \
             $(b,skip:N) (give up after N more frames arrive), or $(b,fail) (exit nonzero on \
             any loss).")
  in
  let reorder_window =
    Arg.(
      value & opt int Admission.default_config.Admission.reorder_window
      & info [ "reorder-window" ] ~docv:"N"
          ~doc:"Max out-of-order frames held by admission before a gap is declared.")
  in
  let queue_capacity =
    Arg.(
      value & opt int Source.default_config.Source.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N" ~doc:"Ingest queue bound (with --pipeline).")
  in
  let queue_policy =
    Arg.(
      value
      & opt (enum [ ("block", Bqueue.Block); ("shed", Bqueue.Shed) ]) Bqueue.Block
      & info [ "queue-policy" ] ~docv:"POLICY"
          ~doc:"Backpressure on a full ingest queue: $(b,block) the reader or $(b,shed) frames.")
  in
  let pipeline =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:"Decode frames on a separate domain, handing events over a bounded queue.")
  in
  let block_size =
    Arg.(
      value & opt int Source.default_config.Source.block_size
      & info [ "block" ] ~docv:"N"
          ~doc:
            "Decode and admit frames in blocks of $(docv), amortizing per-record costs \
             (and, with $(b,--pipeline), the queue hand-off). 1 = per-record.")
  in
  let max_reports =
    Arg.(value & opt int 0 & info [ "max-reports" ] ~docv:"N" ~doc:"Reports to print.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the engine's metrics registry (including the ocep_ingest_* instruments) to \
             FILE after the replay: JSON, or the Prometheus text exposition if FILE ends in \
             .prom.")
  in
  let run pattern_files wire_file faults fault_seed gap_policy reorder_window queue_capacity
      queue_policy pipeline block_size max_reports metrics_out listen linger =
    let srv = telemetry_start listen in
    let nets = load_pattern_files pattern_files in
    let ic = open_in_bin wire_file in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let reader =
      try Framing.create_reader ic
      with Framing.Bad_header e ->
        Printf.eprintf "ocep replay: %s: %s\n" wire_file e;
        exit 1
    in
    let poet = Poet.create ~trace_names:(Framing.reader_trace_names reader) () in
    let config =
      {
        Engine.default_config with
        Engine.latency_sink = (if metrics_out <> None then Engine.Histogram else Engine.Samples);
      }
    in
    let engine = Engine.create ~config ~poet () in
    let handles = List.map (fun (f, net) -> (f, net, Engine.add_pattern engine net)) nets in
    Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
    telemetry_live srv engine;
    let session_config =
      {
        Session.gap_policy;
        reorder_window;
        pipeline;
        queue_capacity;
        queue_policy;
        block_size;
        faults;
        fault_seed;
      }
    in
    let st =
      try
        Session.replay ~config:session_config
          ~tick:(fun () -> telemetry_publish srv engine)
          ~log:(fun line -> Format.printf "%s@." line)
          ~engine reader
      with Admission.Gap e ->
        Printf.eprintf "ocep replay: unrecoverable gap: %s\n" e;
        exit 1
    in
    let a = st.Source.admission in
    Printf.printf
      "frames: %d   admitted: %d   duplicates: %d   reordered: %d (max depth %d)\n"
      a.Admission.frames a.Admission.admitted a.Admission.duplicates a.Admission.reordered
      a.Admission.max_depth;
    if st.Source.crc_errors > 0 || st.Source.bad_frames > 0 || st.Source.truncated then
      Printf.printf "stream damage: %d crc errors, %d bad frames%s\n" st.Source.crc_errors
        st.Source.bad_frames
        (if st.Source.truncated then ", truncated tail" else "");
    if a.Admission.gaps > 0 || a.Admission.late > 0 || a.Admission.orphan_receives > 0 then
      Printf.printf "loss: %d gaps (%d events by trace), %d late, %d orphan receives\n"
        a.Admission.gaps
        (Array.fold_left ( + ) 0 a.Admission.trace_gaps)
        a.Admission.late a.Admission.orphan_receives;
    if pipeline then
      Printf.printf "queue: max occupancy %d, shed %d\n" st.Source.queue_max_occupancy
        st.Source.queue_shed;
    Printf.printf "events: %d   matches found: %d   reported subset: %d\n"
      (Engine.events_processed engine)
      (Engine.matches_found engine)
      (List.length (Engine.reports engine));
    Printf.printf "reports digest: %s\n" (Runner.reports_digest engine);
    List.iter
      (fun (file, net, h) ->
        let m = Engine.Handle.metrics h in
        if List.length handles > 1 then
          Printf.printf "pattern %d (%s): matches %d   reports %d   coverage %d/%d\n"
            (Engine.Handle.id h) file m.Engine.Handle.matches m.Engine.Handle.reports_retained
            m.Engine.Handle.covered_slots m.Engine.Handle.seen_slots;
        List.iteri
          (fun i (r : Ocep.Subset.report) ->
            if i < max_reports then begin
              Format.printf "match %d (digest %s):@." (i + 1)
                (Runner.report_digest ~pattern_id:(Engine.Handle.id h) r);
              Array.iteri
                (fun leaf e ->
                  Format.printf "  %s = %a@."
                    net.Compile.leaves.(leaf).Compile.cls.Ocep_pattern.Ast.cname
                    Ocep_base.Event.pp e)
                r.Ocep.Subset.events
            end)
          (Engine.Handle.reports h))
      handles;
    (match metrics_out with
    | None -> ()
    | Some path ->
      Engine.sync_metrics engine;
      let oc = open_out path in
      if Filename.check_suffix path ".prom" then
        output_string oc (Ocep_obs.Snapshot.prometheus (Engine.metrics engine))
      else Printf.fprintf oc "%s\n" (Ocep_obs.Snapshot.json (Engine.metrics engine));
      close_out oc;
      Printf.printf "metrics written to %s\n" path);
    telemetry_finish srv engine ~linger;
    0
  in
  let info =
    Cmd.info "replay"
      ~doc:
        "Replay a recorded wire-format log through the admission layer into the engine, \
         optionally degrading delivery first with $(b,--faults). Under bounded reorder and \
         duplication the printed reports digest matches $(b,ocep run) on the same workload."
  in
  Cmd.v info
    Term.(
      const run $ pattern_files $ wire_file $ faults $ fault_seed $ gap_policy $ reorder_window
      $ queue_capacity $ queue_policy $ pipeline $ block_size $ max_reports $ metrics_out
      $ listen_arg $ linger_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let listen =
    Arg.(
      value
      & opt (host_port_conv "listen address") ("127.0.0.1", 7070)
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:"Address to accept tenant connections on. PORT 0 binds a free port.")
  in
  let shards =
    Arg.(
      value & opt int Server.default_config.Server.shards
      & info [ "shards" ] ~docv:"N"
          ~doc:"Matching domains; each tenant is pinned to $(i,hash(tenant) mod N).")
  in
  let tenant_quota =
    Arg.(
      value & opt int Server.default_config.Server.tenant_quota
      & info [ "tenant-quota" ] ~docv:"N"
          ~doc:
            "Per-tenant in-flight event cap (queued toward the tenant's shard but not yet \
             matched), and the ceiling a HELLO quota override may ask for.")
  in
  let quota_policy =
    Arg.(
      value
      & opt (enum [ ("block", Bqueue.Block); ("shed", Bqueue.Shed) ]) Bqueue.Block
      & info [ "quota-policy" ] ~docv:"POLICY"
          ~doc:
            "What a full quota does to the tenant's stream: $(b,block) its connection \
             (lossless backpressure) or $(b,shed) the overflow (counted, tenant-local).")
  in
  let gap_policy =
    Arg.(
      value
      & opt gap_policy_conv Server.default_config.Server.session.Session.gap_policy
      & info [ "gap-policy" ] ~docv:"POLICY"
          ~doc:
            "Per-tenant admission gap policy, as in $(b,ocep replay). The default $(b,skip:64) \
             lets a quota-shedding tenant keep matching across its own holes.")
  in
  let reorder_window =
    Arg.(
      value & opt int Server.default_config.Server.session.Session.reorder_window
      & info [ "reorder-window" ] ~docv:"N"
          ~doc:"Max out-of-order frames held per tenant before a gap is declared.")
  in
  let max_patterns =
    Arg.(
      value & opt int Server.default_config.Server.max_patterns
      & info [ "max-patterns" ] ~docv:"N" ~doc:"ATTACH cap per tenant.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve per-tenant service metrics ($(b,ocep_tenant_events_total\\{tenant=...\\}), \
             queue depths) over HTTP on 127.0.0.1:$(docv). 0 binds a free port.")
  in
  let run (host, port) shards tenant_quota quota_policy gap_policy reorder_window max_patterns
      metrics_port =
    if shards <= 0 then begin
      Printf.eprintf "ocep serve: --shards must be > 0, got %d\n" shards;
      exit 2
    end;
    if tenant_quota < 0 then begin
      Printf.eprintf "ocep serve: --tenant-quota must be >= 0, got %d\n" tenant_quota;
      exit 2
    end;
    let config =
      {
        Server.host;
        port;
        shards;
        tenant_quota;
        quota_policy;
        session =
          { Session.default with Session.gap_policy; Session.reorder_window };
        max_patterns;
        metrics_port;
      }
    in
    let srv = Server.start ~config () in
    Printf.printf "ocep serve: listening on %s:%d (%d shard%s, tenant quota %d %s)\n%!" host
      (Server.port srv) shards
      (if shards = 1 then "" else "s")
      tenant_quota
      (match quota_policy with Bqueue.Block -> "block" | Bqueue.Shed -> "shed");
    (match Server.metrics_port srv with
    | Some p -> Printf.printf "ocep serve: metrics on http://127.0.0.1:%d/metrics\n%!" p
    | None -> ());
    let stop = Atomic.make false in
    let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigint on_signal;
    Sys.set_signal Sys.sigterm on_signal;
    while not (Atomic.get stop) do
      Thread.delay 0.2
    done;
    Printf.printf "ocep serve: shutting down\n%!";
    Server.stop srv;
    0
  in
  let info =
    Cmd.info "serve" ~doc:"Run the sharded multi-tenant matching service"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Accept framed tenant connections (the $(b,ocep record) wire format over TCP). \
             Each connection names its traces in the stream header, identifies itself with a \
             HELLO control frame, and then interleaves event frames with control frames: \
             ATTACH/DETACH edit the tenant's pattern registry at an exact stream position, \
             STATS and DRAIN return live counters and the tenant's reports digest. Tenants \
             are pinned to shards (one OCaml domain each) and isolated: per-tenant engines, \
             per-tenant admission, per-tenant quotas.";
        ]
  in
  Cmd.v info
    Term.(
      const run $ listen $ shards $ tenant_quota $ quota_policy $ gap_policy $ reorder_window
      $ max_patterns $ metrics_port)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let digest =
    Arg.(
      value & pos 0 string ""
      & info [] ~docv:"DIGEST"
          ~doc:
            "Report digest (prefix allowed) as printed by $(b,ocep run)/$(b,ocep replay) next \
             to each match.")
  in
  let list_all =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"Instead of explaining one report, list every retained report's \
                              digest.")
  in
  let case =
    Arg.(
      value
      & opt (some (enum (List.map (fun n -> (n, n)) Cases.all_names))) None
      & info [ "case"; "c" ] ~docv:"CASE"
          ~doc:
            "Re-run a built-in workload (deadlock, races, atomicity, ordering, twopc, \
             election, gossip or lockserver) and explain one of its reports. Deterministic: \
             the same case, traces, events and seed reproduce the same digests.")
  in
  let traces =
    Arg.(value & opt int 10 & info [ "traces"; "t" ] ~docv:"N" ~doc:"Traces (with --case).")
  in
  let events =
    Arg.(value & opt int 50_000 & info [ "events"; "n" ] ~docv:"N" ~doc:"Events (with --case).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Seed (with --case).")
  in
  let wire_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "input"; "i" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded wire-format log (see $(b,ocep record)) through admission and \
             explain one of its reports; requires $(b,--pattern).")
  in
  let pattern_files =
    Arg.(
      value
      & opt_all file []
      & info [ "pattern"; "p" ] ~docv:"FILE" ~doc:"Pattern source file(s), with $(b,--input).")
  in
  let run digest list_all case traces events seed wire_file pattern_files =
    if digest = "" && not list_all then begin
      Printf.eprintf "ocep explain: give a DIGEST (or --list)\n";
      exit 2
    end;
    let finish engine =
      if list_all then begin
        List.iter
          (fun h ->
            let pattern_id = Engine.Handle.id h in
            List.iter
              (fun r ->
                Printf.printf "pattern %d  %s  seq %d\n" pattern_id
                  (Runner.report_digest ~pattern_id r)
                  r.Ocep.Subset.seq)
              (Engine.Handle.reports h))
          (Engine.handles engine);
        0
      end
      else begin
        print_string (Explain.explain engine ~digest);
        match Explain.find engine ~digest with Some _ -> 0 | None -> 1
      end
    in
    match (case, wire_file) with
    | Some c, None ->
      let w = Cases.make c ~traces ~seed ~max_events:events in
      let names = Sim.trace_names w.Workload.sim_config in
      let poet = Poet.create ~trace_names:names () in
      let net = Compile.compile (Parser.parse w.Workload.pattern) in
      let engine = Engine.create ~net ~poet () in
      Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
      ignore
        (Sim.run w.Workload.sim_config
           ~sink:(fun raw -> ignore (Poet.ingest poet raw))
           ~bodies:w.Workload.bodies);
      finish engine
    | None, Some f ->
      if pattern_files = [] then begin
        Printf.eprintf "ocep explain: --input needs at least one --pattern\n";
        exit 2
      end;
      let nets = List.map snd (load_pattern_files pattern_files) in
      let ic = open_in_bin f in
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let reader =
        try Framing.create_reader ic
        with Framing.Bad_header e ->
          Printf.eprintf "ocep explain: %s: %s\n" f e;
          exit 1
      in
      let poet = Poet.create ~trace_names:(Framing.reader_trace_names reader) () in
      let engine = Engine.create ~poet () in
      List.iter (fun net -> ignore (Engine.add_pattern engine net)) nets;
      Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
      (try ignore (Session.replay ~engine reader)
       with Admission.Gap e ->
         Printf.eprintf "ocep explain: unrecoverable gap: %s\n" e;
         exit 1);
      finish engine
    | _ ->
      Printf.eprintf "ocep explain: give exactly one of --case or --input\n";
      2
  in
  let info =
    Cmd.info "explain"
      ~doc:
        "Re-run a workload (or replay a recorded log) and render the full ingest -> match \
         causal chain of the report named by DIGEST: each bound event with its wire record, \
         admission verdict and decode/admit/dispatch timeline, the causal constraints the \
         matcher verified, and the admission drop-ring context. If no retained report matches, \
         prints each pattern's nearest miss — which leaf failed binding last."
  in
  Cmd.v info
    Term.(
      const run $ digest $ list_all $ case $ traces $ events $ seed $ wire_file $ pattern_files)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some (host_port_conv "address")) None
      & info [] ~docv:"HOST:PORT" ~doc:"Telemetry listener of a running $(b,--listen) command.")
  in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SEC" ~doc:"Poll interval.")
  in
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N" ~doc:"Stop after N polls (0 = until interrupted).")
  in
  (* the metrics worth a live terminal line, in display order *)
  let interesting name =
    List.exists
      (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
      [
        "ocep_events_total";
        "ocep_terminating_total";
        "ocep_matches_total";
        "ocep_reports_total";
        "ocep_watermark";
        "ocep_ingest_lag_records";
        "ocep_reorder_depth";
        "ocep_ingest_frames_total";
        "ocep_ingest_admitted_total";
        "ocep_trace_staleness_us";
        "ocep_spans_total";
        "ocep_spans_dropped_total";
      ]
  in
  let run (host, port) interval iterations =
    if interval <= 0. then begin
      Printf.eprintf "ocep top: --interval must be positive\n";
      exit 2
    end;
    let n = ref 0 in
    let continue = ref true in
    let code = ref 0 in
    let get path =
      try Serve.http_get ~host ~port ~path () with
      | Unix.Unix_error (e, _, _) -> (0, Unix.error_message e)
      | Failure e | Invalid_argument e -> (0, e)
    in
    while !continue do
      incr n;
      let health_status, health_body = get "/healthz" in
      let status, body = get "/snapshot.json" in
      print_string "\027[2J\027[H";
      Printf.printf "ocep top — http://%s:%d  poll %d  health %d %s\n" host port !n
        health_status
        (String.trim health_body);
      (if status <> 200 then begin
         Printf.printf "snapshot: HTTP %d\n" status;
         code := 1
       end
       else
         match Minijson.parse body with
         | Error e ->
           Printf.printf "snapshot: unparseable: %s\n" e;
           code := 1
         | Ok (Minijson.Obj fields) ->
           code := 0;
           List.iter
             (fun (k, v) ->
               if interesting k then
                 match v with
                 | Minijson.Num f ->
                   if Float.is_integer f then Printf.printf "  %-48s %.0f\n" k f
                   else Printf.printf "  %-48s %.1f\n" k f
                 | _ -> ())
             fields
         | Ok _ ->
           Printf.printf "snapshot: not a JSON object\n";
           code := 1);
      flush stdout;
      if iterations > 0 && !n >= iterations then continue := false
      else Unix.sleepf interval
    done;
    !code
  in
  let info =
    Cmd.info "top"
      ~doc:
        "Live terminal view of a running engine: poll $(b,/snapshot.json) from an $(b,ocep run \
         --listen)/$(b,ocep replay --listen) process and render the headline counters, \
         watermarks, lag and staleness."
  in
  Cmd.v info Term.(const run $ addr $ interval $ iterations)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let pattern_file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Pattern source file.")
  in
  let all_cases =
    Arg.(
      value & flag
      & info [ "all-cases" ]
          ~doc:
            "Instead of FILE, compile every built-in case-study pattern and register all of \
             them into one multi-pattern engine; exit nonzero on the first failure.")
  in
  let check_one src =
    match Compile.compile_file (Parser.parse_file src) with
    | nets -> Ok nets
    | exception Parser.Parse_error e -> Error (Printf.sprintf "parse error: %s" e)
    | exception Compile.Compile_error e -> Error (Printf.sprintf "compile error: %s" e)
    | exception Invalid_argument e -> Error e
  in
  let run pattern_file all_cases =
    match (pattern_file, all_cases) with
    | Some _, true | None, false ->
      Printf.eprintf "ocep check: give exactly one of FILE or --all-cases\n";
      2
    | Some f, false -> (
      match check_one (read_file f) with
      | Ok [ (_, net) ] ->
        Format.printf "%a" Compile.pp net;
        0
      | Ok nets ->
        List.iter (fun (name, net) -> Format.printf "-- %s --@.%a" name Compile.pp net) nets;
        0
      | Error e ->
        Printf.eprintf "%s\n" e;
        1)
    | None, true ->
      (* one registry engine must accept all four patterns together *)
      let w = Cases.make (List.hd Cases.all_names) ~traces:6 ~seed:1 ~max_events:1 in
      let poet = Poet.create ~trace_names:(Sim.trace_names w.Workload.sim_config) () in
      let engine = Engine.create ~poet () in
      Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
      let rec go = function
        | [] ->
          Printf.printf "all %d case patterns compile and register together\n"
            (Engine.pattern_count engine);
          0
        | case :: rest -> (
          let src = (Cases.make case ~traces:6 ~seed:1 ~max_events:1).Workload.pattern in
          match check_one src with
          | Error e ->
            Printf.eprintf "%s: %s\n" case e;
            1
          | Ok ([] | _ :: _ :: _) ->
            Printf.eprintf "%s: expected one pattern\n" case;
            1
          | Ok [ (_, net) ] -> (
            match Engine.add_pattern engine net with
            | h ->
              Printf.printf "%-10s ok: pattern %d, %d leaves\n" case (Engine.Handle.id h)
                (Compile.size net);
              go rest
            | exception Invalid_argument e ->
              Printf.eprintf "%s: %s\n" case e;
              1))
      in
      go Cases.all_names
  in
  let info =
    Cmd.info "check"
      ~doc:
        "Parse and compile a pattern, printing its constraint net; or validate every built-in \
         case pattern with $(b,--all-cases)."
  in
  Cmd.v info Term.(const run $ pattern_file $ all_cases)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let seeds =
    Arg.(value & opt int 200 & info [ "seeds"; "n" ] ~docv:"N" ~doc:"Number of seeds to fuzz.")
  in
  let start_seed =
    Arg.(value & opt int 1 & info [ "start-seed" ] ~docv:"SEED" ~doc:"First seed.")
  in
  let mutant =
    let names = String.concat ", " (List.map fst Fuzz.mutations) in
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Seed a deliberate bug into the engine under test (%s) and expect divergences — \
                a self-test of the fuzzer. Exit status inverts: finding nothing is the failure."
               names))
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:"Save each minimized diverging case into DIR as a replayable .case file.")
  in
  let run seeds start_seed mutant corpus_dir =
    if seeds <= 0 then begin
      Printf.eprintf "ocep fuzz: --seeds must be positive\n";
      2
    end
    else begin
      let mutation =
        match mutant with
        | None -> None
        | Some name -> (
          match Fuzz.mutation_of_name name with
          | Some m -> Some m
          | None ->
            Printf.eprintf "ocep fuzz: unknown mutant %S (want %s)\n" name
              (String.concat ", " (List.map fst Fuzz.mutations));
            exit 2)
      in
      let s =
        Fuzz.run ?mutation ?corpus_dir ~log:print_endline ~seeds ~start_seed ()
      in
      Printf.printf "fuzz: %d seeds, brute-force oracle on %d, %d divergence(s)\n" s.Fuzz.s_ran
        s.Fuzz.s_oracle_checked
        (List.length s.Fuzz.s_failures);
      match (mutation, s.Fuzz.s_failures) with
      | None, [] -> 0
      | None, (seed, d) :: _ ->
        Printf.printf "first divergence: seed %d: %s: %s\n" seed d.Fuzz.d_oracle d.Fuzz.d_detail;
        1
      | Some _, [] ->
        (* a mutant that survives the campaign means the fuzzer is blind *)
        Printf.printf "mutant survived %d seeds undetected\n" s.Fuzz.s_ran;
        1
      | Some _, (seed, d) :: _ ->
        Printf.printf "mutant caught: seed %d: %s: %s\n" seed d.Fuzz.d_oracle d.Fuzz.d_detail;
        0
    end
  in
  let info =
    Cmd.info "fuzz"
      ~doc:
        "Differential fuzzing: random (pattern, workload, fault schedule) cases — every \
         third one a template-instantiated multi-pattern registry — checked against \
         dedicated per-pattern engines (vs the shared dispatch automaton), the brute-force \
         oracle and record/replay; diverging cases are minimized and written to the corpus."
  in
  Cmd.v info Term.(const run $ seeds $ start_seed $ mutant $ corpus_dir)

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_cmd =
  let trace_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"POET dump file.")
  in
  let diagram =
    Arg.(value & flag & info [ "diagram"; "d" ] ~doc:"Also draw the stream tail.")
  in
  let run trace_file diagram =
    let ic = open_in trace_file in
    let names, raws = Poet.load ic in
    close_in ic;
    if not (Ocep_poet.Linearize.is_linearization raws) then begin
      Printf.eprintf "error: %s is not a valid linearization (a receive precedes its send)
"
        trace_file;
      1
    end
    else begin
      let n = Array.length names in
      let per_trace = Array.make n 0 in
      let sends = ref 0 and recvs = ref 0 and internals = ref 0 in
      let by_type : (string, int) Hashtbl.t = Hashtbl.create 32 in
      List.iter
        (fun (r : Ocep_base.Event.raw) ->
          per_trace.(r.r_trace) <- per_trace.(r.r_trace) + 1;
          (match r.r_kind with
          | Ocep_base.Event.Send _ -> incr sends
          | Ocep_base.Event.Receive _ -> incr recvs
          | Ocep_base.Event.Internal -> incr internals);
          Hashtbl.replace by_type r.r_etype
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_type r.r_etype)))
        raws;
      Printf.printf "%s: %d events, %d traces (%d sends, %d receives, %d internal)
" trace_file
        (List.length raws) n !sends !recvs !internals;
      Array.iteri (fun t name -> Printf.printf "  %-12s %8d events
" name per_trace.(t)) names;
      Printf.printf "event types:
";
      let types = List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_type []) in
      List.iter (fun (ty, c) -> Printf.printf "  %-20s %8d
" ty c) types;
      if diagram then begin
        let poet = Poet.create ~retain:true ~trace_names:names () in
        List.iter (fun r -> ignore (Poet.ingest poet r)) raws;
        print_string (Ocep_poet.Diagram.render ~max_events:70 ~trace_names:names (Poet.all_events poet))
      end;
      0
    end
  in
  let info = Cmd.info "info" ~doc:"Inspect a trace dump: validity, per-trace and per-type counts." in
  Cmd.v info Term.(const run $ trace_file $ diagram)

(* ------------------------------------------------------------------ *)
(* repro                                                               *)
(* ------------------------------------------------------------------ *)

let repro_cmd =
  let events =
    Arg.(
      value & opt int 50_000
      & info [ "events"; "n" ] ~docv:"N" ~doc:"Events per run (the paper uses >1M).")
  in
  let runs =
    Arg.(
      value & opt int 2
      & info [ "runs"; "r" ] ~docv:"N" ~doc:"Seeded runs pooled per configuration (paper: 5).")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"SECTION"
          ~doc:"Limit to one section: fig3, fig6, fig7, fig8, fig9, fig10, completeness, \
                fig6-length, multi, baselines, lattice, ablations.")
  in
  let run events runs only =
    let scale = { Repro.events; runs } in
    let ppf = Format.std_formatter in
    (match only with
    | None -> Repro.all ppf ~scale
    | Some "fig3" -> Repro.fig3 ppf
    | Some "fig6" -> Repro.boxplot_figure ppf ~scale ~case:"deadlock"
    | Some "fig6-length" -> Repro.fig6_pattern_length ppf ~scale
    | Some "fig7" -> Repro.boxplot_figure ppf ~scale ~case:"races"
    | Some "fig8" -> Repro.boxplot_figure ppf ~scale ~case:"atomicity"
    | Some "fig9" -> Repro.boxplot_figure ppf ~scale ~case:"ordering"
    | Some "fig10" -> Repro.fig10 ppf ~scale
    | Some "completeness" -> Repro.completeness ppf ~scale
    | Some "multi" -> Repro.multi ppf ~scale
    | Some "baselines" -> Repro.baselines ppf ~scale
    | Some "lattice" -> Repro.lattice ppf ~scale
    | Some "ablations" ->
      Repro.ablation_pruning ppf ~scale;
      Repro.ablation_history ppf ~scale;
      Repro.ablation_gc ppf ~scale
    | Some other -> Format.eprintf "unknown section %s@." other);
    0
  in
  let info = Cmd.info "repro" ~doc:"Regenerate the paper's evaluation tables and figures." in
  Cmd.v info Term.(const run $ events $ runs $ only)

let () =
  let doc = "OCEP: online causal-event-pattern matching (ICDCS 2013 reproduction)" in
  let info = Cmd.info "ocep" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            gen_cmd;
            record_cmd;
            run_cmd;
            replay_cmd;
            serve_cmd;
            explain_cmd;
            top_cmd;
            check_cmd;
            fuzz_cmd;
            info_cmd;
            repro_cmd;
          ]))
