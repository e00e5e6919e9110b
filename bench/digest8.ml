(* Report digests of the 8 workloads, one line per workload. CI diffs
   the output against bench/digest8.expected, so any change to what the
   engine reports shows up there:

     dune exec bench/digest8.exe | diff bench/digest8.expected - *)
module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Engine = Ocep.Engine
module Workload = Ocep_workloads.Workload
module Cases = Ocep_harness.Cases
module Runner = Ocep_harness.Runner

let () =
  List.iter
    (fun case ->
      let w = Cases.make case ~traces:10 ~seed:42 ~max_events:3000 in
      let names = Sim.trace_names w.Workload.sim_config in
      let poet = Poet.create ~trace_names:names () in
      let config = { Engine.default_config with Engine.record_latency = false } in
      let net = Ocep_pattern.Compile.compile (Ocep_pattern.Parser.parse w.Workload.pattern) in
      let engine = Engine.create ~config ~net ~poet () in
      Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
      ignore
        (Sim.run w.Workload.sim_config
           ~sink:(fun raw -> ignore (Poet.ingest poet raw))
           ~bodies:w.Workload.bodies);
      Printf.printf "%s %s\n%!" case (Runner.reports_digest engine))
    Cases.all_names
