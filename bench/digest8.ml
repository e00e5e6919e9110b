(* Report digests of the 8 workloads, each run sequentially and with
   the search pool forced on (4 workers), in arena and record mode. CI
   diffs the output against bench/digest8.expected, so any change to
   what the engine reports shows up there:

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
      List.iter
        (fun (par, arena) ->
          let w = Cases.make case ~traces:10 ~seed:42 ~max_events:3000 in
          let names = Sim.trace_names w.Workload.sim_config in
          let poet = Poet.create ~trace_names:names () in
          let config =
            {
              Engine.default_config with
              Engine.parallelism = par;
              arena;
              record_latency = false;
              cutover_batch = 0;
              cutover_work = 0;
            }
          in
          let net =
            Ocep_pattern.Compile.compile (Ocep_pattern.Parser.parse w.Workload.pattern)
          in
          let engine = Engine.create ~config ~net ~poet () in
          Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
          ignore
            (Sim.run w.Workload.sim_config
               ~sink:(fun raw -> ignore (Poet.ingest poet raw))
               ~bodies:w.Workload.bodies);
          Printf.printf "%s par=%d arena=%b %s\n%!" case par arena
            (Runner.reports_digest engine))
        [ (1, true); (1, false); (4, true); (4, false) ])
    Cases.all_names
