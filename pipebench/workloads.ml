(* The four named workloads, and why each exists.

   - replay-races: matcher search and subset dominate (about 2 KB
     allocated per event), and the busiest trace passes 32,768 events,
     where Vc_pool's quad-packed tier switches off. Search-path and
     allocation work shows here.
   - replay-deadlock-reorder: the engine does little per event, and the
     recording is degraded once at record time (reorder:8, dup:0.05, no
     drops), so framing, admission's reorder buffer and POET stamping
     dominate. A search-only change should leave it unchanged. It runs
     by name and in the self-test, but BENCHMARK.json leaves it out: on
     a host with noisy memory bandwidth its timings spread too widely
     across runs to gate on (see README.md).
   - service-stream: two tenants on two shards, closed loop over
     loopback; isolates the router, shard queue and control path.
   - service-churn: back-to-back short tenant sessions; the per-tenant
     fixed cost (engine and POET creation, pattern compile, connection
     thread) that no other workload measures. *)

let names = [ "replay-races"; "replay-deadlock-reorder"; "service-stream"; "service-churn" ]

(* scratch files (wire logs, span dumps) live here, under the directory
   the benchmark runs in *)
let work_dir = ".pipebench-work"

let run ?oracle_digest ~workload ~seed ~seconds ~trace ~scale () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let size n = max 200 (int_of_float (float_of_int n *. scale)) in
  let replay ~case ~traces ~events ~degraded =
    let inp =
      Replay.prepare ~work:work_dir ~label:workload ~seed ~oracle_digest ~case ~traces
        ~events:(size events) ~degraded
    in
    Fun.protect
      ~finally:(fun () -> Sys.remove inp.Replay.log)
      (fun () -> Replay.run ~trace ~seconds ~work:work_dir ~label:workload inp)
  in
  match workload with
  | "replay-races" -> replay ~case:"races" ~traces:8 ~events:150_000 ~degraded:false
  | "replay-deadlock-reorder" -> replay ~case:"deadlock" ~traces:20 ~events:200_000 ~degraded:true
  | "service-stream" ->
    Service.stream ~work:work_dir ~seed ~oracle_digest ~seconds ~trace ~events:(size 60_000)
  | "service-churn" -> Service.churn ~work:work_dir ~seed ~oracle_digest ~seconds ~trace ~scale
  | w -> invalid_arg ("unknown workload " ^ w)
