(* The benchmark's own test: every workload at a small size, in both
   modes, must pass its checks and print every metric BENCHMARK.json
   names, with the unit it declares there; and a wrong oracle digest must
   make the gate fail. *)

open Pipebench
module J = Ocep_obs.Minijson

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let declared =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse text with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e)

let metric_list key =
  match J.member key declared with
  | Some (J.Arr l) ->
    List.map
      (fun m ->
        match (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "unit" m) J.to_str) with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("malformed entry under " ^ key))
      l
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

let workload_names =
  match J.member "workloads" declared with
  | Some (J.Arr l) -> List.filter_map (fun w -> Option.bind (J.member "name" w) J.to_str) l
  | _ -> []

let run ?oracle_digest workload ~trace =
  Workloads.run ?oracle_digest ~workload ~seed:7 ~seconds:0.3 ~trace ~scale:0.02 ()

let () =
  check "BENCHMARK.json names only the benchmark's workloads"
    (workload_names <> [] && List.for_all (fun w -> List.mem w Workloads.names) workload_names);
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let r = run workload ~trace in
          let what = Printf.sprintf "%s --trace %d" workload (if trace then 1 else 0) in
          check (what ^ ": no failed operation") (r.Report.failed = 0 && r.Report.attempted > 0);
          let line = Report.json ~correct:(r.Report.failed = 0) r ~trace in
          if r.Report.failed > 0 then List.iter print_endline r.Report.lines;
          match J.parse line with
          | Error e -> check (what ^ ": result line parses: " ^ e) false
          | Ok j ->
            let metrics = Option.value (J.member "metrics" j) ~default:J.Null in
            let expected = metric_list (if trace then "per_layer" else "end_to_end") in
            List.iter
              (fun (name, unit) ->
                match J.member name metrics with
                | None -> check (Printf.sprintf "%s: metric %s printed" what name) false
                | Some m ->
                  check
                    (Printf.sprintf "%s: %s has unit %s" what name unit)
                    (Option.bind (J.member "unit" m) J.to_str = Some unit);
                  check
                    (Printf.sprintf "%s: %s has a numeric value" what name)
                    (Option.bind (J.member "value" m) J.to_num <> None))
              expected;
            (match metrics with
            | J.Obj kv -> check (what ^ ": no undeclared metric") (List.length kv = List.length expected)
            | _ -> check (what ^ ": metrics is an object") false);
            if not trace then
              check (what ^ ": events_per_s is positive")
                (match Option.bind (J.member "events_per_s" metrics) (J.member "value") with
                | Some v -> Option.value (J.to_num v) ~default:0. > 0.
                | None -> false))
        [ false; true ])
    Workloads.names;
  (* the digest gate: a wrong oracle fails every workload *)
  List.iter
    (fun workload ->
      let r = run ~oracle_digest:Inputs.wrong_digest workload ~trace:false in
      check (workload ^ ": a wrong oracle digest counts as failed") (r.Report.failed > 0))
    Workloads.names;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "pipebench self-test: ok"
