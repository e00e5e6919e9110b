(* pipebench: run one named workload from a seed and print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Human-readable notes go first; the last line of standard output is
   one JSON object {correct, attempted, failed, metrics}. With --trace 0
   the metrics are the end-to-end set, with --trace 1 the per-layer set
   (from spans the benchmark records around each call into a layer).
   Exits 1 when any output fails its check (a digest that differs from
   the oracle's, admitted <> sent, a shed frame, an error reply, a gap,
   or a failed trace self-check), 2 on bad arguments. *)

open Pipebench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if (not (List.mem !workload Workloads.names)) || (!trace <> 0 && !trace <> 1) || !seconds <= 0.
  then begin
    prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
    exit 2
  end;
  let r =
    Workloads.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~scale:1. ()
  in
  Printf.printf "workload %s, seed %d, %.0f s measured, trace %d\n" !workload !seed !seconds !trace;
  List.iter print_endline r.Report.lines;
  let correct = r.Report.failed = 0 in
  print_endline (Report.json ~correct r ~trace:(!trace = 1));
  if not correct then exit 1
