(* Sample buffers, order statistics and process-wide resource readings. *)

(* A latency sample buffer of fixed size, allocated up front so the
   benchmark's own memory does not grow with the run: once full it keeps
   a uniform reservoir sample (seeded, so deterministic) of everything
   added. *)
type samples = { a : float array; mutable n : int; mutable seen : int; rng : Random.State.t }

let samples ?(capacity = 1 lsl 20) () =
  { a = Array.make capacity 0.; n = 0; seen = 0; rng = Random.State.make [| 17 |] }

let add s v =
  s.seen <- s.seen + 1;
  if s.n < Array.length s.a then begin
    s.a.(s.n) <- v;
    s.n <- s.n + 1
  end
  else begin
    let j = Random.State.int s.rng s.seen in
    if j < s.n then s.a.(j) <- v
  end

(* samples taken, including those the reservoir dropped *)
let count s = s.seen

let reset s =
  s.n <- 0;
  s.seen <- 0

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

(* nearest-rank quantile of a sorted array; 0 when empty *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median_of_list = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A timing's tail: the workload's fixed percentile [q] when at least ten
   samples lie beyond it, else the highest of p99/p95/p90/p75 that has
   ten (p50 when none has). Returns the percentile used and its value. *)
let tail ~q sorted =
  let n = float_of_int (Array.length sorted) in
  let q =
    if n *. (1. -. q) >= 10. then q
    else
      match List.find_opt (fun q -> n *. (1. -. q) >= 10.) [ 0.99; 0.95; 0.9; 0.75 ] with
      | Some q -> q
      | None -> 0.5
  in
  (q, quantile sorted q)

(* user + system CPU of the whole process, every thread and domain *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* OCaml heap bytes allocated so far, summed over domains: [quick_stat]
   adds each live domain's counters as of its last minor collection and
   every terminated domain's in full, so a reading taken after the
   domains doing the work have been joined is exact *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. float_of_int (Sys.word_size / 8)

let rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  go ()

(* resident memory when the program started, before any input existed:
   the fixed base memory metrics are measured from *)
let start_rss_mb = rss_mb ()
