(* Property suite: the lane-packed pool against the dense reference.

   Every Vc_pool operation must be observably identical to the
   allocating Vclock it replaces, whatever lane width a snapshot was
   written at. Random schedules check the 15-bit lanes most streams
   use, a deterministic march across 2^15 checks the switch to 31-bit
   lanes, and an 8-trace races stream pins the words each snapshot
   costs on both sides of that switch. *)

module Vclock = Ocep_base.Vclock
module Vc_pool = Ocep_base.Vc_pool
module Prng = Ocep_base.Prng
module Event = Ocep_base.Event
module Arena = Ocep_base.Arena
module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Workload = Ocep_workloads.Workload
module Cases = Ocep_harness.Cases

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Live-row evolution vs a Vclock reference model                      *)
(* ------------------------------------------------------------------ *)

(* A receive as POET stamps it: merge the sender's snapshot, tick, and
   freeze the result. *)
let receive pool ~trace h =
  Vc_pool.merge_into pool ~trace h;
  ignore (Vc_pool.tick pool ~trace : int);
  Vc_pool.snapshot pool ~trace

(* Drive a pool and an array of persistent Vclocks through the same
   random tick / send / receive schedule — the exact shape of the POET
   ingest loop — and require every snapshot and every live row to
   agree. *)
let evolution_agrees ~dim ~events ~seed =
  let prng = Prng.create seed in
  let pool = Vc_pool.create ~dim in
  let refs = Array.init dim (fun _ -> Vclock.make ~dim) in
  let pending = ref [] in (* (handle, reference clock) of unreceived sends *)
  let ok = ref true in
  let agree h v =
    if Vc_pool.to_array pool h <> Vclock.to_array v then ok := false
  in
  for _ = 1 to events do
    let tr = Prng.int prng dim in
    match Prng.int prng 3 with
    | 0 ->
      ignore (Vc_pool.tick pool ~trace:tr : int);
      refs.(tr) <- Vclock.tick refs.(tr) ~trace:tr
    | 1 ->
      (* send: tick, then freeze the row *)
      ignore (Vc_pool.tick pool ~trace:tr : int);
      refs.(tr) <- Vclock.tick refs.(tr) ~trace:tr;
      let h = Vc_pool.snapshot pool ~trace:tr in
      agree h refs.(tr);
      pending := (h, refs.(tr)) :: !pending
    | _ -> (
      (* receive, if something is pending *)
      match !pending with
      | [] -> ()
      | (h, sent) :: rest ->
        pending := rest;
        let hh = receive pool ~trace:tr h in
        refs.(tr) <- Vclock.tick_merge refs.(tr) sent ~trace:tr;
        agree hh refs.(tr);
        if Vc_pool.get pool ~trace:tr ~entry:tr <> Vclock.get refs.(tr) tr then ok := false)
  done;
  for tr = 0 to dim - 1 do
    if Vc_pool.current_to_array pool ~trace:tr <> Vclock.to_array refs.(tr) then ok := false
  done;
  !ok

let evolution_prop =
  QCheck.Test.make ~name:"pool evolution matches Vclock model (for random schedules)" ~count:60
    QCheck.(triple (int_range 1 24) (int_range 10 800) (int_bound 1_000_000))
    (fun (dim, events, seed) -> evolution_agrees ~dim ~events ~seed)

let evolution_long () =
  (* one deep deterministic schedule per shape class *)
  List.iter
    (fun (dim, events, seed) ->
      check (Printf.sprintf "evolution dim=%d events=%d" dim events) true
        (evolution_agrees ~dim ~events ~seed))
    [ (1, 2000, 1); (2, 2000, 2); (20, 20_000, 2013); (50, 10_000, 7); (64, 5000, 11) ]

(* Drive a live value across the 15-bit lane limit (2^15): every later
   snapshot must switch to 31-bit lanes while the 15-bit snapshots
   written before stay readable and mergeable. Two traces ping-pong
   sends so both the send and the receive side cross the boundary, with
   reference clocks checked on both sides throughout the window. *)
let wide_boundary () =
  let dim = 6 in
  let pool = Vc_pool.create ~dim in
  let refs = Array.init dim (fun _ -> Vclock.make ~dim) in
  (* 15-bit snapshots of every trace, each received by every peer *)
  let early = ref [] in
  for tr = 0 to dim - 1 do
    for _ = 1 to 1 + tr do
      ignore (Vc_pool.tick pool ~trace:tr : int);
      refs.(tr) <- Vclock.tick refs.(tr) ~trace:tr
    done;
    let h = Vc_pool.snapshot pool ~trace:tr in
    early := (h, Vclock.to_array refs.(tr)) :: !early;
    for peer = 0 to dim - 1 do
      if peer <> tr then begin
        let hh = receive pool ~trace:peer h in
        refs.(peer) <- Vclock.tick_merge refs.(peer) refs.(tr) ~trace:peer;
        if Vc_pool.to_array pool hh <> Vclock.to_array refs.(peer) then
          Alcotest.failf "setup receive diverged at trace %d <- %d" peer tr
      end
    done
  done;
  (* one message stays in flight across the switch *)
  ignore (Vc_pool.tick pool ~trace:2 : int);
  refs.(2) <- Vclock.tick refs.(2) ~trace:2;
  let in_flight = Vc_pool.snapshot pool ~trace:2 and in_flight_ref = refs.(2) in
  (* march trace 0's own entry across 32768, ping-ponging with trace 1
     so sends and receives straddle the crossing *)
  let target = 33_000 in
  while Vc_pool.get pool ~trace:0 ~entry:0 < target do
    for _ = 1 to 97 do
      ignore (Vc_pool.tick pool ~trace:0 : int);
      refs.(0) <- Vclock.tick refs.(0) ~trace:0
    done;
    ignore (Vc_pool.tick pool ~trace:0 : int);
    refs.(0) <- Vclock.tick refs.(0) ~trace:0;
    let h = Vc_pool.snapshot pool ~trace:0 in
    if Vc_pool.to_array pool h <> Vclock.to_array refs.(0) then
      Alcotest.failf "send snapshot diverged at own=%d" (Vc_pool.get pool ~trace:0 ~entry:0);
    let hh = receive pool ~trace:1 h in
    refs.(1) <- Vclock.tick_merge refs.(1) refs.(0) ~trace:1;
    if Vc_pool.to_array pool hh <> Vclock.to_array refs.(1) then
      Alcotest.failf "receive diverged at own=%d" (Vc_pool.get pool ~trace:0 ~entry:0)
  done;
  (* snapshots written before the switch must still decode and merge *)
  List.iter
    (fun (h, expect) ->
      if Vc_pool.to_array pool h <> expect then
        Alcotest.fail "pre-boundary snapshot no longer decodes")
    !early;
  let hh = receive pool ~trace:3 in_flight in
  refs.(3) <- Vclock.tick_merge refs.(3) in_flight_ref ~trace:3;
  if Vc_pool.to_array pool hh <> Vclock.to_array refs.(3) then
    Alcotest.fail "a message sent before the switch and received after it diverged";
  check "crossed the lane limit" true (Vc_pool.get pool ~trace:0 ~entry:0 >= 32_768)

(* ------------------------------------------------------------------ *)
(* Footprint                                                           *)
(* ------------------------------------------------------------------ *)

(* An 8-trace races stream long enough that its busiest trace passes
   32767 events. Every snapshot is one header word plus the row's eight
   entries in 15-bit lanes (two words) until the first tick past 2^15,
   and in 31-bit lanes (four words) from then on; internal events write
   nothing. *)
let races_footprint () =
  let w = Cases.make "races" ~traces:8 ~seed:1 ~max_events:150_000 in
  let poet = Poet.create ~trace_names:(Sim.trace_names w.Workload.sim_config) () in
  let pool = Poet.vc_pool poet in
  let wide = ref false and narrow = ref 0 and wider = ref 0 in
  let sink (raw : Event.raw) =
    let before = Vc_pool.words pool in
    let eid = Poet.ingest_flat poet raw in
    if Arena.index (Poet.arena poet) eid > 32_767 then wide := true;
    let expect =
      match raw.Event.r_kind with
      | Event.Internal -> 0
      | Event.Send _ | Event.Receive _ ->
        if !wide then incr wider else incr narrow;
        if !wide then 5 else 3
    in
    let got = Vc_pool.words pool - before in
    if got <> expect then
      Alcotest.failf "event %d (trace %d index %d): %d clock words, want %d" eid
        raw.Event.r_trace (Arena.index (Poet.arena poet) eid) got expect
  in
  ignore (Sim.run w.Workload.sim_config ~sink ~bodies:w.Workload.bodies : Sim.stats);
  check "snapshots on both sides of the switch" true (!narrow > 0 && !wider > 0)

let () =
  Alcotest.run "vc_pool"
    [
      ( "evolution",
        [
          QCheck_alcotest.to_alcotest evolution_prop;
          Alcotest.test_case "long schedules" `Quick evolution_long;
          Alcotest.test_case "15-bit lane boundary" `Quick wide_boundary;
        ] );
      ( "footprint",
        [ Alcotest.test_case "races, 8 traces: 3 then 5 words a snapshot" `Quick races_footprint ] );
    ]
