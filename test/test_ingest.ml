(* The ingestion subsystem: wire-codec round-trips, framed-stream damage
   recovery, admission under degraded delivery, queue backpressure, and
   the headline property — replay through admission under bounded
   reorder and duplication is bit-identical to pristine in-process
   delivery on every case workload, sequential and parallel. *)

open Ocep_base
module Wire = Ocep_ingest.Wire
module Crc32 = Ocep_ingest.Crc32
module Framing = Ocep_ingest.Framing
module Admission = Ocep_ingest.Admission
module Bqueue = Ocep_ingest.Bqueue
module Source = Ocep_ingest.Source
module Session = Ocep_ingest.Session
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Sim = Ocep_sim.Sim
module Workload = Ocep_workloads.Workload
module Inject = Ocep_workloads.Inject
module Cases = Ocep_harness.Cases
module Runner = Ocep_harness.Runner

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

(* the standard check value: CRC-32/ISO-HDLC of "123456789" *)
let crc_check_value () =
  check "check value" true (Crc32.string "123456789" = 0xCBF43926);
  check "empty" true (Crc32.string "" = 0);
  let b = Bytes.of_string "xx123456789yy" in
  check "slice" true (Crc32.bytes b ~pos:2 ~len:9 = 0xCBF43926)

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let roundtrip w =
  let b = Buffer.create 64 in
  Wire.encode b w;
  let s = Buffer.to_bytes b in
  Wire.decode s ~pos:0 ~len:(Bytes.length s)

let codec_message_ids () =
  (* spill-range, negative and huge message ids all survive the zigzag
     varint; Internal carries no id at all *)
  List.iter
    (fun msg ->
      List.iter
        (fun kind ->
          let w =
            { Wire.id = 123; trace = 2; seq = 7; etype = "lock_acquire"; text = "r-1"; kind }
          in
          check (Printf.sprintf "msg %d" msg) true (roundtrip w = w))
        [ Event.Send { msg }; Event.Receive { msg } ])
    [ -5; 0; 1; Poet.dense_capacity - 1; Poet.dense_capacity; 1 lsl 40 ];
  let w = { Wire.id = 0; trace = 0; seq = 1; etype = "t"; text = ""; kind = Event.Internal } in
  check "internal" true (roundtrip w = w)

let codec_strings () =
  List.iter
    (fun (etype, text) ->
      let w = { Wire.id = 9; trace = 1; seq = 3; etype; text; kind = Event.Internal } in
      check "string roundtrip" true (roundtrip w = w))
    [ ("", ""); ("\xc3\xa9v\xc3\xa9nement", "na\xc3\xafve \xe2\x9c\x93 \xe4\xba\x8b\xe4\xbb\xb6");
      ("a", String.make 300 'x'); ("nul\x00byte", "\x00") ]

let wire_gen =
  QCheck.Gen.(
    map
      (fun ((id, trace, seq), (etype, text, k)) ->
        let kind =
          match k with
          | 0 -> Event.Internal
          | 1 -> Event.Send { msg = id * 7 - 500 }
          | _ -> Event.Receive { msg = (id * 13) - 1_000_000 }
        in
        { Wire.id; trace; seq; etype; text; kind })
      (pair
         (triple (int_bound 1_000_000) (int_bound 63) (int_bound 10_000))
         (triple (string_size ~gen:char (int_bound 16))
            (string_size ~gen:char (int_bound 16))
            (int_bound 2))))

let wire_arb =
  QCheck.make wire_gen ~print:(fun w -> Format.asprintf "%a (id %d seq %d)" Wire.pp w w.Wire.id w.Wire.seq)

let codec_roundtrip_prop =
  QCheck.Test.make ~name:"wire codec round-trips any event" ~count:500 wire_arb (fun w ->
      roundtrip w = w)

let codec_prefix_rejected_prop =
  QCheck.Test.make ~name:"every strict prefix of an encoding is rejected" ~count:200 wire_arb
    (fun w ->
      let b = Buffer.create 64 in
      Wire.encode b w;
      let s = Buffer.to_bytes b in
      let ok = ref true in
      for len = 0 to Bytes.length s - 1 do
        (match Wire.decode s ~pos:0 ~len with
        | _ -> ok := false
        | exception Wire.Decode_error _ -> ())
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Framing: damage recovery                                            *)
(* ------------------------------------------------------------------ *)

let mk_events n =
  List.init n (fun i ->
      {
        Wire.id = i;
        trace = i mod 2;
        seq = 1 + (i / 2);
        etype = Printf.sprintf "e%d" i;
        text = "";
        kind = Event.Internal;
      })

let with_temp f =
  let tmp = Filename.temp_file "ocep_ingest_test" ".wire" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () -> f tmp

let write_stream path events =
  let oc = open_out_bin path in
  let w = Framing.create_writer oc ~trace_names:[| "P0"; "P1" |] in
  List.iter (Framing.write w) events;
  Framing.flush w;
  close_out oc

let file_contents path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* (frames, damage marks in stream order) *)
let read_all path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let r = Framing.create_reader ic in
  let acc = ref [] and damage = ref [] in
  let continue = ref true in
  while !continue do
    match Framing.next r with
    | Framing.Frame w -> acc := w :: !acc
    | Framing.Crc_error -> damage := `Crc :: !damage
    | Framing.Bad_frame _ -> damage := `Bad :: !damage
    | Framing.Truncated ->
      damage := `Trunc :: !damage;
      continue := false
    | Framing.Eof -> continue := false
  done;
  (List.rev !acc, List.rev !damage)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let le32_of data off =
  Char.code data.[off]
  lor (Char.code data.[off + 1] lsl 8)
  lor (Char.code data.[off + 2] lsl 16)
  lor (Char.code data.[off + 3] lsl 24)

(* cut the stream at EVERY byte offset: the reader must hand back a
   clean prefix of the recorded events — never garbage, never a crash.
   A cut exactly on a frame boundary is a clean (if short) stream; any
   other cut must be reported as truncation. *)
let truncation_recovers_prefix () =
  let events = mk_events 10 in
  with_temp @@ fun tmp ->
  write_stream tmp events;
  let data = file_contents tmp in
  let header_end = 16 + le32_of data 8 in
  let boundaries = Hashtbl.create 16 in
  let pos = ref header_end in
  Hashtbl.replace boundaries !pos ();
  while !pos < String.length data do
    pos := !pos + 8 + le32_of data !pos;
    Hashtbl.replace boundaries !pos ()
  done;
  with_temp @@ fun cut_file ->
  for cut = 0 to String.length data - 1 do
    let oc = open_out_bin cut_file in
    output_string oc (String.sub data 0 cut);
    close_out oc;
    match read_all cut_file with
    | frames, damage ->
      check (Printf.sprintf "cut %d: prefix" cut) true (is_prefix frames events);
      if Hashtbl.mem boundaries cut then
        check (Printf.sprintf "cut %d: clean eof" cut) true (damage = [])
      else
        check (Printf.sprintf "cut %d: truncation reported" cut) true (damage = [ `Trunc ])
    | exception Framing.Bad_header _ ->
      check (Printf.sprintf "cut %d: inside the header" cut) true (cut < header_end)
  done;
  (* sanity: the uncut stream is whole *)
  let frames, damage = read_all tmp in
  check "uncut: all frames" true (frames = events);
  check "uncut: no damage" true (damage = [])

(* A data frame whose length prefix no real frame could have — all ones
   (negative when read as the signed 32-bit field it is) or one past
   [max_frame] — ends the stream as [Truncated] after the good frames:
   no exception, and nothing allocated anywhere near the claimed length. *)
let hostile_length_prefix () =
  let events = mk_events 3 in
  let le32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff)) in
  List.iter
    (fun len_field ->
      with_temp @@ fun tmp ->
      write_stream tmp events;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 tmp in
      output_string oc (le32 len_field);
      output_string oc (le32 0);
      output_string oc (String.make 64 'x');
      close_out oc;
      let before = Gc.allocated_bytes () in
      let frames, damage = read_all tmp in
      let allocated = Gc.allocated_bytes () -. before in
      let what = Printf.sprintf "length field 0x%x" len_field in
      check (what ^ ": good frames delivered") true (frames = events);
      check (what ^ ": reported as truncation") true (damage = [ `Trunc ]);
      check (what ^ ": no payload-sized allocation") true
        (allocated < float_of_int Framing.max_frame /. 4.))
    [ 0xFFFFFFFF; Framing.max_frame + 1 ]

let flip path off =
  let data = Bytes.of_string (file_contents path) in
  Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0x5a));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let corrupted_crc_skips_one_frame () =
  let events = mk_events 10 in
  (* first event frame starts right after the header frame *)
  with_temp @@ fun tmp ->
  write_stream tmp events;
  let data = file_contents tmp in
  let le32 off =
    Char.code data.[off]
    lor (Char.code data.[off + 1] lsl 8)
    lor (Char.code data.[off + 2] lsl 16)
    lor (Char.code data.[off + 3] lsl 24)
  in
  let first_frame = 8 + 8 + le32 8 in
  (* flip a payload byte of the first event frame *)
  flip tmp (first_frame + 8);
  let frames, damage = read_all tmp in
  check "first frame dropped, rest intact" true (frames = List.tl events);
  check "exactly one crc error" true (damage = [ `Crc ]);
  (* and a flipped byte in the last frame's payload only loses the tail *)
  with_temp @@ fun tmp2 ->
  write_stream tmp2 events;
  flip tmp2 (String.length data - 1);
  let frames2, damage2 = read_all tmp2 in
  check "last frame dropped" true
    (frames2 = List.filteri (fun i _ -> i < 9) events && damage2 = [ `Crc ])

let corrupted_header_rejected () =
  with_temp @@ fun tmp ->
  write_stream tmp (mk_events 3);
  flip tmp 9;
  (* inside the header frame *)
  check "bad header raises" true
    (match read_all tmp with
    | _ -> false
    | exception Framing.Bad_header _ -> true)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let collect_admission ?config ~n_traces frames =
  let out = ref [] in
  let adm =
    Admission.create ?config ~n_traces
      ~emit:(fun ~verdict:_ ~decode_us:_ ~admit_us:_ w -> out := w :: !out)
      ()
  in
  List.iter (Admission.push adm) frames;
  Admission.finish adm;
  (List.rev !out, Admission.stats adm)

let admission_restores_order () =
  let events = mk_events 200 in
  let shuffled =
    Inject.apply_faults { Inject.f_reorder = 16; f_dup = 0.; f_drop = 0. } ~seed:3 events
  in
  check "faults did reorder" true (shuffled <> events);
  let out, st = collect_admission ~n_traces:2 shuffled in
  check "exact order restored" true (out = events);
  checki "all admitted" 200 st.Admission.admitted;
  check "reordering seen" true (st.Admission.reordered > 0);
  check "depth bounded by the block" true (st.Admission.max_depth < 16);
  checki "no gaps" 0 st.Admission.gaps

let admission_suppresses_duplicates () =
  let events = mk_events 200 in
  let noisy =
    Inject.apply_faults { Inject.f_reorder = 8; f_dup = 0.2; f_drop = 0. } ~seed:5 events
  in
  let out, st = collect_admission ~n_traces:2 noisy in
  check "exact order restored" true (out = events);
  checki "duplicates counted" (List.length noisy - 200) st.Admission.duplicates

let window_boundary_rejected () =
  let mk window =
    ignore
      (Admission.create
         ~config:{ Admission.reorder_window = window; gap_policy = Admission.Wait }
         ~n_traces:1
         ~emit:(fun ~verdict:_ ~decode_us:_ ~admit_us:_ _ -> ())
         ())
  in
  check "zero window rejected" true
    (match mk 0 with _ -> false | exception Invalid_argument _ -> true);
  check "negative window rejected" true
    (match mk (-4) with _ -> false | exception Invalid_argument _ -> true);
  check "negative Skip patience rejected" true
    (match
       Admission.create
         ~config:{ Admission.reorder_window = 1; gap_policy = Admission.Skip (-1) }
         ~n_traces:1
         ~emit:(fun ~verdict:_ ~decode_us:_ ~admit_us:_ _ -> ())
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let window_one_admits_in_order () =
  (* the smallest legal window passes an already-ordered stream through
     untouched (nothing ever has to be held back) *)
  let events = mk_events 50 in
  let out, st =
    collect_admission
      ~config:{ Admission.reorder_window = 1; gap_policy = Admission.Wait }
      ~n_traces:2 events
  in
  check "all through in order" true (out = events);
  checki "all admitted" 50 st.Admission.admitted;
  checki "no gaps" 0 st.Admission.gaps

(* trace 0 sends, trace 1 receives; dropping the send must not crash the
   engine: the orphaned receive is dropped and counted *)
let orphan_frames =
  [
    { Wire.id = 0; trace = 0; seq = 1; etype = "a"; text = ""; kind = Event.Internal };
    { Wire.id = 1; trace = 0; seq = 2; etype = "m"; text = ""; kind = Event.Send { msg = 1 } };
    { Wire.id = 2; trace = 1; seq = 1; etype = "m"; text = ""; kind = Event.Receive { msg = 1 } };
    { Wire.id = 3; trace = 1; seq = 2; etype = "b"; text = ""; kind = Event.Internal };
  ]

let skip_drops_orphan_receive () =
  let delivered = List.filter (fun w -> w.Wire.id <> 1) orphan_frames in
  let out, st =
    collect_admission
      ~config:{ Admission.reorder_window = 64; gap_policy = Admission.Skip 1 }
      ~n_traces:2 delivered
  in
  check "send gap skipped, receive orphaned" true
    (List.map (fun w -> w.Wire.id) out = [ 0; 3 ]);
  checki "one gap" 1 st.Admission.gaps;
  checki "one orphan" 1 st.Admission.orphan_receives;
  checki "admitted" 2 st.Admission.admitted

let wait_flushes_at_finish () =
  let delivered = List.filter (fun w -> w.Wire.id <> 1) orphan_frames in
  let out, st = collect_admission ~n_traces:2 delivered in
  (* Wait holds 2 and 3 until finish, then flushes them in id order *)
  check "flushed in order" true (List.map (fun w -> w.Wire.id) out = [ 0; 3 ]);
  checki "gap found at finish" 1 st.Admission.gaps;
  checki "orphan still dropped" 1 st.Admission.orphan_receives;
  (* no trace-0 event follows the lost send, so there is no local-clock
     jump to attribute the loss at *)
  checki "no jump to charge" 0 (Array.fold_left ( + ) 0 st.Admission.trace_gaps)

(* A receive consumes its send: a second receive of one message id is
   orphaned, as if its send were lost, so POET never sees it; a later
   send of the same id may be received again. *)
let second_receive_orphaned () =
  let frame id trace seq kind = { Wire.id; trace; seq; etype = "m"; text = ""; kind } in
  let frames =
    [
      frame 0 0 1 (Event.Send { msg = 5 });
      frame 1 1 1 (Event.Receive { msg = 5 });
      frame 2 1 2 (Event.Receive { msg = 5 });
      frame 3 0 2 (Event.Send { msg = 5 });
      frame 4 1 3 (Event.Receive { msg = 5 });
      frame 5 0 3 (Event.Send { msg = Poet.dense_capacity });
      frame 6 1 4 (Event.Receive { msg = Poet.dense_capacity });
      frame 7 1 5 (Event.Receive { msg = Poet.dense_capacity });
    ]
  in
  let out, st = collect_admission ~n_traces:2 frames in
  check "second receives dropped" true
    (List.map (fun w -> w.Wire.id) out = [ 0; 1; 3; 4; 5; 6 ]);
  checki "two orphans" 2 st.Admission.orphan_receives;
  let poet = Poet.create ~trace_names:[| "P0"; "P1" |] () in
  List.iter (fun w -> ignore (Poet.ingest_flat poet (Wire.to_raw w) : int)) out

let trace_gap_attributed_at_jump () =
  let e id seq = { Wire.id; trace = 0; seq; etype = "x"; text = ""; kind = Event.Internal } in
  (* id 1 (seq 2) lost; the survivor with seq 3 reveals the jump *)
  let out, st = collect_admission ~n_traces:1 [ e 0 1; e 2 3 ] in
  check "survivors admitted" true (List.map (fun w -> w.Wire.id) out = [ 0; 2 ]);
  checki "one gap" 1 st.Admission.gaps;
  checki "charged to trace 0" 1 st.Admission.trace_gaps.(0)

let fail_raises_on_loss () =
  let delivered = List.filter (fun w -> w.Wire.id <> 1) orphan_frames in
  check "finish raises" true
    (match
       collect_admission
         ~config:{ Admission.reorder_window = 64; gap_policy = Admission.Fail }
         ~n_traces:2 delivered
     with
    | _ -> false
    | exception Admission.Gap _ -> true)

let wait_raises_on_window_overflow () =
  let events = mk_events 8 in
  let missing_head = List.tl events in
  check "overflow raises" true
    (match
       collect_admission
         ~config:{ Admission.reorder_window = 4; gap_policy = Admission.Wait }
         ~n_traces:2 missing_head
     with
    | _ -> false
    | exception Admission.Gap _ -> true)

let late_arrival_not_a_duplicate () =
  let e id seq =
    { Wire.id; trace = 0; seq; etype = "x"; text = ""; kind = Event.Internal }
  in
  let out = ref [] in
  let adm =
    Admission.create
      ~config:{ Admission.reorder_window = 64; gap_policy = Admission.Skip 0 }
      ~n_traces:1
      ~emit:(fun ~verdict:_ ~decode_us:_ ~admit_us:_ w -> out := w :: !out)
      ()
  in
  Admission.push adm (e 1 2);
  (* id 0 skipped immediately *)
  Admission.push adm (e 0 1);
  (* late, not a duplicate *)
  Admission.push adm (e 0 1);
  (* a second copy IS a duplicate *)
  Admission.finish adm;
  let st = Admission.stats adm in
  checki "late" 1 st.Admission.late;
  checki "duplicate" 1 st.Admission.duplicates;
  checki "gap" 1 st.Admission.gaps;
  check "only id 1 admitted" true (List.map (fun w -> w.Wire.id) (List.rev !out) = [ 1 ])

(* Provenance verdicts: emit gets In_order on the fast path, Reordered
   for anything that sat in the buffer; on_drop names why a record never
   reached the engine. *)
let verdicts_and_drops () =
  let module Provenance = Ocep_obs.Provenance in
  let e id seq = { Wire.id; trace = 0; seq; etype = "x"; text = ""; kind = Event.Internal } in
  let out = ref [] in
  let drops = ref [] in
  let adm =
    Admission.create
      ~config:{ Admission.reorder_window = 64; gap_policy = Admission.Skip 0 }
      ~n_traces:1
      ~emit:(fun ~verdict ~decode_us ~admit_us w ->
        check "admit after decode" true (admit_us >= decode_us);
        out := (w.Wire.id, verdict) :: !out)
      ~on_drop:(fun verdict id -> drops := (id, verdict) :: !drops)
      ()
  in
  Admission.push adm (e 0 1);
  (* 2 overtakes 1; Skip 0 gives up on 1 at once and releases 2 *)
  Admission.push adm (e 2 3);
  (* 1 finally arrives: late, not a duplicate *)
  Admission.push adm (e 1 2);
  (* a second copy of 1 IS a duplicate (its lateness was consumed) *)
  Admission.push adm (e 1 2);
  (* same dance for 4 overtaking 3 *)
  Admission.push adm (e 4 5);
  Admission.push adm (e 3 4);
  Admission.finish adm;
  check "verdict per admitted record" true
    (List.rev !out
    = [ (0, Provenance.In_order); (2, Provenance.Reordered); (4, Provenance.Reordered) ]);
  check "drop verdicts" true
    (List.sort compare !drops
    = [
        (1, Provenance.Deduped);
        (1, Provenance.Gap_skipped);
        (1, Provenance.Late);
        (3, Provenance.Gap_skipped);
        (3, Provenance.Late);
      ])

let orphan_drop_reported () =
  let module Provenance = Ocep_obs.Provenance in
  let drops = ref [] in
  let adm =
    Admission.create ~n_traces:2
      ~emit:(fun ~verdict:_ ~decode_us:_ ~admit_us:_ _ -> ())
      ~on_drop:(fun verdict id -> drops := (id, verdict) :: !drops)
      ()
  in
  List.iter (Admission.push adm) (List.filter (fun w -> w.Wire.id <> 1) orphan_frames);
  Admission.finish adm;
  check "gap and orphan named" true
    (List.sort compare !drops = [ (1, Provenance.Gap_skipped); (2, Provenance.Orphaned) ])

let push_at_us_is_decode_stamp () =
  let decode = ref nan in
  let adm =
    Admission.create ~n_traces:1
      ~emit:(fun ~verdict:_ ~decode_us ~admit_us:_ _ -> decode := decode_us)
      ()
  in
  Admission.push ~at_us:42.5 adm
    { Wire.id = 0; trace = 0; seq = 1; etype = "x"; text = ""; kind = Event.Internal };
  check "caller timestamp carried" true (!decode = 42.5)

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)
(* ------------------------------------------------------------------ *)

let bqueue_block_is_lossless () =
  let q = Bqueue.create ~capacity:2 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to 500 do
          ignore (Bqueue.push q i)
        done;
        Bqueue.close q)
  in
  let got = ref [] in
  let continue = ref true in
  while !continue do
    match Bqueue.pop q with
    | Some v -> got := v :: !got
    | None -> continue := false
  done;
  Domain.join producer;
  check "all items, in order" true (List.rev !got = List.init 500 (fun i -> i + 1));
  checki "nothing shed" 0 (Bqueue.shed q);
  check "occupancy bounded" true (Bqueue.max_occupancy q <= 2)

let bqueue_shed_drops_on_full () =
  let q = Bqueue.create ~policy:Bqueue.Shed ~capacity:2 () in
  check "first fits" true (Bqueue.push q 1);
  check "second fits" true (Bqueue.push q 2);
  check "third shed" false (Bqueue.push q 3);
  checki "shed counted" 1 (Bqueue.shed q);
  Bqueue.close q;
  check "queued items survive close" true (Bqueue.pop q = Some 1 && Bqueue.pop q = Some 2);
  check "then drained" true (Bqueue.pop q = None);
  check "push after close rejected" true
    (match Bqueue.push q 4 with _ -> false | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Headline property: record -> degrade -> replay == direct delivery   *)
(* ------------------------------------------------------------------ *)

let run_direct ~config ~net (w : Workload.t) =
  let names = Sim.trace_names w.Workload.sim_config in
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config ~net ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  ignore
    (Sim.run w.Workload.sim_config
       ~sink:(fun raw -> ignore (Poet.ingest poet raw))
       ~bodies:w.Workload.bodies);
  (Runner.reports_digest engine, Engine.events_processed engine)

let record_to ~path (w : Workload.t) =
  let names = Sim.trace_names w.Workload.sim_config in
  let oc = open_out_bin path in
  let wr = Framing.create_writer oc ~trace_names:names in
  ignore
    (Sim.run w.Workload.sim_config
       ~sink:(fun raw -> ignore (Framing.write_raw wr raw))
       ~bodies:w.Workload.bodies);
  Framing.flush wr;
  close_out oc

let read_frames path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let r = Framing.create_reader ic in
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    match Framing.next r with
    | Framing.Frame w -> acc := w :: !acc
    | Framing.Eof -> continue := false
    | Framing.Crc_error | Framing.Bad_frame _ | Framing.Truncated ->
      Alcotest.fail "pristine stream reported damage"
  done;
  (Framing.reader_trace_names r, List.rev !acc)

let replay_frames ~config ~net ~trace_names frames =
  let poet = Poet.create ~trace_names () in
  let engine = Engine.create ~config ~net ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let adm =
    Admission.create
      ~n_traces:(Array.length trace_names)
      ~emit:(fun ~verdict ~decode_us ~admit_us w ->
        Engine.set_wire_stamps engine ~decode_us ~admit_us;
        Engine.feed_wire engine ~id:w.Wire.id ~verdict (Wire.to_raw w))
      ()
  in
  List.iter (Admission.push adm) frames;
  Admission.finish adm;
  (Runner.reports_digest engine, Admission.stats adm)

let sequential_config = Engine.default_config

let degraded_replay_is_bit_identical () =
  List.iter
    (fun case ->
      let mk () = Cases.make case ~traces:6 ~seed:5 ~max_events:3000 in
      let w = mk () in
      let net = Compile.compile (Parser.parse w.Workload.pattern) in
      let direct_digest, direct_events = run_direct ~config:sequential_config ~net w in
      with_temp @@ fun tmp ->
      (* same seed: the recorded stream is the same event sequence *)
      record_to ~path:tmp (mk ());
      let trace_names, frames = read_frames tmp in
      checki (case ^ ": recorded everything") direct_events (List.length frames);
      let faulted =
        Inject.apply_faults
          { Inject.f_reorder = 8; f_dup = 0.05; f_drop = 0. }
          ~seed:13 frames
      in
      check (case ^ ": delivery degraded") true (faulted <> frames);
      let replay_digest, st = replay_frames ~config:sequential_config ~net ~trace_names faulted in
      checki (case ^ ": nothing lost") direct_events st.Admission.admitted;
      checki (case ^ ": no gaps") 0 st.Admission.gaps;
      check (case ^ ": duplicates suppressed") true (st.Admission.duplicates > 0);
      checks (case ^ ": digests equal") direct_digest replay_digest)
    Cases.names

(* Session.replay end to end over a file, pipelined: the full production
   path (reader domain, bounded queue, admission, engine) reproduces the
   direct digest *)
let source_replay_pipelined () =
  let case = "races" in
  let mk () = Cases.make case ~traces:6 ~seed:5 ~max_events:3000 in
  let w = mk () in
  let net = Compile.compile (Parser.parse w.Workload.pattern) in
  let direct_digest, direct_events = run_direct ~config:sequential_config ~net w in
  with_temp @@ fun tmp ->
  record_to ~path:tmp (mk ());
  let ic = open_in_bin tmp in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let reader = Framing.create_reader ic in
  let poet = Poet.create ~trace_names:(Framing.reader_trace_names reader) () in
  let engine = Engine.create ~config:sequential_config ~net ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let st =
    Session.replay
      ~config:{ Session.default with Session.pipeline = true; queue_capacity = 64 }
      ~engine reader
  in
  checki "all frames" direct_events st.Source.admission.Admission.frames;
  checki "nothing shed" 0 st.Source.queue_shed;
  check "queue bounded" true (st.Source.queue_max_occupancy <= 64);
  checks "digest equals direct" direct_digest (Runner.reports_digest engine)

(* Session's faults field reproduces the manual degrade-then-replay
   pipeline bit for bit *)
let session_faults_equal_manual () =
  let faults = { Inject.f_reorder = 8; f_dup = 0.05; f_drop = 0. } in
  let fault_seed = 13 in
  let mk () = Cases.make "races" ~traces:6 ~seed:5 ~max_events:3000 in
  let w = mk () in
  let net = Compile.compile (Parser.parse w.Workload.pattern) in
  with_temp @@ fun tmp ->
  record_to ~path:tmp (mk ());
  let trace_names, frames = read_frames tmp in
  let faulted = Inject.apply_faults faults ~seed:fault_seed frames in
  check "delivery degraded" true (faulted <> frames);
  let manual_digest, manual_st =
    replay_frames ~config:sequential_config ~net ~trace_names faulted
  in
  let ic = open_in_bin tmp in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let reader = Framing.create_reader ic in
  let poet = Poet.create ~trace_names () in
  let engine = Engine.create ~config:sequential_config ~net ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let logged = ref [] in
  let st =
    Session.replay
      ~config:{ Session.default with Session.faults; fault_seed }
      ~log:(fun line -> logged := line :: !logged)
      ~engine reader
  in
  checks "digest equals manual degrade+replay" manual_digest (Runner.reports_digest engine);
  checki "admitted agrees" manual_st.Admission.admitted st.Source.admission.Admission.admitted;
  checki "duplicates agree" manual_st.Admission.duplicates
    st.Source.admission.Admission.duplicates;
  checki "one degradation log line" 1 (List.length !logged)

let () =
  Alcotest.run "ingest"
    [
      ("crc32", [ Alcotest.test_case "check value" `Quick crc_check_value ]);
      ( "wire",
        [
          Alcotest.test_case "message id ranges" `Quick codec_message_ids;
          Alcotest.test_case "utf8 and empty strings" `Quick codec_strings;
          QCheck_alcotest.to_alcotest codec_roundtrip_prop;
          QCheck_alcotest.to_alcotest codec_prefix_rejected_prop;
        ] );
      ( "framing",
        [
          Alcotest.test_case "truncation at every offset" `Quick truncation_recovers_prefix;
          Alcotest.test_case "crc flip skips one frame" `Quick corrupted_crc_skips_one_frame;
          Alcotest.test_case "corrupt header rejected" `Quick corrupted_header_rejected;
          Alcotest.test_case "hostile length prefix truncates" `Quick hostile_length_prefix;
        ] );
      ( "admission",
        [
          Alcotest.test_case "restores exact order" `Quick admission_restores_order;
          Alcotest.test_case "suppresses duplicates" `Quick admission_suppresses_duplicates;
          Alcotest.test_case "skip drops orphan receive" `Quick skip_drops_orphan_receive;
          Alcotest.test_case "second receive is orphaned" `Quick second_receive_orphaned;
          Alcotest.test_case "wait flushes at finish" `Quick wait_flushes_at_finish;
          Alcotest.test_case "trace gap attributed at jump" `Quick trace_gap_attributed_at_jump;
          Alcotest.test_case "fail raises on loss" `Quick fail_raises_on_loss;
          Alcotest.test_case "wait raises on overflow" `Quick wait_raises_on_window_overflow;
          Alcotest.test_case "late is not duplicate" `Quick late_arrival_not_a_duplicate;
          Alcotest.test_case "window boundary rejected" `Quick window_boundary_rejected;
          Alcotest.test_case "window one admits in order" `Quick window_one_admits_in_order;
          Alcotest.test_case "verdicts and drops" `Quick verdicts_and_drops;
          Alcotest.test_case "orphan drop reported" `Quick orphan_drop_reported;
          Alcotest.test_case "push at_us is decode stamp" `Quick push_at_us_is_decode_stamp;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "block is lossless" `Quick bqueue_block_is_lossless;
          Alcotest.test_case "shed drops on full" `Quick bqueue_shed_drops_on_full;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "degraded replay sequential" `Quick degraded_replay_is_bit_identical;
          Alcotest.test_case "source replay pipelined" `Quick source_replay_pipelined;
        ] );
      ( "session",
        [
          Alcotest.test_case "faults equal manual degrade" `Quick session_faults_equal_manual;
        ] );
    ]
