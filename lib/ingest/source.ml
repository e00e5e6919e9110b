open Ocep_base
module Engine = Ocep.Engine
module Poet = Ocep_poet.Poet
module Metrics = Ocep_obs.Metrics
module Watermark = Ocep_obs.Watermark

type config = {
  admission : Admission.config;
  queue_capacity : int;
  queue_policy : Bqueue.policy;
  pipeline : bool;
  block_size : int;
}

let default_config =
  { admission = Admission.default_config; queue_capacity = 4096; queue_policy = Bqueue.Block;
    pipeline = false; block_size = 1 }

type stats = {
  frames : int;
  crc_errors : int;
  bad_frames : int;
  truncated : bool;
  queue_shed : int;
  queue_max_occupancy : int;
  admission : Admission.stats;
}

(* Registered on demand in the engine's registry; instruments are
   created once (Metrics re-registration returns the existing one), so
   several replays into one engine accumulate. *)
type meters = {
  g_frames : Metrics.counter;
  g_crc : Metrics.counter;
  g_bad : Metrics.counter;
  g_truncated : Metrics.counter;
  g_admitted : Metrics.counter;
  g_duplicates : Metrics.counter;
  g_late : Metrics.counter;
  g_reordered : Metrics.counter;
  g_gaps : Metrics.counter;
  g_trace_gaps : Metrics.counter;
  g_orphans : Metrics.counter;
  g_shed : Metrics.counter;
  g_depth : Ocep_stats.Histogram.t;
  g_occupancy : Ocep_stats.Histogram.t;
}

let meters engine =
  let m = Engine.metrics engine in
  let c ?help name = Metrics.counter m ?help name in
  {
    g_frames = c ~help:"Well-formed frames offered to admission" "ocep_ingest_frames_total";
    g_crc = c ~help:"Frames dropped on checksum mismatch" "ocep_ingest_crc_errors_total";
    g_bad = c ~help:"CRC-valid frames that failed to decode" "ocep_ingest_bad_frames_total";
    g_truncated = c ~help:"Streams that ended mid-frame" "ocep_ingest_truncated_total";
    g_admitted = c ~help:"Events released to the engine" "ocep_ingest_admitted_total";
    g_duplicates = c ~help:"Duplicate record ids suppressed" "ocep_ingest_duplicates_total";
    g_late = c ~help:"Frames arriving after their id was skipped" "ocep_ingest_late_total";
    g_reordered = c ~help:"Frames buffered for reordering" "ocep_ingest_reordered_total";
    g_gaps = c ~help:"Record ids given up on" "ocep_ingest_gaps_total";
    g_trace_gaps =
      c ~help:"Events lost to gaps, attributed per trace" "ocep_ingest_trace_gaps_total";
    g_orphans =
      c ~help:"Receives dropped because their send fell into a gap"
        "ocep_ingest_orphan_receives_total";
    g_shed = c ~help:"Frames dropped by queue backpressure" "ocep_ingest_queue_shed_total";
    g_depth =
      Metrics.histogram m ~help:"Reorder-buffer depth after each frame that buffered"
        "ocep_ingest_reorder_depth";
    g_occupancy =
      Metrics.histogram m ~help:"Ingest-queue length at each consumer wakeup"
        "ocep_ingest_queue_occupancy";
  }

let check_traces engine reader =
  let expect = Poet.trace_names (Engine.poet engine) in
  let got = Framing.reader_trace_names reader in
  if got <> expect then
    invalid_arg
      (Printf.sprintf "Source.replay_stream: stream traces [%s] do not match the engine's [%s]"
         (String.concat "; " (Array.to_list got))
         (String.concat "; " (Array.to_list expect)))

let tick_every = 1024

(* Full timing is stamped on one frame in 64 ([sample_mask]); the rest
   reuse the most recent stamp and advance the watermark trackers only.
   Ids, verdicts, watermarks and lag stay exact on every record; the
   latency histograms and the sub-window timestamp precision come from
   the sampled subset.  This is what keeps the always-on provenance +
   watermark plane inside a single-digit-percent budget: a clock read
   costs ~30 ns and a full stamp takes four of them, on a workload that
   matches an event in ~1.5 us. *)
let sample_mask = 63

let replay_stream ?(config = default_config) ?(tick = fun () -> ()) ~engine reader =
  check_traces engine reader;
  let mt = meters engine in
  let wm = Watermark.create (Engine.metrics engine) in
  let crc_errors = ref 0 and bad_frames = ref 0 and truncated = ref false in
  (* true while the frame being pushed carries fresh stamps; consulted
     by [emit], which runs synchronously inside the push *)
  let sampling = ref true in
  let last_us = ref (Clock.now_us ()) in
  let adm =
    Admission.create ~config:config.admission
      ~on_depth:(fun d ->
        Ocep_stats.Histogram.record mt.g_depth (float_of_int d);
        Watermark.set_depth wm d)
      ~on_drop:(fun verdict id -> Engine.note_wire_drop engine ~id ~verdict)
      ~n_traces:(Poet.trace_count (Engine.poet engine))
      ~emit:(fun ~verdict ~decode_us ~admit_us w ->
        (* a buffered release carries a fresh admit stamp ([admit_us >
           decode_us]) and is rare enough to always time in full *)
        if !sampling || admit_us > decode_us then begin
          Watermark.observe_admit wm ~id:w.Wire.id ~dur_us:(admit_us -. decode_us);
          Engine.set_wire_stamps engine ~decode_us ~admit_us;
          let t0 = Clock.now_us () in
          Engine.feed_wire engine ~id:w.Wire.id ~verdict (Wire.to_raw w);
          Watermark.observe_match wm ~id:w.Wire.id ~dur_us:(Clock.now_us () -. t0)
        end
        else begin
          (* unsampled: the engine still holds the window's stamps *)
          Watermark.advance_admit wm ~id:w.Wire.id;
          Engine.feed_wire engine ~id:w.Wire.id ~verdict (Wire.to_raw w);
          Watermark.advance_match wm ~id:w.Wire.id
        end)
      ()
  in
  let seen = ref 0 in
  let beat () =
    incr seen;
    if !seen mod tick_every = 0 then begin
      (* publish point: bring the watermark gauges up to the exact
         trackers before the tick callback republishes telemetry *)
      Watermark.sync wm;
      tick ()
    end
  in
  let block = max 1 config.block_size in
  let queue_shed, queue_max =
    if not config.pipeline then begin
      if block = 1 then begin
        let continue = ref true in
        while !continue do
          let sampled = !seen land sample_mask = 0 in
          sampling := sampled;
          let t0 = if sampled then Clock.now_us () else 0. in
          match Framing.next reader with
          | Framing.Frame w ->
            if sampled then begin
              let done_us = Clock.now_us () in
              Watermark.observe_decode wm ~id:w.Wire.id ~dur_us:(done_us -. t0);
              last_us := done_us;
              Admission.push ~at_us:done_us adm w
            end
            else begin
              Watermark.advance_decode wm ~id:w.Wire.id;
              Admission.push ~at_us:!last_us adm w
            end;
            beat ()
          | Framing.Crc_error -> incr crc_errors
          | Framing.Bad_frame _ -> incr bad_frames
          | Framing.Truncated ->
            truncated := true;
            continue := false
          | Framing.Eof -> continue := false
        done;
        (0, 0)
      end
      else begin
        (* block mode: decode up to [block] frames, then admit them in a
           burst. Admission order, verdicts, watermarks and lag are
           exactly the per-record path's; full clock stamps land on at
           most one frame per block (the block's first, when it falls on
           the sample cadence), so only timestamp precision coarsens.
           The frame buffer is reused across blocks — allocated once,
           lazily, from the first decoded frame. *)
        let buf = ref [||] in
        let continue = ref true in
        while !continue do
          let first_sampled = !seen land sample_mask = 0 in
          let first_dur = ref 0. in
          let n = ref 0 in
          while !continue && !n < block do
            let t0 = if first_sampled && !n = 0 then Clock.now_us () else 0. in
            match Framing.next reader with
            | Framing.Frame w ->
              if first_sampled && !n = 0 then first_dur := Clock.now_us () -. t0;
              if Array.length !buf = 0 then buf := Array.make block w;
              !buf.(!n) <- w;
              incr n
            | Framing.Crc_error -> incr crc_errors
            | Framing.Bad_frame _ -> incr bad_frames
            | Framing.Truncated ->
              truncated := true;
              continue := false
            | Framing.Eof -> continue := false
          done;
          let arr = !buf in
          for i = 0 to !n - 1 do
            let w = arr.(i) in
            let sampled = i = 0 && first_sampled in
            sampling := sampled;
            if sampled then begin
              let now = Clock.now_us () in
              Watermark.observe_decode wm ~id:w.Wire.id ~dur_us:!first_dur;
              last_us := now;
              Admission.push ~at_us:now adm w
            end
            else begin
              Watermark.advance_decode wm ~id:w.Wire.id;
              Admission.push ~at_us:!last_us adm w
            end;
            beat ()
          done
        done;
        (0, 0)
      end
    end
    else if block > 1 then begin
      (* pipelined block mode: the reader domain decodes whole blocks
         and hands each over with a single queue operation — the
         hand-off synchronization is paid once per block instead of once
         per frame. Each chunk is a fresh array (ownership moves across
         domains); its first frame's decode duration travels with it. *)
      let q = Bqueue.create ~policy:config.queue_policy ~capacity:config.queue_capacity () in
      let producer =
        Domain.spawn (fun () ->
            let crc = ref 0 and bad = ref 0 and trunc = ref false in
            let continue = ref true in
            while !continue do
              let arr = ref [||] in
              let first_dur = ref 0. in
              let n = ref 0 in
              while !continue && !n < block do
                let t0 = if !n = 0 then Clock.now_us () else 0. in
                match Framing.next reader with
                | Framing.Frame w ->
                  if !n = 0 then begin
                    first_dur := Clock.now_us () -. t0;
                    arr := Array.make block w
                  end;
                  !arr.(!n) <- w;
                  incr n
                | Framing.Crc_error -> incr crc
                | Framing.Bad_frame _ -> incr bad
                | Framing.Truncated ->
                  trunc := true;
                  continue := false
                | Framing.Eof -> continue := false
              done;
              if !n > 0 then ignore (Bqueue.push q (!arr, !n, !first_dur, Clock.now_us ()))
            done;
            Bqueue.close q;
            (!crc, !bad, !trunc))
      in
      let continue = ref true in
      while !continue do
        Ocep_stats.Histogram.record mt.g_occupancy (float_of_int (Bqueue.length q));
        match Bqueue.pop q with
        | Some (arr, n, first_dur, enq_us) ->
          for i = 0 to n - 1 do
            let w = arr.(i) in
            let sampled = i = 0 && !seen land sample_mask = 0 in
            sampling := sampled;
            if sampled then begin
              let now = Clock.now_us () in
              Watermark.observe_decode wm ~id:w.Wire.id ~dur_us:first_dur;
              Watermark.observe_queue wm ~dur_us:(now -. enq_us);
              last_us := now;
              Admission.push ~at_us:now adm w
            end
            else begin
              Watermark.advance_decode wm ~id:w.Wire.id;
              Admission.push ~at_us:!last_us adm w
            end;
            beat ()
          done
        | None -> continue := false
      done;
      let crc, bad, trunc = Domain.join producer in
      crc_errors := crc;
      bad_frames := bad;
      truncated := trunc;
      (Bqueue.shed q, Bqueue.max_occupancy q)
    end
    else begin
      (* the reader domain decodes and CRC-checks; this domain matches.
         Per-frame error counts are tallied reader-side and handed back
         at join, so all metrics stay single-domain: decode durations
         travel with the frame and are recorded here at pop. *)
      let q = Bqueue.create ~policy:config.queue_policy ~capacity:config.queue_capacity () in
      let producer =
        Domain.spawn (fun () ->
            let crc = ref 0 and bad = ref 0 and trunc = ref false in
            let continue = ref true in
            while !continue do
              let t0 = Clock.now_us () in
              match Framing.next reader with
              | Framing.Frame w ->
                let done_us = Clock.now_us () in
                ignore (Bqueue.push q (w, done_us -. t0, done_us))
              | Framing.Crc_error -> incr crc
              | Framing.Bad_frame _ -> incr bad
              | Framing.Truncated ->
                trunc := true;
                continue := false
              | Framing.Eof -> continue := false
            done;
            Bqueue.close q;
            (!crc, !bad, !trunc))
      in
      let continue = ref true in
      while !continue do
        Ocep_stats.Histogram.record mt.g_occupancy (float_of_int (Bqueue.length q));
        match Bqueue.pop q with
        | Some (w, decode_dur, enq_us) ->
          let sampled = !seen land sample_mask = 0 in
          sampling := sampled;
          if sampled then begin
            let now = Clock.now_us () in
            Watermark.observe_decode wm ~id:w.Wire.id ~dur_us:decode_dur;
            Watermark.observe_queue wm ~dur_us:(now -. enq_us);
            last_us := now;
            Admission.push ~at_us:now adm w
          end
          else begin
            Watermark.advance_decode wm ~id:w.Wire.id;
            Admission.push ~at_us:!last_us adm w
          end;
          beat ()
        | None -> continue := false
      done;
      let crc, bad, trunc = Domain.join producer in
      crc_errors := crc;
      bad_frames := bad;
      truncated := trunc;
      (Bqueue.shed q, Bqueue.max_occupancy q)
    end
  in
  Admission.finish adm;
  Watermark.sync wm;
  let a = Admission.stats adm in
  Metrics.incr mt.g_frames ~by:a.Admission.frames ();
  Metrics.incr mt.g_crc ~by:!crc_errors ();
  Metrics.incr mt.g_bad ~by:!bad_frames ();
  Metrics.incr mt.g_truncated ~by:(if !truncated then 1 else 0) ();
  Metrics.incr mt.g_admitted ~by:a.Admission.admitted ();
  Metrics.incr mt.g_duplicates ~by:a.Admission.duplicates ();
  Metrics.incr mt.g_late ~by:a.Admission.late ();
  Metrics.incr mt.g_reordered ~by:a.Admission.reordered ();
  Metrics.incr mt.g_gaps ~by:a.Admission.gaps ();
  Metrics.incr mt.g_trace_gaps ~by:(Array.fold_left ( + ) 0 a.Admission.trace_gaps) ();
  Metrics.incr mt.g_orphans ~by:a.Admission.orphan_receives ();
  Metrics.incr mt.g_shed ~by:queue_shed ();
  {
    frames = a.Admission.frames;
    crc_errors = !crc_errors;
    bad_frames = !bad_frames;
    truncated = !truncated;
    queue_shed;
    queue_max_occupancy = queue_max;
    admission = a;
  }
