open Ocep_base
module Provenance = Ocep_obs.Provenance

type gap_policy = Wait | Skip of int | Fail

type config = { reorder_window : int; gap_policy : gap_policy }

let default_config = { reorder_window = 1024; gap_policy = Wait }

type stats = {
  frames : int;
  admitted : int;
  duplicates : int;
  late : int;
  reordered : int;
  max_depth : int;
  gaps : int;
  trace_gaps : int array;
  orphan_receives : int;
}

exception Gap of string

type t = {
  cfg : config;
  emit : verdict:Provenance.verdict -> decode_us:float -> admit_us:float -> Wire.t -> unit;
  on_depth : int -> unit;
  on_drop : Provenance.verdict -> int -> unit;
  n_traces : int;
  (* reorder buffer, keyed on record id: the frame, its admission-entry
     timestamp, and whether it overtook an earlier id on arrival *)
  pending : (int, Wire.t * float * bool) Hashtbl.t;
  skipped : (int, unit) Hashtbl.t;  (* ids given up on; a late arrival is not a duplicate *)
  (* msg ids whose send was admitted and not yet received: a byte-map
     for the dense id range (grown on demand, one lookup per receive on
     the hot path), a hashtable for spill-range ids *)
  mutable sent_dense : Bytes.t;
  sent_spill : (int, unit) Hashtbl.t;
  expected_seq : int array;  (* next local-clock position per trace *)
  mutable next_id : int;  (* next record id owed to [emit] *)
  mutable stall : int;  (* frames pushed since the head id went missing *)
  mutable finished : bool;
  mutable frames : int;
  mutable admitted : int;
  mutable duplicates : int;
  mutable late : int;
  mutable reordered : int;
  mutable max_depth : int;
  mutable gaps : int;
  trace_gaps : int array;
  mutable orphan_receives : int;
}

let create ?(config = default_config) ?(on_depth = fun _ -> ())
    ?(on_drop = fun _ _ -> ()) ~n_traces ~emit () =
  if config.reorder_window <= 0 then
    invalid_arg "Admission.create: reorder_window must be positive";
  (match config.gap_policy with
  | Skip n when n < 0 -> invalid_arg "Admission.create: Skip patience must be non-negative"
  | _ -> ());
  {
    cfg = config;
    emit;
    on_depth;
    on_drop;
    n_traces;
    pending = Hashtbl.create 64;
    skipped = Hashtbl.create 16;
    sent_dense = Bytes.empty;
    sent_spill = Hashtbl.create 16;
    expected_seq = Array.make n_traces 1;
    next_id = 0;
    stall = 0;
    finished = false;
    frames = 0;
    admitted = 0;
    duplicates = 0;
    late = 0;
    reordered = 0;
    max_depth = 0;
    gaps = 0;
    trace_gaps = Array.make n_traces 0;
    orphan_receives = 0;
  }

let dense_cap = Ocep_poet.Poet.dense_capacity

let mark_sent t msg =
  if msg >= 0 && msg < dense_cap then begin
    if msg >= Bytes.length t.sent_dense then begin
      let cap = min dense_cap (max 4096 (max (msg + 1) (2 * Bytes.length t.sent_dense))) in
      let grown = Bytes.make cap '\000' in
      Bytes.blit t.sent_dense 0 grown 0 (Bytes.length t.sent_dense);
      t.sent_dense <- grown
    end;
    Bytes.unsafe_set t.sent_dense msg '\001'
  end
  else Hashtbl.replace t.sent_spill msg ()

(* Clear [msg]'s send mark; true if it was set. A receive consumes its
   send, as POET does, so a second receive of one message is an orphan. *)
let take_sent t msg =
  if msg >= 0 && msg < dense_cap then begin
    let set = msg < Bytes.length t.sent_dense && Bytes.unsafe_get t.sent_dense msg <> '\000' in
    if set then Bytes.unsafe_set t.sent_dense msg '\000';
    set
  end
  else begin
    let set = Hashtbl.mem t.sent_spill msg in
    Hashtbl.remove t.sent_spill msg;
    set
  end

(* Release one in-order frame. The local-clock jump check attributes
   gap losses to traces, and orphaned receives — whose send was lost or
   already received — are dropped here so POET never sees an unknown
   message. *)
let release t (e : Wire.t) at_us was_buffered =
  let tr = e.Wire.trace in
  if e.Wire.seq > t.expected_seq.(tr) then
    t.trace_gaps.(tr) <- t.trace_gaps.(tr) + (e.Wire.seq - t.expected_seq.(tr));
  t.expected_seq.(tr) <- e.Wire.seq + 1;
  let verdict : Provenance.verdict = if was_buffered then Reordered else In_order in
  (* on the fast path release happens within the same push, so the entry
     stamp IS the admit time; only buffered records — which sat in the
     reorder window — pay a clock read for their real residency *)
  let admit_us = if was_buffered then Clock.now_us () else at_us in
  match e.Wire.kind with
  | Event.Send { msg } ->
    mark_sent t msg;
    t.admitted <- t.admitted + 1;
    t.emit ~verdict ~decode_us:at_us ~admit_us e
  | Event.Receive { msg } when not (take_sent t msg) ->
    t.orphan_receives <- t.orphan_receives + 1;
    t.on_drop Orphaned e.Wire.id
  | Event.Receive _ | Event.Internal ->
    t.admitted <- t.admitted + 1;
    t.emit ~verdict ~decode_us:at_us ~admit_us e

let drain t =
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.pending t.next_id with
    | Some (e, at_us, overtook) ->
      Hashtbl.remove t.pending t.next_id;
      t.next_id <- t.next_id + 1;
      progressed := true;
      release t e at_us overtook
    | None -> continue := false
  done;
  if !progressed then t.stall <- 0

(* Give up on the contiguous run of missing ids blocking the head, then
   drain whatever that unblocks. *)
let skip_gap t =
  while (not (Hashtbl.mem t.pending t.next_id)) && Hashtbl.length t.pending > 0 do
    Hashtbl.replace t.skipped t.next_id ();
    t.gaps <- t.gaps + 1;
    t.on_drop Gap_skipped t.next_id;
    t.next_id <- t.next_id + 1
  done;
  t.stall <- 0;
  drain t

let push ?at_us t (e : Wire.t) =
  if t.finished then invalid_arg "Admission.push: already finished";
  if e.Wire.trace < 0 || e.Wire.trace >= t.n_traces then
    invalid_arg (Printf.sprintf "Admission.push: trace %d out of range" e.Wire.trace);
  let at_us = match at_us with Some v -> v | None -> Clock.now_us () in
  t.frames <- t.frames + 1;
  if e.Wire.id = t.next_id && Hashtbl.length t.pending = 0 then begin
    (* in-order fast path — the common case on a healthy transport:
       never touches the reorder buffer (an id equal to [next_id] cannot
       have been skipped: skipping advances [next_id] past it) *)
    t.next_id <- t.next_id + 1;
    release t e at_us false
  end
  else if Hashtbl.length t.skipped > 0 && Hashtbl.mem t.skipped e.Wire.id then begin
    (* the transport finally delivered an id we gave up on: too late —
       admitting it now would violate record order *)
    t.late <- t.late + 1;
    Hashtbl.remove t.skipped e.Wire.id;
    t.on_drop Late e.Wire.id
  end
  else if e.Wire.id < t.next_id || Hashtbl.mem t.pending e.Wire.id then begin
    t.duplicates <- t.duplicates + 1;
    t.on_drop Deduped e.Wire.id
  end
  else begin
    if e.Wire.id <> t.next_id then t.reordered <- t.reordered + 1;
    Hashtbl.add t.pending e.Wire.id (e, at_us, e.Wire.id <> t.next_id);
    drain t;
    if Hashtbl.length t.pending > 0 then begin
      (* the head id is missing: a frame arrived past it *)
      t.stall <- t.stall + 1;
      let overflow = Hashtbl.length t.pending > t.cfg.reorder_window in
      match t.cfg.gap_policy with
      | Skip patience when overflow || t.stall > patience -> skip_gap t
      | (Wait | Fail) when overflow ->
        raise
          (Gap
             (Printf.sprintf
                "record %d still missing with %d frames buffered (reorder window %d)"
                t.next_id (Hashtbl.length t.pending) t.cfg.reorder_window))
      | _ -> ()
    end
  end;
  let depth = Hashtbl.length t.pending in
  if depth > 0 then begin
    if depth > t.max_depth then t.max_depth <- depth;
    t.on_depth depth
  end

let finish t =
  if not t.finished then begin
    t.finished <- true;
    if Hashtbl.length t.pending > 0 then begin
      (match t.cfg.gap_policy with
      | Fail ->
        raise
          (Gap
             (Printf.sprintf "stream ended with record %d missing and %d frames buffered"
                t.next_id (Hashtbl.length t.pending)))
      | Wait | Skip _ -> ());
      (* flush survivors in id order; every hole is a gap *)
      let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.pending [] in
      List.iter
        (fun id ->
          if id > t.next_id then begin
            t.gaps <- t.gaps + (id - t.next_id);
            for missing = t.next_id to id - 1 do
              t.on_drop Gap_skipped missing
            done;
            t.next_id <- id
          end;
          let e, at_us, overtook = Hashtbl.find t.pending id in
          Hashtbl.remove t.pending id;
          t.next_id <- t.next_id + 1;
          release t e at_us overtook)
        (List.sort compare ids)
    end
  end

let stats t =
  {
    frames = t.frames;
    admitted = t.admitted;
    duplicates = t.duplicates;
    late = t.late;
    reordered = t.reordered;
    max_depth = t.max_depth;
    gaps = t.gaps;
    trace_gaps = Array.copy t.trace_gaps;
    orphan_receives = t.orphan_receives;
  }
