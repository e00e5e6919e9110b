open Ocep_base

type report = { events : Event.t array; fresh : (int * int) list; seq : int }

type t = {
  k : int;
  n_traces : int;
  covered : bool array array;
  seenm : bool array array;
  report_cap : int;
  reports : report Vec.t;
  pending : int Vec.t;
      (* seen but not covered, packed as leaf * n_traces + trace, oldest
         first; covered slots are dropped lazily by [pending_slots] *)
  mutable covered_count : int;
  mutable seen_count : int;
  mutable dropped : int;  (* coverage-advancing reports not retained (cap) *)
}

let create ~k ~n_traces ?(report_cap = max_int) () =
  {
    k;
    n_traces;
    covered = Array.make_matrix k n_traces false;
    seenm = Array.make_matrix k n_traces false;
    report_cap;
    reports = Vec.create ();
    pending = Vec.create ();
    covered_count = 0;
    seen_count = 0;
    dropped = 0;
  }

let seen t ~leaf ~trace =
  if not t.seenm.(leaf).(trace) then begin
    t.seenm.(leaf).(trace) <- true;
    t.seen_count <- t.seen_count + 1;
    if not t.covered.(leaf).(trace) then Vec.push t.pending ((leaf * t.n_traces) + trace)
  end

let is_covered t ~leaf ~trace = t.covered.(leaf).(trace)

let is_seen t ~leaf ~trace = t.seenm.(leaf).(trace)

let record t ~seq (m : Event.t array) =
  let fresh = ref [] in
  Array.iteri
    (fun leaf (ev : Event.t) ->
      if not t.covered.(leaf).(ev.trace) then begin
        t.covered.(leaf).(ev.trace) <- true;
        t.covered_count <- t.covered_count + 1;
        (* an instantiated slot is by definition also seen *)
        seen t ~leaf ~trace:ev.trace;
        fresh := (leaf, ev.trace) :: !fresh
      end)
    m;
  match !fresh with
  | [] -> None
  | fresh ->
    let report = { events = m; fresh = List.rev fresh; seq } in
    if Vec.length t.reports < t.report_cap then Vec.push t.reports report
    else t.dropped <- t.dropped + 1;
    Some report

let slot_leaf t slot = slot / t.n_traces

let slot_trace t slot = slot mod t.n_traces

(* Compact out the slots covered since they were queued, in place and
   order-preserving; amortized cheap. *)
let pending_slots t =
  let v = t.pending in
  let kept = ref 0 in
  for i = 0 to Vec.length v - 1 do
    let slot = Vec.get v i in
    if not t.covered.(slot_leaf t slot).(slot_trace t slot) then begin
      Vec.set v !kept slot;
      incr kept
    end
  done;
  Vec.truncate v !kept;
  !kept

let pending_slot t i = Vec.get t.pending (Vec.length t.pending - 1 - i)

let reports t = Vec.to_list t.reports

let covered_count t = t.covered_count

let seen_count t = t.seen_count

let dropped_count t = t.dropped
