open Ocep_base
module Compile = Ocep_pattern.Compile
module Itbl = Hashtbl.Make (Int)

type entry = { ev : Event.t; epoch : int }

(* One physical event-class history: every leaf (of any pattern) whose
   [process, type, text] class-matches the same events shares one of
   these. All counters that used to be per leaf live here, per class. *)
type cls = {
  hist : entry Vec.t array;  (* trace -> entries *)
  by_text : int Vec.t Itbl.t array;
      (* trace -> text symbol -> positions (ascending); lets a bound
         text variable index its candidates instead of scanning the history *)
  gens : int array;
      (* trace -> generation, bumped on every mutation of that
         (class, trace) history; lets the engine detect "unchanged since
         the last failed pinned search" without hashing contents *)
  mutable count : int;  (* live entries across traces, O(1) entries_for *)
}

type store = {
  pruning : bool;
  mutable run_cap : int;
      (* entries kept per identical-event run; must be >= the leaf count
         of every registered pattern — a match binds at most that many
         events of one run, so keeping the last [run_cap] loses nothing *)
  max_per_trace : int option;
  n_traces : int;
  epochs : int array;  (* communication events seen per trace *)
  classes : cls Vec.t;
      (* class id -> history; ids are the engine's automaton node ids
         (bound via ensure_class) or, for standalone views, alloc_class's *)
  mutable free : int list;  (* ids released by release_class, for reuse *)
  mutable total : int;  (* live entries across all classes, O(1) *)
  mutable dropped : int;
  mutable pruned : int;  (* entries merged away by the O(1) pruning rule *)
  mutable cap_evicted : int;  (* entries evicted by the max_per_trace cap *)
}

(* A leaf-indexed view of a store: the reading/writing API the matcher
   and the baselines use is per leaf, so a view maps each leaf of one
   pattern to its (possibly shared) class. *)
type t = {
  store : store;
  cls_of : cls array;  (* leaf -> its class record, O(1) hot path *)
  cls_ids : int array;  (* leaf -> class id in the store *)
}

let fresh_cls n_traces =
  {
    hist = Array.init n_traces (fun _ -> Vec.create ());
    by_text = Array.init n_traces (fun _ -> Itbl.create 8);
    gens = Array.make n_traces 0;
    count = 0;
  }

let create_store ~n_traces ~pruning ?max_per_trace () =
  {
    pruning;
    run_cap = 1;
    max_per_trace;
    n_traces;
    epochs = Array.make n_traces 0;
    classes = Vec.create ();
    free = [];
    total = 0;
    dropped = 0;
    pruned = 0;
    cap_evicted = 0;
  }

let set_run_cap s k = if k > s.run_cap then s.run_cap <- k

let alloc_class s =
  match s.free with
  | id :: rest ->
    s.free <- rest;
    Vec.set s.classes id (fresh_cls s.n_traces);
    id
  | [] ->
    Vec.push s.classes (fresh_cls s.n_traces);
    Vec.length s.classes - 1

(* Bind storage for an externally-allocated class id — since the
   registry compiles into a discrimination network, the store is keyed
   on automaton node ids (the network owns allocation and recycling, so
   ids stay dense). A recycled id's slot already holds fresh storage
   (release replaced it); a brand-new id extends the vector. The id is
   pulled out of [free] so the legacy [alloc_class] path can never hand
   it out while bound. *)
let ensure_class s id =
  while Vec.length s.classes <= id do
    Vec.push s.classes (fresh_cls s.n_traces)
  done;
  s.free <- List.filter (fun x -> x <> id) s.free

let release_class s id =
  let c = Vec.get s.classes id in
  s.total <- s.total - c.count;
  (* replace the storage so a stale reference cannot resurrect it; the id
     is reused by a later alloc_class *)
  Vec.set s.classes id (fresh_cls s.n_traces);
  s.free <- id :: s.free

let class_count s = Vec.length s.classes

let view s ~classes =
  { store = s; cls_of = Array.map (Vec.get s.classes) classes; cls_ids = Array.copy classes }

let store_of t = t.store

let class_id t ~leaf = t.cls_ids.(leaf)

let create net ~n_traces ~pruning ?max_per_trace () =
  (* standalone compatibility constructor: one private class per leaf
     (no sharing), exactly the pre-registry behavior — the engine builds
     shared views through [create_store]/[alloc_class]/[view] instead *)
  let k = Compile.size net in
  let s = create_store ~n_traces ~pruning ?max_per_trace () in
  set_run_cap s k;
  view s ~classes:(Array.init k (fun _ -> alloc_class s))

let note_comm_store s (ev : Event.t) =
  if Event.is_comm ev then s.epochs.(ev.trace) <- s.epochs.(ev.trace) + 1

(* the arena dispatch path's twin of [note_comm_store]: the caller has
   the trace and comm-ness as ints already and no boxed event to offer *)
let note_comm_store_i s ~trace ~comm = if comm then s.epochs.(trace) <- s.epochs.(trace) + 1

let note_comm t ev = note_comm_store t.store ev

let index_push tbl xsym pos =
  let v =
    match Itbl.find tbl xsym with
    | v -> v
    | exception Not_found ->
      let v = Vec.create () in
      Itbl.replace tbl xsym v;
      v
  in
  Vec.push v pos

let bump_gen (c : cls) ~trace = c.gens.(trace) <- c.gens.(trace) + 1

(* Drop the first [drop] entries of one history and rebuild its text
   index (positions shift). *)
let drop_prefix_cls s (c : cls) ~trace drop =
  if drop > 0 then begin
    let v = c.hist.(trace) in
    let entries = Vec.to_array v in
    Vec.clear v;
    let tbl = c.by_text.(trace) in
    Itbl.reset tbl;
    Array.iteri
      (fun i e ->
        if i >= drop then begin
          index_push tbl e.ev.Event.xsym (Vec.length v);
          Vec.push v e
        end)
      entries;
    c.count <- c.count - drop;
    s.total <- s.total - drop;
    bump_gen c ~trace;
    s.dropped <- s.dropped + drop
  end

(* Drop the oldest half when over the cap (amortized O(1) per insertion). *)
let enforce_cap s c ~trace v =
  match s.max_per_trace with
  | Some cap when Vec.length v > cap ->
    let keep = (cap / 2) + 1 in
    s.cap_evicted <- s.cap_evicted + (Vec.length v - keep);
    drop_prefix_cls s c ~trace (Vec.length v - keep)
  | _ -> ()

let same_attrs (a : Event.t) (b : Event.t) =
  (* symbols of the same store: int equality is string equality *)
  a.esym = b.esym && a.xsym = b.xsym

(* Merge the new entry over the oldest member of the trailing run iff the
   trailing [run_cap] entries plus the new event form a block of
   consecutive trace positions (index gap exactly [run_cap] — nothing at
   all, monitored or not, interposes) with equal attributes and one
   communication epoch, and the evicted entry is not a send. Sends and
   receives bump their trace's epoch before being stored, so a block can
   only start — never continue — with one; a surviving block-start send
   keeps its message receipts attributable, and every other block member
   has identical causal relations to every event outside the block. Any
   match binds at most [run_cap] block events (the cap is kept at the max
   registered pattern size), so it maps order-preservingly onto the kept
   suffix: matches and covered slots are preserved exactly. *)
let mergeable s v (entry : entry) =
  let rc = s.run_cap in
  let len = Vec.length v in
  s.pruning && len >= rc
  &&
  let victim = Vec.get v (len - rc) in
  victim.ev.Event.index + rc = entry.ev.Event.index
  && (match victim.ev.Event.kind with Event.Send _ -> false | _ -> true)
  &&
  let ok = ref true in
  for i = len - rc to len - 1 do
    let e = Vec.get v i in
    if not (e.epoch = entry.epoch && same_attrs e.ev entry.ev) then ok := false
  done;
  !ok

let add_cls s (c : cls) (ev : Event.t) =
  let v = c.hist.(ev.trace) in
  let entry = { ev; epoch = s.epochs.(ev.trace) } in
  if mergeable s v entry then begin
    (* the whole block shares one text symbol, so shifting entries within
       it and rewriting the last slot keeps the text index valid *)
    let len = Vec.length v in
    for i = len - s.run_cap to len - 2 do
      Vec.set v i (Vec.get v (i + 1))
    done;
    Vec.set v (len - 1) entry;
    s.pruned <- s.pruned + 1;
    bump_gen c ~trace:ev.trace
  end
  else begin
    index_push c.by_text.(ev.trace) ev.xsym (Vec.length v);
    Vec.push v entry;
    c.count <- c.count + 1;
    s.total <- s.total + 1;
    bump_gen c ~trace:ev.trace;
    enforce_cap s c ~trace:ev.trace v
  end

let add_class s ~cls ev = add_cls s (Vec.get s.classes cls) ev

let add t ~leaf ev = add_cls t.store t.cls_of.(leaf) ev

let on t ~leaf ~trace = t.cls_of.(leaf).hist.(trace)

(* never pushed to: the shared answer for a text with no positions *)
let no_positions : int Vec.t = Vec.create ()

let positions_for_text t ~leaf ~trace xsym =
  match Itbl.find t.cls_of.(leaf).by_text.(trace) xsym with
  | pv -> pv
  | exception Not_found -> no_positions

let generation t ~leaf ~trace = t.cls_of.(leaf).gens.(trace)

let total_entries t = t.store.total

let store_entries s = s.total

let class_entries s ~cls = (Vec.get s.classes cls).count

let gc_store s ~thresholds ~classes =
  let dropped0 = s.dropped in
  Array.iteri
    (fun cid enabled ->
      if enabled then begin
        let c = Vec.get s.classes cid in
        Array.iteri
          (fun trace v ->
            let drop =
              Vec.binary_search_first v (fun (e : entry) -> e.ev.index > thresholds.(trace))
            in
            drop_prefix_cls s c ~trace drop)
          c.hist
      end)
    classes;
  s.dropped - dropped0

let gc t ~thresholds ~leaves =
  (* per-leaf enable bits mapped onto class ids; with shared classes the
     bits are OR-ed, so only use this view-level entry point when every
     leaf sharing a class agrees (the engine computes the AND itself and
     calls {!gc_store}) *)
  let classes = Array.make (class_count t.store) false in
  Array.iteri (fun leaf enabled -> if enabled then classes.(t.cls_ids.(leaf)) <- true) leaves;
  gc_store t.store ~thresholds ~classes

let entries_for t ~leaf = t.cls_of.(leaf).count

let dropped t = t.store.dropped

let pruned t = t.store.pruned

let cap_evicted t = t.store.cap_evicted

let epochs_total t = Array.fold_left ( + ) 0 t.store.epochs

let store_dropped s = s.dropped

let store_pruned s = s.pruned

let store_cap_evicted s = s.cap_evicted

let store_epochs_total s = Array.fold_left ( + ) 0 s.epochs
