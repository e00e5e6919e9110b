open Ocep_base
module A1 = Bigarray.Array1

(* Message ids are in practice small dense integers (the simulator and
   every workload draw them from a counter), so per-message state lives
   in arrays indexed by id — one load/store where a hashtable would
   hash, probe and allocate buckets — with a hashtable spill for ids
   that are negative or implausibly large. The arrays are off-heap
   Bigarrays: message ids grow linearly with the stream, and keeping
   the maps out of the OCaml heap keeps their doubling growth out of
   the GC entirely. Absent entries hold -1 (never a valid Vc_pool
   handle or arena eid). *)
let dense_cap = 1 lsl 20

type ibuf = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

(* The store is arena-backed: every ingested event becomes a row of int
   columns ([Arena.t]) plus an in-place clock update ([Vc_pool.t]), and
   is identified downstream by its dense eid. The boxed [Event.t] is a
   view, built eagerly only when a boxed client needs it (a [subscribe]
   subscriber, [retain], the [ingest] return value) and lazily otherwise
   ([materialize]). With only flat subscribers and [retain:false] the
   ingest path allocates nothing on the OCaml heap. *)

type t = {
  names : string array;
  symbols : Symbol.t;  (* interning table for trace names, etypes, texts *)
  name_syms : int array;  (* trace -> symbol of its name *)
  trace_by_sym : int option array;
      (* name symbol -> first trace with that name; the options are built
         once here so the matcher's per-level lookup allocates nothing *)
  retain : bool;
  partner_index : bool;
  arena : Arena.t;  (* one row per ingested event *)
  vcs : Vc_pool.t;  (* live clock rows + persisted snapshots *)
  mutable msg_vch : ibuf;  (* msg id -> sent-not-received snapshot handle *)
  mutable msg_send : ibuf;  (* msg id -> send eid *)
  mutable msg_recv : ibuf;  (* msg id -> receive eid *)
  pending_spill : (int, int) Hashtbl.t;
  send_spill : (int, int) Hashtbl.t;
  recv_spill : (int, int) Hashtbl.t;
  store : Event.t Vec.t array;  (* per trace, when retained *)
  log : Event.t Vec.t;  (* ingestion order, when retained *)
  mutable subscribers_rev : (Event.t -> unit) list;
  mutable subscribers : (Event.t -> unit) array;
      (* subscription-order cache of subscribers_rev for the ingest hot
         path; rebuilt on (rare) subscribe instead of appending with @ *)
  mutable flat_rev : (int -> unit) list;
  mutable flat_subscribers : (int -> unit) array;
  mutable ingested : int;
  mutable notified : int;  (* subscriber callbacks invoked, both kinds *)
  mutable last_boxed : Event.t;
      (* boxed view of the event being ingested; [Event.none] when no
         boxed client forced it, so [ingest] can reuse instead of
         rebuilding *)
  (* intern memos for the two hot ingest strings: event streams repeat
     the same etype/text values — usually the physically same string
     (literals, memoized names) — so a physical-equality hit skips the
     hash probe entirely. Etypes are shared literals across traces, so
     a global two-slot memo holds an alternating pair of sites. Texts
     are typically per-trace constants (peer names, process labels)
     that interleave across traces and thrash a global memo, so they
     get two slots per trace. [-1] symbols mark empty slots. *)
  mutable last_etype : string;
  mutable last_esym : int;
  mutable last_etype2 : string;
  mutable last_esym2 : int;
  memo_text : string array;  (* per trace, most recent *)
  memo_xsym : int array;
  memo_text2 : string array;  (* per trace, one before *)
  memo_xsym2 : int array;
}

let create ?(retain = false) ?(partner_index = true) ~trace_names () =
  let n = Array.length trace_names in
  let symbols = Symbol.create () in
  (* trace names are interned first so every name symbol is small and the
     reverse map is a dense array; duplicate names share a symbol and
     resolve to the first trace, matching [trace_of_name] *)
  let name_syms = Array.map (Symbol.intern symbols) trace_names in
  let trace_by_sym = Array.make (Symbol.size symbols) (-1) in
  Array.iteri (fun tr sym -> if trace_by_sym.(sym) < 0 then trace_by_sym.(sym) <- tr) name_syms;
  let trace_by_sym = Array.map (fun tr -> if tr < 0 then None else Some tr) trace_by_sym in
  {
    names = Array.copy trace_names;
    symbols;
    name_syms;
    trace_by_sym;
    retain;
    partner_index;
    arena = Arena.create ();
    vcs = Vc_pool.create ~dim:n;
    msg_vch = A1.create Bigarray.int Bigarray.c_layout 0;
    msg_send = A1.create Bigarray.int Bigarray.c_layout 0;
    msg_recv = A1.create Bigarray.int Bigarray.c_layout 0;
    pending_spill = Hashtbl.create 16;
    send_spill = Hashtbl.create 16;
    recv_spill = Hashtbl.create 16;
    store = Array.init n (fun _ -> Vec.create ());
    log = Vec.create ();
    subscribers_rev = [];
    subscribers = [||];
    flat_rev = [];
    flat_subscribers = [||];
    ingested = 0;
    notified = 0;
    last_boxed = Event.none;
    last_etype = "";
    last_esym = -1;
    last_etype2 = "";
    last_esym2 = -1;
    memo_text = Array.make (max 1 n) "";
    memo_xsym = Array.make (max 1 n) (-1);
    memo_text2 = Array.make (max 1 n) "";
    memo_xsym2 = Array.make (max 1 n) (-1);
  }

let trace_count t = Array.length t.names

let dense_capacity = dense_cap

let trace_names t = Array.copy t.names

let trace_of_name t name =
  let n = Array.length t.names in
  let rec loop i = if i >= n then None else if t.names.(i) = name then Some i else loop (i + 1) in
  loop 0

let symbols t = t.symbols

let arena t = t.arena

let vc_pool t = t.vcs

let clock_entry t ~trace ~entry = Vc_pool.get t.vcs ~trace ~entry

let trace_of_sym t sym =
  if sym < 0 || sym >= Array.length t.trace_by_sym then None else t.trace_by_sym.(sym)

let subscribe t f =
  t.subscribers_rev <- f :: t.subscribers_rev;
  t.subscribers <- Array.of_list (List.rev t.subscribers_rev)

let subscribe_flat t f =
  t.flat_rev <- f :: t.flat_rev;
  t.flat_subscribers <- Array.of_list (List.rev t.flat_rev)

let ingested t = t.ingested

let notifications t = t.notified

let dense t msg = msg >= 0 && msg < dense_cap && msg < A1.dim t.msg_vch

let grow_dense t msg =
  let cur = A1.dim t.msg_vch in
  let n = ref (max 1024 (cur * 2)) in
  while msg >= !n do
    n := !n * 2
  done;
  let grow a =
    let b = A1.create Bigarray.int Bigarray.c_layout !n in
    A1.fill b (-1);
    if cur > 0 then A1.blit a (A1.sub b 0 cur);
    b
  in
  t.msg_vch <- grow t.msg_vch;
  t.msg_send <- grow t.msg_send;
  t.msg_recv <- grow t.msg_recv

(* Build the boxed view of an arena row. Communication events decode
   their persisted snapshot; internal events have none, so they are only
   materializable while their trace's live row still is their clock —
   i.e. until the trace's next event. The engine materializes during
   dispatch (before any later ingest), and histories keep the boxed
   record from then on, so the window is never a constraint in the
   monitoring pipeline. *)
let materialize t eid =
  let ar = t.arena in
  let tr = Arena.trace ar eid in
  let idx = Arena.index ar eid in
  let esym = Arena.esym ar eid in
  let xsym = Arena.xsym ar eid in
  let h = Arena.vch ar eid in
  let vc =
    if h >= 0 then Vclock.unsafe_of_array (Vc_pool.to_array t.vcs h)
    else if Vc_pool.get t.vcs ~trace:tr ~entry:tr = idx then
      Vclock.unsafe_of_array (Vc_pool.current_to_array t.vcs ~trace:tr)
    else
      failwith
        (Printf.sprintf
           "Poet.materialize: internal event %d (trace %d, index %d) has no persisted clock \
            and its trace has moved on"
           eid tr idx)
  in
  {
    Event.trace = tr;
    trace_name = t.names.(tr);
    index = idx;
    etype = Symbol.name t.symbols esym;
    text = Symbol.name t.symbols xsym;
    tsym = Arena.tsym ar eid;
    esym;
    xsym;
    kind = Arena.kind ar eid;
    vc;
  }

let intern_etype t s =
  if t.last_esym >= 0 && (s == t.last_etype || String.equal s t.last_etype) then t.last_esym
  else if t.last_esym2 >= 0 && (s == t.last_etype2 || String.equal s t.last_etype2) then
    t.last_esym2
  else begin
    let sym = Symbol.intern t.symbols s in
    t.last_etype2 <- t.last_etype;
    t.last_esym2 <- t.last_esym;
    t.last_etype <- s;
    t.last_esym <- sym;
    sym
  end

(* structural, not physical, comparison: producers typically rebuild
   the text string per event (sprintf'd peer names), so pointer hits
   never happen, while a short String.equal is still far cheaper than
   the intern table's hash + probe *)
let intern_text t tr s =
  let sym1 = Array.unsafe_get t.memo_xsym tr in
  if sym1 >= 0 && String.equal s (Array.unsafe_get t.memo_text tr) then sym1
  else begin
    let sym2 = Array.unsafe_get t.memo_xsym2 tr in
    if sym2 >= 0 && String.equal s (Array.unsafe_get t.memo_text2 tr) then sym2
    else begin
      let sym = Symbol.intern t.symbols s in
      Array.unsafe_set t.memo_text2 tr (Array.unsafe_get t.memo_text tr);
      Array.unsafe_set t.memo_xsym2 tr sym1;
      Array.unsafe_set t.memo_text tr s;
      Array.unsafe_set t.memo_xsym tr sym;
      sym
    end
  end

let ingest_flat t (raw : Event.raw) =
  let tr = raw.r_trace in
  if tr < 0 || tr >= Array.length t.names then
    failwith (Printf.sprintf "Poet.ingest: trace %d out of range" tr);
  let ktag, msg, vch, idx =
    match raw.r_kind with
    | Event.Send { msg } ->
      let idx = Vc_pool.tick t.vcs ~trace:tr in
      let h = Vc_pool.snapshot t.vcs ~trace:tr in
      if msg >= 0 && msg < dense_cap then begin
        if msg >= A1.dim t.msg_vch then grow_dense t msg;
        A1.set t.msg_vch msg h
      end
      else Hashtbl.replace t.pending_spill msg h;
      (Arena.k_send, msg, h, idx)
    | Event.Receive { msg } ->
      let sent =
        if dense t msg && A1.get t.msg_vch msg >= 0 then begin
          let h = A1.get t.msg_vch msg in
          A1.set t.msg_vch msg (-1);
          h
        end
        else begin
          match Hashtbl.find t.pending_spill msg with
          | h ->
            Hashtbl.remove t.pending_spill msg;
            h
          | exception Not_found ->
            failwith (Printf.sprintf "Poet.ingest: receive of unknown message %d" msg)
        end
      in
      (* merge then tick: the sender's knowledge of [tr] can only lag
         the live row (its events were ingested earlier), so the merge
         never touches the own entry and the tick lands on own+1 —
         exactly [Vclock.tick_merge]. *)
      Vc_pool.merge_into t.vcs ~trace:tr sent;
      let idx = Vc_pool.tick t.vcs ~trace:tr in
      (Arena.k_recv, msg, Vc_pool.snapshot t.vcs ~trace:tr, idx)
    | Event.Internal ->
      let idx = Vc_pool.tick t.vcs ~trace:tr in
      (Arena.k_internal, -1, Vc_pool.nil, idx)
  in
  let esym = intern_etype t raw.r_etype in
  let xsym = intern_text t tr raw.r_text in
  let eid =
    Arena.push t.arena ~trace:tr ~index:idx ~tsym:t.name_syms.(tr) ~esym ~xsym ~kind:ktag ~msg
      ~vch
  in
  if t.partner_index && ktag <> Arena.k_internal then
    if ktag = Arena.k_send then begin
      if dense t msg then A1.set t.msg_send msg eid else Hashtbl.replace t.send_spill msg eid
    end
    else if dense t msg then A1.set t.msg_recv msg eid
    else Hashtbl.replace t.recv_spill msg eid;
  t.ingested <- t.ingested + 1;
  let nboxed = Array.length t.subscribers in
  if t.retain || nboxed > 0 then begin
    let ev =
      {
        Event.trace = tr;
        trace_name = t.names.(tr);
        index = idx;
        etype = raw.r_etype;
        text = raw.r_text;
        tsym = t.name_syms.(tr);
        esym;
        xsym;
        kind = raw.r_kind;
        vc = Vclock.unsafe_of_array (Vc_pool.current_to_array t.vcs ~trace:tr);
      }
    in
    t.last_boxed <- ev;
    if t.retain then begin
      Vec.push t.store.(tr) ev;
      Vec.push t.log ev
    end
  end
  else if t.last_boxed != Event.none then t.last_boxed <- Event.none;
  let flats = t.flat_subscribers in
  let nflat = Array.length flats in
  t.notified <- t.notified + nboxed + nflat;
  (* flat subscribers first: the engine registers at creation, before
     any boxed client, so record-mode observers keep seeing a
     post-dispatch engine either way *)
  for i = 0 to nflat - 1 do
    (Array.unsafe_get flats i) eid
  done;
  if nboxed > 0 then begin
    let ev = t.last_boxed in
    let subs = t.subscribers in
    for i = 0 to nboxed - 1 do
      (Array.unsafe_get subs i) ev
    done
  end;
  eid

let ingest t (raw : Event.raw) =
  let eid = ingest_flat t raw in
  if t.last_boxed != Event.none then t.last_boxed
  else
    (* no boxed client forced a view during ingest; the live row is
       still this event's clock, so build it from the raw strings *)
    let tr = raw.r_trace in
    {
      Event.trace = tr;
      trace_name = t.names.(tr);
      index = Arena.index t.arena eid;
      etype = raw.r_etype;
      text = raw.r_text;
      tsym = t.name_syms.(tr);
      esym = Arena.esym t.arena eid;
      xsym = Arena.xsym t.arena eid;
      kind = raw.r_kind;
      vc = Vclock.unsafe_of_array (Vc_pool.current_to_array t.vcs ~trace:tr);
    }

let check_retained t fn =
  if not t.retain then failwith (fn ^ ": store was created with retain:false")

let events_on t tr =
  check_retained t "Poet.events_on";
  Vec.to_array t.store.(tr)

let all_events t =
  check_retained t "Poet.all_events";
  Vec.to_list t.log

let partner_eid t (ev : Event.t) =
  match ev.kind with
  | Event.Send { msg } ->
    if dense t msg then A1.get t.msg_recv msg
    else ( match Hashtbl.find_opt t.recv_spill msg with Some e -> e | None -> -1)
  | Event.Receive { msg } ->
    if dense t msg then A1.get t.msg_send msg
    else ( match Hashtbl.find_opt t.send_spill msg with Some e -> e | None -> -1)
  | Event.Internal -> -1

let find_partner t ev =
  let eid = partner_eid t ev in
  if eid < 0 then None else Some (materialize t eid)

(* ------------------------------------------------------------------ *)
(* Dump / reload                                                       *)
(* ------------------------------------------------------------------ *)

let dump_header ~trace_names oc =
  Printf.fprintf oc "poet-dump 1\ntraces %d\n" (Array.length trace_names);
  Array.iter (fun n -> Printf.fprintf oc "%S\n" n) trace_names

let kind_tag = function
  | Event.Send { msg } -> Printf.sprintf "S %d" msg
  | Event.Receive { msg } -> Printf.sprintf "R %d" msg
  | Event.Internal -> "I"

let dump_raw oc (raw : Event.raw) =
  Printf.fprintf oc "E %d %S %S %s\n" raw.r_trace raw.r_etype raw.r_text (kind_tag raw.r_kind)

let load ic =
  let line () = try Some (input_line ic) with End_of_file -> None in
  (match line () with
  | Some "poet-dump 1" -> ()
  | _ -> failwith "Poet.load: bad magic");
  let n =
    match line () with
    | Some l -> (try Scanf.sscanf l "traces %d" (fun n -> n) with _ -> failwith "Poet.load: bad trace count")
    | None -> failwith "Poet.load: truncated header"
  in
  let names =
    Array.init n (fun _ ->
        match line () with
        | Some l -> (try Scanf.sscanf l "%S" (fun s -> s) with _ -> failwith "Poet.load: bad trace name")
        | None -> failwith "Poet.load: truncated names")
  in
  let parse_event l =
    try
      Scanf.sscanf l "E %d %S %S %s %s" (fun tr etype text tag rest ->
          let kind =
            match tag with
            | "S" -> Event.Send { msg = int_of_string rest }
            | "R" -> Event.Receive { msg = int_of_string rest }
            | "I" -> Event.Internal
            | _ -> failwith "Poet.load: bad kind"
          in
          { Event.r_trace = tr; r_etype = etype; r_text = text; r_kind = kind })
    with Scanf.Scan_failure _ | End_of_file -> failwith ("Poet.load: bad event line: " ^ l)
  in
  let rec events acc =
    match line () with
    | None -> List.rev acc
    | Some "" -> events acc
    | Some l -> events (parse_event l :: acc)
  in
  (names, events [])
