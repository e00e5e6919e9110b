open Ocep_base
module Compile = Ocep_pattern.Compile

type outcome = Found of Event.t array | Not_found | Aborted

type stats = {
  mutable nodes : int;
  mutable backjumps : int;
  mutable searches : int;
  mutable miss_level : int;  (* deepest level any failed search reached; -1 none *)
  mutable miss_leaf : int;  (* the leaf at that level — failed binding last *)
}

let new_stats () = { nodes = 0; backjumps = 0; searches = 0; miss_level = -1; miss_leaf = -1 }

(* Attribute value of an event as a symbol id — the only representation
   the search ever compares. *)
let field_value (ev : Event.t) = function
  | Compile.Fproc -> ev.tsym
  | Compile.Ftyp -> ev.esym
  | Compile.Ftext -> ev.xsym

(* Search context shared by the two entry points. Every field is
   mutable because the context is scratch: [search] refills a per-domain
   one at entry instead of allocating it (see [acquire]). [assigned] and
   [levels] may be longer than [k]; only the first [k] slots are live. *)
type ctx = {
  mutable inet : Compile.inet;
  mutable net : Compile.t;  (* = inet.net, saves a field chase in the loops *)
  mutable history : History.t;
  mutable n_traces : int;
  mutable trace_of_sym : int -> int option;
  mutable partner_of : Event.t -> Event.t option;
  mutable k : int;
  mutable order : int array;  (* level -> leaf *)
  mutable level_of : int array;  (* leaf -> level *)
  mutable assigned : Event.t array;  (* by leaf; Event.none (by ==) when unassigned *)
  mutable partner_links : int list array;  (* leaf -> partner-constrained leaves *)
  mutable pin_leaf : int;  (* -1: no pin *)
  mutable pin_trace : int;
  mutable stats : stats;
  mutable node_budget : int;
  mutable start_nodes : int;
      (* [stats.nodes] at search entry: callers share one cumulative stats
         record across searches, so the budget must be charged against the
         nodes expanded by THIS search only *)
  mutable levels : level_state array;  (* by level; reinitialized on descent *)
  mutable busy : bool;  (* a search is running on this context *)
}

(* Per-level search state, preallocated and reset by [init_level].
   The traces a level iterates are all traces in order ([one_trace] =
   -1, trace at index ix is ix), exactly one, or none ([ntraces] = 0).
   [cursor] is the next position to try on the current trace
   (descending, newest-first); -1 requests the next trace. [conflicts]
   is a bitset of levels (bit l = level l), which is why the matcher
   caps patterns at 62 leaves. *)
and level_state = {
  mutable leaf : int;
  mutable ntraces : int;
  mutable one_trace : int;
  mutable text_filter : int;
      (* symbol id of the exact text the candidate must carry (exact spec
         or bound variable), -1 for none: iterate the history's text index
         instead of the whole domain *)
  mutable trace_ix : int;
  dom : Domain.t;
  mutable cursor : int;
  mutable tvec : int Vec.t;  (* text-index positions for the current trace *)
  mutable tix : int;  (* descending index into tvec; -1 when exhausted *)
  mutable partner_source : int;  (* leaf providing the partner event, -1 none *)
  mutable partner_done : bool;
  mutable conflicts : int;  (* bitset of levels *)
}

let add_conflict st l = st.conflicts <- st.conflicts lor (1 lsl l)

(* Position of the highest set bit; [m] must be positive. *)
let top_bit m =
  let rec go m b = if m <= 1 then b else go (m lsr 1) (b + 1) in
  go m 0

let max_leaves = Compile.max_leaves

(* Evaluation order: anchor first, then greedily the leaf most constrained
   by the already-ordered set — the standard most-constrained-first CSP
   heuristic, which realizes the paper's Order attribute on the pattern
   tree. A leaf whose text variable is already bound iterates a single
   index bucket; a bound process variable iterates a single trace; each
   causal constraint shrinks the domain interval; a partner link determines
   the event outright. *)
let make_order (inet : Compile.inet) ~anchor_leaf =
  let net = inet.Compile.net in
  let k = Compile.size net in
  let ordered = Array.make k false in
  ordered.(anchor_leaf) <- true;
  let var_bound_by_ordered v =
    Array.exists (fun (j, _) -> ordered.(j)) inet.Compile.var_occs.(v)
  in
  let spec_score spec weight =
    match spec with
    | Compile.I_exact _ -> weight
    | Compile.I_var v -> if var_bound_by_ordered v then weight else 0
    | Compile.I_any -> 0
  in
  let score u =
    let text_score = spec_score inet.Compile.itext.(u) 8 in
    let proc_score = spec_score inet.Compile.iproc.(u) 4 in
    let cons_score =
      let c = ref 0 in
      for j = 0 to k - 1 do
        if ordered.(j) && net.Compile.cons.(u).(j) <> None then c := !c + 2
      done;
      !c
    in
    let partner_score =
      if List.exists (fun (i, j) -> (i = u && ordered.(j)) || (j = u && ordered.(i))) net.Compile.partners
      then 16
      else 0
    in
    text_score + proc_score + cons_score + partner_score
  in
  let order = ref [ anchor_leaf ] in
  for _ = 2 to k do
    let best = ref (-1) in
    let best_score = ref (-1) in
    for u = 0 to k - 1 do
      if not ordered.(u) then begin
        let s = score u in
        if s > !best_score then begin
          best_score := s;
          best := u
        end
      end
    done;
    ordered.(!best) <- true;
    order := !best :: !order
  done;
  Array.of_list (List.rev !order)

(* The evaluation order, its inverse, and the partner adjacency are pure
   functions of (net, anchor_leaf); a [plan] precomputes them once so
   repeated searches for the same anchor leaf — every pinned search of a
   batch, every arrival of the same terminating class — skip the greedy
   ordering pass. Plans are immutable after construction and safe to
   share across domains. *)
type plan = {
  plan_anchor : int;
  plan_order : int array;
  plan_level_of : int array;
  plan_partner_links : int list array;
}

let plan_of ~(net : Compile.inet) ~anchor_leaf =
  let k = Compile.size net.Compile.net in
  if k > max_leaves then
    invalid_arg
      (Printf.sprintf "Matcher: patterns are limited to %d leaves (conflict bitset)" max_leaves);
  let order = make_order net ~anchor_leaf in
  let level_of = Array.make k 0 in
  Array.iteri (fun lvl leaf -> level_of.(leaf) <- lvl) order;
  let partner_links = Array.make k [] in
  List.iter
    (fun (i, j) ->
      partner_links.(i) <- j :: partner_links.(i);
      partner_links.(j) <- i :: partner_links.(j))
    net.Compile.net.Compile.partners;
  { plan_anchor = anchor_leaf; plan_order = order; plan_level_of = level_of; plan_partner_links = partner_links }

(* [plan] is also the name of [search]'s optional argument *)
let plan = plan_of

(* The first instantiated occurrence of attribute variable [v], as an
   index into [var_occs.(v)]; -1 when [v] is unbound. *)
let rec first_bound ctx occs i =
  if i >= Array.length occs then -1
  else
    let j, _ = Array.unsafe_get occs i in
    if Array.unsafe_get ctx.assigned j != Event.none then i else first_bound ctx occs (i + 1)

let bound_occ ctx v = first_bound ctx ctx.inet.Compile.var_occs.(v) 0

(* The symbol variable [v] is bound to, after [bound_occ] found it at
   [occ]; the binding leaf's level joins the conflict set. *)
let bound_sym ctx st v occ =
  let j, f = ctx.inet.Compile.var_occs.(v).(occ) in
  add_conflict st ctx.level_of.(j);
  field_value ctx.assigned.(j) f

let only_trace st = function
  | Some t ->
    st.ntraces <- 1;
    st.one_trace <- t
  | None -> st.ntraces <- 0

let set_traces ctx st leaf =
  st.one_trace <- -1;
  st.ntraces <- ctx.n_traces;
  if ctx.pin_leaf = leaf then only_trace st (Some ctx.pin_trace)
  else
    match ctx.inet.Compile.iproc.(leaf) with
    | Compile.I_exact sym -> only_trace st (ctx.trace_of_sym sym)
    | Compile.I_var v ->
      let occ = bound_occ ctx v in
      if occ >= 0 then only_trace st (ctx.trace_of_sym (bound_sym ctx st v occ))
    | Compile.I_any -> ()

let trace_at st ix = if st.one_trace >= 0 then st.one_trace else ix

let rec first_assigned ctx = function
  | [] -> -1
  | j :: rest -> if ctx.assigned.(j) != Event.none then j else first_assigned ctx rest

let init_level ctx i =
  let st = ctx.levels.(i) in
  let leaf = ctx.order.(i) in
  st.leaf <- leaf;
  st.trace_ix <- -1;
  st.cursor <- -1;
  st.tix <- -1;
  st.partner_source <- first_assigned ctx ctx.partner_links.(leaf);
  st.partner_done <- false;
  st.conflicts <- 0;
  set_traces ctx st leaf;
  st.text_filter <-
    (match ctx.inet.Compile.itext.(leaf) with
    | Compile.I_exact sym -> sym
    | Compile.I_var v ->
      let occ = bound_occ ctx v in
      if occ >= 0 then bound_sym ctx st v occ else -1
    | Compile.I_any -> -1)

(* Compute the Fig. 4 domain of [leaf] on trace [t] into the level's
   domain: intersection of the restrictions by every instantiated event.
   Every level whose constraint shaped the domain joins the conflict set
   — if this level later wipes out, any of them could be the culprit
   (their choices decide which candidates were available at all), so a
   backjump must not skip them. *)
let domain_on ctx st t =
  let leaf = st.leaf in
  let hist = History.on ctx.history ~leaf ~trace:t in
  let cons = ctx.net.Compile.cons.(leaf) in
  let dom = st.dom in
  Domain.set_full dom hist;
  let j = ref 0 in
  while !j < ctx.k && not (Domain.is_empty dom) do
    let e = Array.unsafe_get ctx.assigned !j in
    (if e != Event.none then
       match Array.unsafe_get cons !j with
       | Some a ->
         add_conflict st ctx.level_of.(!j);
         Domain.restrict dom hist ~trace:t ~w:e a
       | None -> ());
    incr j
  done

(* Does [x] satisfy every constraint against the instantiated events? On
   rejection the conflicting level is recorded for backjumping. [accept]
   runs once per search node, so every pass below is a top-level
   recursive function taking its state as arguments: a closure — an
   iterator's argument or a local [let rec] that captures variables —
   is allocated each time it is created, and was the search's dominant
   allocation. *)

(* causal relations (already true for history candidates by construction;
   re-checked cheaply, and required for partner-derived candidates).
   Distinct unconstrained leaves may share an event, so an assigned leaf
   without a constraint needs no check. *)
let rec cons_from ctx st cons (x : Event.t) j =
  j >= ctx.k
  ||
  let e = Array.unsafe_get ctx.assigned j in
  if e == Event.none then cons_from ctx st cons x (j + 1)
  else
    match Array.unsafe_get cons j with
    | None -> cons_from ctx st cons x (j + 1)
    | Some a ->
      if Compile.allowed_of_relation (Event.relation x e) a then cons_from ctx st cons x (j + 1)
      else begin
        add_conflict st ctx.level_of.(j);
        false
      end

let cons_ok ctx st x = cons_from ctx st ctx.net.Compile.cons.(st.leaf) x 0

(* partner links *)
let rec partners_ok ctx st (x : Event.t) = function
  | [] -> true
  | j :: rest ->
    let e = ctx.assigned.(j) in
    if e == Event.none then partners_ok ctx st x rest
    else
      let same_msg =
        match (x.Event.kind, e.Event.kind) with
        | ( (Event.Send { msg = a } | Event.Receive { msg = a }),
            (Event.Send { msg = b } | Event.Receive { msg = b }) ) ->
          Int.equal a b && not (Event.equal x e)
        | _ -> false
      in
      if same_msg then partners_ok ctx st x rest
      else begin
        add_conflict st ctx.level_of.(j);
        false
      end

(* self-consistency: the leaf's other positions of [v] must carry [xv] *)
let rec self_ok lvars (x : Event.t) ~v ~f ~xv i =
  i >= Array.length lvars
  ||
  let v', f' = Array.unsafe_get lvars i in
  ((not (Int.equal v' v)) || f' == f || Int.equal (field_value x f') xv)
  && self_ok lvars x ~v ~f ~xv (i + 1)

(* consistency of [v = xv] with its instantiated occurrences elsewhere *)
let rec var_occs_ok ctx st occs ~leaf ~xv i =
  i >= Array.length occs
  ||
  let j, f2 = Array.unsafe_get occs i in
  if j = leaf then var_occs_ok ctx st occs ~leaf ~xv (i + 1)
  else
    let e = ctx.assigned.(j) in
    if e == Event.none || Int.equal (field_value e f2) xv then
      var_occs_ok ctx st occs ~leaf ~xv (i + 1)
    else begin
      add_conflict st ctx.level_of.(j);
      false
    end

(* attribute variables: self-consistency and consistency with bindings *)
let rec vars_from ctx st lvars (x : Event.t) i =
  i >= Array.length lvars
  ||
  let v, f = Array.unsafe_get lvars i in
  let xv = field_value x f in
  self_ok lvars x ~v ~f ~xv 0
  && var_occs_ok ctx st ctx.inet.Compile.var_occs.(v) ~leaf:st.leaf ~xv 0
  && vars_from ctx st lvars x (i + 1)

let vars_ok ctx st x = vars_from ctx st ctx.inet.Compile.leaf_vars.(st.leaf) x 0

let accept ctx st (x : Event.t) =
  cons_ok ctx st x
  && partners_ok ctx st x ctx.partner_links.(st.leaf)
  && vars_ok ctx st x

exception Budget

(* Nearest-miss bookkeeping: a failed search bound levels 1..[deepest]-1
   and never filled [deepest]; remember the deepest such frontier ever
   seen so a digest that matches nothing can still be explained ("got
   this far, this leaf never bound"). *)
let note_miss ctx deepest =
  let stats = ctx.stats in
  if deepest > stats.miss_level then begin
    stats.miss_level <- deepest;
    stats.miss_leaf <- ctx.order.(deepest)
  end

let bump_nodes ctx =
  ctx.stats.nodes <- ctx.stats.nodes + 1;
  if ctx.stats.nodes - ctx.start_nodes > ctx.node_budget then raise Budget

(* Next raw candidate at this level, newest-first across the trace
   list; [Event.none] when the level is exhausted. *)
let rec next_candidate ctx st =
  if st.partner_source >= 0 then begin
    if st.partner_done then Event.none
    else begin
      st.partner_done <- true;
      let j = st.partner_source in
      let e = ctx.assigned.(j) in
      if e == Event.none then Event.none
      else begin
        (* the level's single candidate is a function of level [j]'s
           choice, so exhausting this level is attributable to [j]
           whatever later rejects the candidate — without this bit a
           backjump from deeper levels could skip [j] while it still has
           untried events whose partners would succeed *)
        add_conflict st ctx.level_of.(j);
        match ctx.partner_of e with
        | Some x when Compile.leaf_matches_i ctx.inet st.leaf x ->
          if ctx.pin_leaf = st.leaf && x.trace <> ctx.pin_trace then Event.none else x
        | Some _ | None -> Event.none
      end
    end
  end
  else if st.text_filter >= 0 then begin
    (* text-indexed iteration: walk the index positions newest-first,
       keeping those inside the causal domain *)
    let pv = st.tvec in
    while st.tix >= 0 && not (Domain.mem st.dom (Vec.get pv st.tix)) do
      st.tix <- st.tix - 1
    done;
    if st.tix >= 0 then begin
      let hist = History.on ctx.history ~leaf:st.leaf ~trace:(trace_at st st.trace_ix) in
      let x = (Vec.get hist (Vec.get pv st.tix)).History.ev in
      st.tix <- st.tix - 1;
      x
    end
    else advance_trace ctx st
  end
  else if st.cursor >= 0 then begin
    let hist = History.on ctx.history ~leaf:st.leaf ~trace:(trace_at st st.trace_ix) in
    let x = (Vec.get hist st.cursor).History.ev in
    st.cursor <- Domain.next_below st.dom (st.cursor - 1);
    x
  end
  else advance_trace ctx st

and advance_trace ctx st =
  if st.trace_ix + 1 >= st.ntraces then Event.none
  else begin
    st.trace_ix <- st.trace_ix + 1;
    let t = trace_at st st.trace_ix in
    domain_on ctx st t;
    if Domain.is_empty st.dom then begin
      st.cursor <- -1;
      st.tix <- -1;
      advance_trace ctx st
    end
    else begin
      if st.text_filter >= 0 then begin
        let pv = History.positions_for_text ctx.history ~leaf:st.leaf ~trace:t st.text_filter in
        st.tvec <- pv;
        st.tix <- Vec.length pv - 1
      end
      else st.cursor <- Domain.max_elt st.dom;
      next_candidate ctx st
    end
  end

let debug = Sys.getenv_opt "OCEP_DEBUG" <> None

let rec next_acceptable ctx st =
  let x = next_candidate ctx st in
  if x == Event.none then x
  else begin
    bump_nodes ctx;
    let ok = accept ctx st x in
    if debug then Format.eprintf "  leaf %d candidate %a -> %b@." st.leaf Event.pp x ok;
    if ok then x else next_acceptable ctx st
  end

(* Limited happens-before: no event of [leaf]'s class strictly causally
   between a and b, per trace, located with two binary searches. *)
let lim_ok ctx ~leaf ~a ~b =
  let interposed = ref false in
  for t = 0 to ctx.n_traces - 1 do
    if not !interposed then begin
      let hist = History.on ctx.history ~leaf ~trace:t in
      if not (Vec.is_empty hist) then begin
        let lo = Domain.ls_position hist ~trace:t ~w:a in
        let hi = Domain.gp_position hist ~trace:t ~w:b in
        if lo <= hi then interposed := true
      end
    end
  done;
  not !interposed

(* The post-checks as explicit list recursions: they run once per
   complete candidate assignment, where closures would allocate. *)
let rec hb_to_any (m : Event.t array) i = function
  | [] -> false
  | j :: rest -> Event.hb m.(i) m.(j) || hb_to_any m i rest

let rec any_hb m ly = function
  | [] -> false
  | i :: rest -> hb_to_any m i ly || any_hb m ly rest

let rec exists_before_ok m = function
  | [] -> true
  | (lx, ly) :: rest -> any_hb m ly lx && exists_before_ok m rest

let rec lim_checks_ok ctx m = function
  | [] -> true
  | (i, j) :: rest -> lim_ok ctx ~leaf:i ~a:m.(i) ~b:m.(j) && lim_checks_ok ctx m rest

let post_checks ctx m =
  exists_before_ok m ctx.net.Compile.exists_before
  && lim_checks_ok ctx m ctx.net.Compile.lim_checks

(* the match, as a fresh array the caller owns *)
let extract ctx = Array.sub ctx.assigned 0 ctx.k

let new_level ~capacity =
  {
    leaf = 0;
    ntraces = 0;
    one_trace = -1;
    text_filter = -1;
    trace_ix = -1;
    dom = Domain.create ~capacity;
    cursor = -1;
    tvec = History.no_positions;
    tix = -1;
    partner_source = -1;
    partner_done = false;
    conflicts = 0;
  }

(* A k-leaf search needs [k] assigned slots, [k] levels and domains of
   [k + 1] intervals (Domain's capacity rule). *)
let ensure_capacity ctx k =
  if Array.length ctx.assigned < k then begin
    ctx.assigned <- Array.make k Event.none;
    ctx.levels <- Array.init k (fun _ -> new_level ~capacity:(k + 1))
  end

let fresh_ctx (net : Compile.inet) ~history ~n_traces ~trace_of_sym ~partner_of ~stats =
  let ctx =
    {
      inet = net;
      net = net.Compile.net;
      history;
      n_traces;
      trace_of_sym;
      partner_of;
      k = Compile.size net.Compile.net;
      order = [||];
      level_of = [||];
      assigned = [||];
      partner_links = [||];
      pin_leaf = -1;
      pin_trace = -1;
      stats;
      node_budget = max_int;
      start_nodes = 0;
      levels = [||];
      busy = false;
    }
  in
  ensure_capacity ctx ctx.k;
  ctx

(* One search context per domain, refilled by every search that finds it
   idle. A search started while the domain's context is busy — from a
   callback of a running search, or from another thread of the same
   domain — gets a private one instead, so the reuse is invisible. *)
let scratch : ctx option ref Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> ref None)

(* What an idle context points at instead of the last search's history
   and POET callbacks: an engine that is dropped must not stay reachable
   (with its arena and clock pool) from a domain's scratch. *)
let no_history = History.view (History.create_store ~n_traces:0 ~pruning:false ()) ~classes:[||]

let no_trace_of_sym _ = None

let no_partner_of _ = None

let release ctx =
  ctx.busy <- false;
  ctx.history <- no_history;
  ctx.trace_of_sym <- no_trace_of_sym;
  ctx.partner_of <- no_partner_of

let acquire (net : Compile.inet) ~history ~n_traces ~trace_of_sym ~partner_of ~stats =
  let cell = Stdlib.Domain.DLS.get scratch in
  match !cell with
  | Some ctx when not ctx.busy ->
    (* claimed before anything that could switch threads *)
    ctx.busy <- true;
    (* consecutive searches mostly come from one pattern: skip the
       pointer stores (each a write-barrier call) that would change
       nothing *)
    if ctx.inet != net then begin
      ctx.inet <- net;
      ctx.net <- net.Compile.net;
      ctx.k <- Compile.size net.Compile.net;
      ensure_capacity ctx ctx.k
    end;
    if ctx.stats != stats then ctx.stats <- stats;
    ctx.history <- history;
    ctx.n_traces <- n_traces;
    ctx.trace_of_sym <- trace_of_sym;
    ctx.partner_of <- partner_of;
    ctx
  | Some _ -> fresh_ctx net ~history ~n_traces ~trace_of_sym ~partner_of ~stats
  | None ->
    let ctx = fresh_ctx net ~history ~n_traces ~trace_of_sym ~partner_of ~stats in
    ctx.busy <- true;
    cell := Some ctx;
    ctx

(* Validate the anchor and plan, then reset [ctx] for a search anchored
   at [anchor]: only the anchor is assigned. *)
let start ctx ?plan ~anchor_leaf ~anchor ~pin_leaf ~pin_trace ~node_budget () =
  let net = ctx.inet in
  if not (Compile.leaf_matches_i net anchor_leaf anchor) then
    invalid_arg "Matcher: anchor event does not match the anchor leaf";
  if pin_leaf = anchor_leaf && pin_trace <> (anchor : Event.t).trace then
    invalid_arg "Matcher: pin names the anchor leaf on a different trace";
  let p =
    match plan with
    | Some p ->
      if p.plan_anchor <> anchor_leaf then
        invalid_arg "Matcher: plan was built for a different anchor leaf";
      p
    | None -> plan_of ~net ~anchor_leaf
  in
  if ctx.order != p.plan_order then begin
    ctx.order <- p.plan_order;
    ctx.level_of <- p.plan_level_of;
    ctx.partner_links <- p.plan_partner_links
  end;
  ctx.pin_leaf <- pin_leaf;
  ctx.pin_trace <- pin_trace;
  ctx.node_budget <- node_budget;
  ctx.start_nodes <- ctx.stats.nodes;
  Array.fill ctx.assigned 0 ctx.k Event.none;
  ctx.assigned.(anchor_leaf) <- anchor

(* The main loop: [descend] fills level [i]; a wiped-out level jumps to
   the deepest conflicting level (goBackward with the recorded
   information of Fig. 5). [deepest] is the furthest level reached. *)
let rec descend ctx i deepest =
  let st = ctx.levels.(i) in
  let x = next_acceptable ctx st in
  if x != Event.none then begin
    ctx.assigned.(st.leaf) <- x;
    if i = ctx.k - 1 then begin
      if post_checks ctx ctx.assigned then Found (extract ctx)
      else begin
        (* keep searching at this level; a post-check failure may be
           caused by any earlier choice *)
        ctx.assigned.(st.leaf) <- Event.none;
        st.conflicts <- st.conflicts lor ((1 lsl i) - 1);
        descend ctx i deepest
      end
    end
    else begin
      init_level ctx (i + 1);
      descend ctx (i + 1) (Int.max (i + 1) deepest)
    end
  end
  else begin
    (* goBackward: jump to the deepest conflicting level; a conflict set
       that is empty or {0} means no earlier choice can help *)
    let above0 = st.conflicts land lnot 1 in
    if above0 = 0 then begin
      note_miss ctx deepest;
      Not_found
    end
    else begin
      let j = top_bit above0 in
      ctx.stats.backjumps <- ctx.stats.backjumps + 1;
      let stj = ctx.levels.(j) in
      stj.conflicts <- stj.conflicts lor (st.conflicts land lnot (1 lsl j));
      for l = j to i do
        ctx.assigned.(ctx.levels.(l).leaf) <- Event.none
      done;
      descend ctx j deepest
    end
  end

let run ctx =
  if ctx.k = 1 then if post_checks ctx ctx.assigned then Found (extract ctx) else Not_found
  else begin
    init_level ctx 1;
    match descend ctx 1 1 with r -> r | exception Budget -> Aborted
  end

let search ?plan ~net ~history ~n_traces ~trace_of_sym ~partner_of ~anchor_leaf ~anchor ?pin
    ?(node_budget = max_int) ?(stats = new_stats ()) () =
  let pin_leaf, pin_trace = match pin with Some (l, t) -> (l, t) | None -> (-1, -1) in
  let ctx = acquire net ~history ~n_traces ~trace_of_sym ~partner_of ~stats in
  match
    start ctx ?plan ~anchor_leaf ~anchor ~pin_leaf ~pin_trace ~node_budget ();
    stats.searches <- stats.searches + 1;
    run ctx
  with
  | r ->
    release ctx;
    r
  | exception e ->
    release ctx;
    raise e

(* Exhaustive enumeration owns its context: [yield] may start searches
   of its own on this domain. *)
let enumerate ?plan ~net ~history ~n_traces ~trace_of_sym ~partner_of ~anchor_leaf ~anchor
    ?(limit = max_int) yield =
  let ctx = fresh_ctx net ~history ~n_traces ~trace_of_sym ~partner_of ~stats:(new_stats ()) in
  start ctx ?plan ~anchor_leaf ~anchor ~pin_leaf:(-1) ~pin_trace:(-1) ~node_budget:max_int ();
  let k = ctx.k in
  let found = ref 0 in
  if k = 1 then begin
    if post_checks ctx ctx.assigned then yield (extract ctx)
  end
  else begin
    init_level ctx 1;
    let i = ref 1 in
    let stop = ref false in
    while not !stop do
      let st = ctx.levels.(!i) in
      let x = next_acceptable ctx st in
      if x != Event.none then begin
        ctx.assigned.(st.leaf) <- x;
        if !i = k - 1 then begin
          if post_checks ctx ctx.assigned then begin
            yield (extract ctx);
            incr found;
            if !found >= limit then stop := true
          end;
          ctx.assigned.(st.leaf) <- Event.none
        end
        else begin
          incr i;
          init_level ctx !i
        end
      end
      else if
        (* chronological backtracking for exhaustive enumeration *)
        !i = 1
      then stop := true
      else begin
        decr i;
        ctx.assigned.(ctx.levels.(!i).leaf) <- Event.none
      end
    done
  end
