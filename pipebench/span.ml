(* Benchmark-owned span recorder for the traced run.

   Spans are recorded only from the benchmark's own code, around each call
   it makes into a layer; nothing inside the program is instrumented. A
   recorder belongs to one thread. Spans nest: [enter] makes the new span
   a child of the innermost open one, so a layer's self time is its spans'
   durations minus the parts their child spans cover. Everything stays in
   preallocated arrays until [write] dumps it at the end of the run. *)

module Clock = Ocep_base.Clock

type t = {
  names : string array;  (* layer names, indexed by layer id *)
  mutable layer : int array;
  mutable parent : int array;  (* -1 for a root span *)
  mutable start : float array;  (* microseconds, monotonic *)
  mutable stop : float array;
  mutable n : int;
  mutable top : int;  (* innermost open span, -1 when none is open *)
}

let create ?(capacity = 1024) names =
  let capacity = max 16 capacity in
  {
    names;
    layer = Array.make capacity 0;
    parent = Array.make capacity (-1);
    start = Array.make capacity 0.;
    stop = Array.make capacity 0.;
    n = 0;
    top = -1;
  }

let clear t =
  t.n <- 0;
  t.top <- -1

let grow t =
  let cap = 2 * Array.length t.layer in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.layer <- extend t.layer 0;
  t.parent <- extend t.parent (-1);
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.

(* the clock is read last on entry and first on exit, so the recorder's
   own bookkeeping falls outside the span *)
let enter t layer =
  if t.n = Array.length t.layer then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.layer.(i) <- layer;
  t.parent.(i) <- t.top;
  t.top <- i;
  t.start.(i) <- Clock.now_us ();
  i

let exit t i =
  t.stop.(i) <- Clock.now_us ();
  t.top <- t.parent.(i)

let duration t i = t.stop.(i) -. t.start.(i)

(* per-layer self time in microseconds: each span's duration, minus the
   duration of each of its direct children *)
let self_us t =
  let self = Array.make (Array.length t.names) 0. in
  for i = 0 to t.n - 1 do
    let d = duration t i in
    self.(t.layer.(i)) <- self.(t.layer.(i)) +. d;
    let p = t.parent.(i) in
    if p >= 0 then self.(t.layer.(p)) <- self.(t.layer.(p)) -. d
  done;
  self

let add_into acc t =
  let s = self_us t in
  Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) s

(* one line per span: id, parent id, layer, start and duration in us *)
let write t oc =
  Printf.fprintf oc "# id\tparent\tlayer\tstart_us\tdur_us\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%.3f\t%.3f\n" i t.parent.(i) t.names.(t.layer.(i)) t.start.(i)
      (duration t i)
  done
