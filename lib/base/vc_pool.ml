(* Vector clocks over a chunked off-heap pool.

   Two stores cooperate:

   - [cur] holds the *live* clock of every trace as a dense row of a
     single [dim * dim] array, mutated in place: a tick is one store, a
     merge one pass over the incoming snapshot. Nothing on the tick path
     allocates on the OCaml heap.

   - the chunk list (off-heap Bigarrays) holds *immutable snapshots*:
     the timestamp a send leaves behind for its receive, and the
     persistent clock of every communication event (so partner events
     can be materialized long after their trace has moved on).
     Snapshots are bump-allocated and referenced by integer handles
     (global word offsets).

   Storage is a sequence of fixed-size chunks rather than one doubling
   buffer: growth appends a fresh chunk, so no snapshot is ever copied
   and handles stay valid. A snapshot always lies inside one chunk; when
   the next one does not fit in the active chunk's tail, that tail stays
   unused (less than one snapshot per chunk).

   Snapshot format at offset [h]: a header word [s] naming the lane
   width, then the row packed [2^s] entries per word in lanes of
   [63 lsr s] bits, entry [i] in lane [i land (2^s - 1)] of word
   [i lsr s], low lanes first:

     s = 2   15-bit lanes, 4 per word   1 + ceil(dim/4) words
     s = 1   31-bit lanes, 2 per word   1 + ceil(dim/2) words
     s = 0   63-bit lanes, 1 per word   1 + dim words

   Every value in the pool originates from a tick, so the tick is the
   one place that checks whether it still fits the pool's lane width;
   the first tick that does not lowers [s], widening the lanes of every
   later snapshot, while earlier snapshots keep their own header and
   stay readable. A
   clock entry outgrows 15 bits only after 32768 events on one trace. *)

open Bigarray

type buf = (int, int_elt, c_layout) Array1.t

(* 64K words (512 KB) per chunk *)
let chunk_bits = 16

let chunk_size = 1 lsl chunk_bits

let chunk_mask = chunk_size - 1

(* largest value a lane of header [s] holds *)
let lane_max = [| max_int; (1 lsl 31) - 1; (1 lsl 15) - 1 |]

type t = {
  dim : int;
  cur : int array;  (* dim*dim, row-major: live clock of each trace *)
  mutable shift : int;  (* header [s] of the next snapshot *)
  mutable chunks : buf array;
  mutable nchunks : int;  (* chunks in use; chunks.(nchunks-1) is active *)
  mutable len : int;  (* bump pointer: global word offset *)
  mutable words : int;  (* words written by snapshots *)
}

let nil = -1

let mkchunk () = Array1.create int c_layout chunk_size

let create ~dim =
  if dim < 0 then invalid_arg "Vc_pool.create: negative dimension";
  if 1 + dim > chunk_size then invalid_arg "Vc_pool.create: dimension exceeds chunk capacity";
  {
    dim;
    cur = Array.make (max 1 (dim * dim)) 0;
    shift = 2;
    chunks = [| mkchunk () |];
    nchunks = 1;
    len = 0;
    words = 0;
  }

let words t = t.words

(* ------------------------------------------------------------------ *)
(* Live rows                                                           *)
(* ------------------------------------------------------------------ *)

let get t ~trace ~entry = Array.unsafe_get t.cur ((trace * t.dim) + entry)

(* A tick raises one value by one, so the first value too wide for the
   pool's lanes fits the next width: one step of [shift] suffices. No
   value exceeds [lane_max.(0)], so 63-bit lanes never step. *)
let tick t ~trace =
  let i = (trace * t.dim) + trace in
  let v = Array.unsafe_get t.cur i + 1 in
  Array.unsafe_set t.cur i v;
  if v > Array.unsafe_get lane_max t.shift then t.shift <- t.shift - 1;
  v

let current_to_array t ~trace = Array.sub t.cur (trace * t.dim) t.dim

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* Make room for [n] words at the bump pointer: skip to the next chunk
   if they would straddle, appending a fresh chunk when needed. Existing
   chunks are never copied. *)
let reserve t n =
  if (t.len land chunk_mask) + n > chunk_size then
    t.len <- ((t.len lsr chunk_bits) + 1) lsl chunk_bits;
  let ci = t.len lsr chunk_bits in
  if ci >= t.nchunks then begin
    if ci >= Array.length t.chunks then begin
      let bigger = Array.make (2 * Array.length t.chunks) t.chunks.(0) in
      Array.blit t.chunks 0 bigger 0 t.nchunks;
      t.chunks <- bigger
    end;
    t.chunks.(ci) <- mkchunk ();
    t.nchunks <- ci + 1
  end

(* chunk holding handle [h] *)
let chunk_of t h = Array.unsafe_get t.chunks (h lsr chunk_bits)

let snapshot t ~trace =
  let s = t.shift in
  let n = 1 + ((t.dim + (1 lsl s) - 1) lsr s) in
  reserve t n;
  let h = t.len in
  let buf = chunk_of t h and o = (h land chunk_mask) + 1 in
  Array1.unsafe_set buf (o - 1) s;
  let width = 63 lsr s and last = (1 lsl s) - 1 in
  let base = trace * t.dim in
  let w = ref 0 in
  for i = 0 to t.dim - 1 do
    let lane = i land last in
    let v = Array.unsafe_get t.cur (base + i) lsl (width * lane) in
    w := if lane = 0 then v else !w lor v;
    Array1.unsafe_set buf (o + (i lsr s)) !w
  done;
  t.len <- h + n;
  t.words <- t.words + n;
  h

(* Both readers walk the row in entry order: the first lane of each word
   loads it, later lanes shift the previous entry out. *)

let to_array t h =
  let buf = chunk_of t h and o = (h land chunk_mask) + 1 in
  let s = Array1.unsafe_get buf (o - 1) in
  let width = 63 lsr s and last = (1 lsl s) - 1 and mask = Array.unsafe_get lane_max s in
  let a = Array.make t.dim 0 in
  let x = ref 0 in
  for i = 0 to t.dim - 1 do
    x := if i land last = 0 then Array1.unsafe_get buf (o + (i lsr s)) else !x lsr width;
    Array.unsafe_set a i (!x land mask)
  done;
  a

(* Pointwise max of a snapshot into a live row. *)
let merge_into t ~trace h =
  let buf = chunk_of t h and o = (h land chunk_mask) + 1 in
  let s = Array1.unsafe_get buf (o - 1) in
  let width = 63 lsr s and last = (1 lsl s) - 1 and mask = Array.unsafe_get lane_max s in
  let base = trace * t.dim in
  let x = ref 0 in
  for i = 0 to t.dim - 1 do
    x := if i land last = 0 then Array1.unsafe_get buf (o + (i lsr s)) else !x lsr width;
    let v = !x land mask in
    if v > Array.unsafe_get t.cur (base + i) then Array.unsafe_set t.cur (base + i) v
  done
