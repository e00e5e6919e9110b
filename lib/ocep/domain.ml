open Ocep_base
module Compile = Ocep_pattern.Compile

type t = { lo : int array; hi : int array; mutable n : int }

let create ~capacity =
  let capacity = max 2 capacity in
  { lo = Array.make capacity 0; hi = Array.make capacity 0; n = 0 }

let capacity d = Array.length d.lo

let set_full d (v : History.entry Vec.t) =
  let len = Vec.length v in
  if len = 0 then d.n <- 0
  else begin
    Array.unsafe_set d.lo 0 0;
    Array.unsafe_set d.hi 0 (len - 1);
    d.n <- 1
  end

let is_empty d = d.n = 0

(* The scans below are top-level recursions rather than local ones: a
   local [let rec] capturing [d] and [x] would allocate a closure per
   call. *)
let rec mem_from d x i =
  i < d.n
  && x >= Array.unsafe_get d.lo i
  && (x <= Array.unsafe_get d.hi i || mem_from d x (i + 1))

let mem d x = mem_from d x 0

let max_elt d = if d.n = 0 then -1 else Array.unsafe_get d.hi (d.n - 1)

let rec below_from d x i =
  if i < 0 then -1
  else if Array.unsafe_get d.lo i > x then below_from d x (i - 1)
  else Int.min x (Array.unsafe_get d.hi i)

let next_below d x = below_from d x (d.n - 1)

let elements d =
  let acc = ref [] in
  for i = d.n - 1 downto 0 do
    for x = d.hi.(i) downto d.lo.(i) do
      acc := x :: !acc
    done
  done;
  !acc

let intervals d = List.init d.n (fun i -> (d.lo.(i), d.hi.(i)))

(* The two boundary searches below run once per restriction, so they
   are plain recursive functions over the vector's entries: a predicate
   closure handed to [Vec.binary_search_first] would be allocated on
   every call. Invariant for both: the predicate is false on [0, lo)
   and true on [hi, len). *)

(* first position whose event index exceeds [bound] *)
let rec first_index_above v bound lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if (Vec.get v mid).History.ev.Event.index > bound then first_index_above v bound lo mid
    else first_index_above v bound (mid + 1) hi

(* first position whose event has seen entry [trace] reach [bound] *)
let rec first_seeing v ~trace bound lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Vclock.get (Vec.get v mid).History.ev.Event.vc trace >= bound then
      first_seeing v ~trace bound lo mid
    else first_seeing v ~trace bound (mid + 1) hi

(* Largest position p such that hist[p].ev -> w, i.e. index <= GP(w, trace);
   -1 when none. On w's own trace the GP is simply index(w) - 1. *)
let gp_position v ~trace ~(w : Event.t) =
  let gp_index = if trace = w.trace then w.index - 1 else Vclock.get w.vc trace in
  first_index_above v gp_index 0 (Vec.length v) - 1

(* Smallest position p such that w -> hist[p].ev; length when none. Uses the
   monotone timestamp entry for w's trace. On w's own trace it is the first
   position with a larger index. *)
let ls_position v ~trace ~(w : Event.t) =
  if trace = w.trace then first_index_above v w.index 0 (Vec.length v)
  else first_seeing v ~trace:w.trace w.index 0 (Vec.length v)

(* Intersect [d] in place with [a1, b1] ∪ [a2, b2], where the first
   range lies wholly below the second with at least one position between
   them (either may be empty). Each interval of [d] yields at most one
   piece per range, and only the one interval that straddles the gap
   yields two, so the result has at most [n + 1] intervals. Writing the
   pieces right to left from slot [n] never overwrites an interval that
   is still to be read; the result is then moved down to slot 0. *)
let inter2 d a1 b1 a2 b2 =
  let lo = d.lo and hi = d.hi in
  let dst = ref d.n in
  for i = d.n - 1 downto 0 do
    let l = Array.unsafe_get lo i and h = Array.unsafe_get hi i in
    let l2 = Int.max l a2 and h2 = Int.min h b2 in
    if l2 <= h2 then begin
      Array.unsafe_set lo !dst l2;
      Array.unsafe_set hi !dst h2;
      decr dst
    end;
    let l1 = Int.max l a1 and h1 = Int.min h b1 in
    if l1 <= h1 then begin
      Array.unsafe_set lo !dst l1;
      Array.unsafe_set hi !dst h1;
      decr dst
    end
  done;
  let first = !dst + 1 in
  let m = d.n + 1 - first in
  for j = 0 to m - 1 do
    Array.unsafe_set lo j (Array.unsafe_get lo (first + j));
    Array.unsafe_set hi j (Array.unsafe_get hi (first + j))
  done;
  d.n <- m

let restrict d v ~trace ~(w : Event.t) (a : Compile.allowed) =
  if d.n > 0 then begin
    if d.n >= capacity d then invalid_arg "Domain.restrict: domain is at capacity";
    let last = Vec.length v - 1 in
    let gp = gp_position v ~trace ~w in
    let ls = ls_position v ~trace ~w in
    (* Fig. 4 pieces: [0, gp] before w, [gp+1, ls-1] concurrent with it,
       [ls, last] after it — a partition of the history. Same-trace
       events are totally ordered, never concurrent; on w's own trace
       the strict boundaries already exclude w itself. Adjacent allowed
       pieces merge, so the allowed set is at most two ranges with a
       non-empty gap between them. *)
    let conc = a.concurrent && trace <> w.trace in
    if a.before && a.after && (conc || ls = gp + 1) then () (* everything *)
    else if a.before && a.after then inter2 d 0 gp ls last
    else if a.before then inter2 d 0 (if conc then ls - 1 else gp) 1 0
    else if a.after then inter2 d (if conc then gp + 1 else ls) last 1 0
    else if conc then inter2 d (gp + 1) (ls - 1) 1 0
    else d.n <- 0
  end
