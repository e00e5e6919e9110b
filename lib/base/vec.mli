(** Growable array (OCaml 5.1 predates [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val last : 'a t -> 'a option
val replace_last : 'a t -> 'a -> unit
(** Overwrite the last element; raises [Invalid_argument] if empty. *)

val pop : 'a t -> 'a option

val clear : 'a t -> unit
(** Empty the vector and drop its backing array. *)

val reset : 'a t -> unit
(** Empty the vector but keep its capacity, so refilling it allocates
    nothing until it outgrows the old length. The dropped elements stay
    reachable from the backing array until overwritten. *)

val truncate : 'a t -> int -> unit
(** [truncate v n] keeps the first [n] elements (and the capacity).
    Raises [Invalid_argument] unless [0 <= n <= length v]. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t
val exists : ('a -> bool) -> 'a t -> bool

val binary_search_first : 'a t -> ('a -> bool) -> int
(** [binary_search_first v p] returns the smallest index [i] such that
    [p (get v i)] holds, or [length v] if none, assuming [p] is monotone
    (false then true) along the vector. *)
