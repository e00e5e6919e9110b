type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set: index out of bounds";
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let new_cap = if cap = 0 then 8 else cap * 2 in
  let data = Array.make new_cap x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let last v = if v.len = 0 then None else Some v.data.(v.len - 1)

let replace_last v x =
  if v.len = 0 then invalid_arg "Vec.replace_last: empty";
  v.data.(v.len - 1) <- x

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    Some v.data.(v.len)
  end

let clear v =
  v.data <- [||];
  v.len <- 0

let reset v = v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate: length out of range";
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []

let to_array v = Array.sub v.data 0 v.len

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let binary_search_first v p =
  (* invariant: p is false on [0, lo) and true on [hi, len) *)
  let rec loop lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if p v.data.(mid) then loop lo mid else loop (mid + 1) hi
  in
  loop 0 v.len
