open Ocep_base

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check "same stream" true (Prng.bits64 a = Prng.bits64 b)
  done

let prng_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check "streams differ" true (!same < 4)

let prng_int_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    check "in bounds" true (v >= 0 && v < 17)
  done

let prng_split_independent () =
  let p = Prng.create 9 in
  let q = Prng.split p in
  check "split differs from parent" true (Prng.bits64 p <> Prng.bits64 q)

let prng_bernoulli_rate () =
  let p = Prng.create 3 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli p 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate near 0.25" true (rate > 0.22 && rate < 0.28)

let prng_shuffle_permutation () =
  let p = Prng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check "is a permutation" true (sorted = Array.init 50 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let vec_basics () =
  let v = Vec.create () in
  check_int "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 37 (Vec.get v 37);
  Vec.set v 37 1000;
  check_int "set" 1000 (Vec.get v 37);
  check "last" true (Vec.last v = Some 99);
  Vec.replace_last v 7;
  check "replace_last" true (Vec.last v = Some 7);
  check "pop" true (Vec.pop v = Some 7);
  check_int "after pop" 99 (Vec.length v);
  check "to_list round trip" true (Vec.to_list v = Array.to_list (Vec.to_array v))

let vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 3))

let vec_binary_search () =
  let v = Vec.of_list [ 1; 3; 5; 7; 9 ] in
  check_int "first >= 5" 2 (Vec.binary_search_first v (fun x -> x >= 5));
  check_int "first >= 0" 0 (Vec.binary_search_first v (fun x -> x >= 0));
  check_int "first >= 100" 5 (Vec.binary_search_first v (fun x -> x >= 100));
  check_int "first > 7" 4 (Vec.binary_search_first v (fun x -> x > 7))

let vec_binary_search_prop =
  QCheck.Test.make ~name:"binary_search_first agrees with linear" ~count:500
    QCheck.(pair (small_list small_int) small_int)
    (fun (l, threshold) ->
      let l = List.sort compare l in
      let v = Vec.of_list l in
      let expected =
        let rec loop i = function
          | [] -> i
          | x :: rest -> if x >= threshold then i else loop (i + 1) rest
        in
        loop 0 l
      in
      Vec.binary_search_first v (fun x -> x >= threshold) = expected)

(* ------------------------------------------------------------------ *)
(* Vclock                                                              *)
(* ------------------------------------------------------------------ *)

let vclock_basics () =
  let v = Vclock.make ~dim:3 in
  check_int "zero" 0 (Vclock.get v 1);
  let v1 = Vclock.tick v ~trace:1 in
  check_int "ticked" 1 (Vclock.get v1 1);
  check_int "others zero" 0 (Vclock.get v1 0);
  let a = Vclock.of_array [| 1; 5; 2 |] and b = Vclock.of_array [| 3; 0; 2 |] in
  let m = Vclock.merge a b in
  check "merge is lub" true (Vclock.to_array m = [| 3; 5; 2 |]);
  check "leq refl" true (Vclock.leq a a);
  check "leq merge" true (Vclock.leq a m && Vclock.leq b m);
  check "not leq" false (Vclock.leq m a)

let vclock_tick_merge () =
  let cur = Vclock.of_array [| 2; 0; 0 |] in
  let incoming = Vclock.of_array [| 1; 4; 0 |] in
  let r = Vclock.tick_merge cur incoming ~trace:0 in
  check "tick_merge" true (Vclock.to_array r = [| 3; 4; 0 |])

let vclock_merge_lub_prop =
  QCheck.Test.make ~name:"merge is the least upper bound" ~count:500
    QCheck.(pair (array_of_size (QCheck.Gen.return 4) (int_bound 10)) (array_of_size (QCheck.Gen.return 4) (int_bound 10)))
    (fun (a, b) ->
      let va = Vclock.of_array a and vb = Vclock.of_array b in
      let m = Vclock.merge va vb in
      Vclock.leq va m && Vclock.leq vb m
      && Array.for_all2 (fun x y -> max x y >= 0 && Vclock.get m 0 >= 0 && x <= max x y && y <= max x y) a b
      && Vclock.to_array m = Array.map2 max a b)

let vclock_dim_mismatch () =
  let a = Vclock.make ~dim:2 and b = Vclock.make ~dim:3 in
  Alcotest.check_raises "merge" (Invalid_argument "Vclock.merge: dimension mismatch") (fun () ->
      ignore (Vclock.merge a b));
  Alcotest.check_raises "leq" (Invalid_argument "Vclock.leq: dimension mismatch") (fun () ->
      ignore (Vclock.leq a b))

let prng_errors () =
  let p = Prng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int p 0));
  Alcotest.check_raises "pick empty" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick p [||]))

let prng_copy_independent () =
  let a = Prng.create 5 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  let va = Prng.bits64 a and vb = Prng.bits64 b in
  check "copies continue identically" true (va = vb)

(* ------------------------------------------------------------------ *)
(* Symbol                                                              *)
(* ------------------------------------------------------------------ *)

let symbol_basics () =
  let t = Symbol.create () in
  check_int "empty" 0 (Symbol.size t);
  let a = Symbol.intern t "alpha" in
  let b = Symbol.intern t "beta" in
  check_int "dense ids" 0 a;
  check_int "dense ids" 1 b;
  check_int "size" 2 (Symbol.size t);
  check_int "intern is idempotent" a (Symbol.intern t "alpha");
  check_int "size unchanged by re-intern" 2 (Symbol.size t);
  check "roundtrip" true (Symbol.name t a = "alpha" && Symbol.name t b = "beta");
  check "lookup known" true (Symbol.lookup t "beta" = Some b);
  check "lookup unknown" true (Symbol.lookup t "gamma" = None);
  check "empty string is a valid symbol" true (Symbol.name t (Symbol.intern t "") = "")

let symbol_errors () =
  let t = Symbol.create () in
  ignore (Symbol.intern t "x");
  Alcotest.check_raises "name of unknown id" (Invalid_argument "Symbol.name: unknown id 1")
    (fun () -> ignore (Symbol.name t 1));
  Alcotest.check_raises "negative id" (Invalid_argument "Symbol.name: unknown id -1") (fun () ->
      ignore (Symbol.name t (-1)))

let symbol_roundtrip_prop =
  QCheck.Test.make ~name:"intern/name roundtrip over random strings" ~count:200
    QCheck.(small_list (string_of_size (QCheck.Gen.int_bound 8)))
    (fun strings ->
      let t = Symbol.create () in
      let ids = List.map (Symbol.intern t) strings in
      (* same string -> same id; every id resolves back to its string *)
      List.for_all2
        (fun s id -> Symbol.name t id = s && Symbol.intern t s = id)
        strings ids
      && Symbol.size t = List.length (List.sort_uniq compare strings))

let () =
  Alcotest.run "base"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick prng_different_seeds;
          Alcotest.test_case "int bounds" `Quick prng_int_bounds;
          Alcotest.test_case "split independent" `Quick prng_split_independent;
          Alcotest.test_case "bernoulli rate" `Quick prng_bernoulli_rate;
          Alcotest.test_case "shuffle permutation" `Quick prng_shuffle_permutation;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick vec_basics;
          Alcotest.test_case "bounds" `Quick vec_bounds;
          Alcotest.test_case "binary search" `Quick vec_binary_search;
          QCheck_alcotest.to_alcotest vec_binary_search_prop;
        ] );
      ( "vclock",
        [
          Alcotest.test_case "basics" `Quick vclock_basics;
          Alcotest.test_case "tick_merge" `Quick vclock_tick_merge;
          Alcotest.test_case "dim mismatch" `Quick vclock_dim_mismatch;
          QCheck_alcotest.to_alcotest vclock_merge_lub_prop;
        ] );
      ( "symbol",
        [
          Alcotest.test_case "basics" `Quick symbol_basics;
          Alcotest.test_case "errors" `Quick symbol_errors;
          QCheck_alcotest.to_alcotest symbol_roundtrip_prop;
        ] );
      ( "errors",
        [
          Alcotest.test_case "prng errors" `Quick prng_errors;
          Alcotest.test_case "prng copy" `Quick prng_copy_independent;
        ] );
    ]
