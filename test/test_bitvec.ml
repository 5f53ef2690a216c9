(* Unit and property tests for Bitvec. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let test_create_zeroed () =
  let v = Bitvec.create 130 in
  check_int "length" 130 (Bitvec.length v);
  check_int "popcount" 0 (Bitvec.popcount v);
  check_bool "is_zero" true (Bitvec.is_zero v);
  for i = 0 to 129 do
    check_bool "bit clear" false (Bitvec.get v i)
  done

let test_create_empty () =
  let v = Bitvec.create 0 in
  check_int "length" 0 (Bitvec.length v);
  check_bool "is_zero" true (Bitvec.is_zero v)

let test_create_negative () =
  Alcotest.check_raises "negative length" (Invalid_argument "Bitvec.create: negative length")
    (fun () -> ignore (Bitvec.create (-1)))

let test_set_get () =
  let v = Bitvec.create 100 in
  Bitvec.set v 0 true;
  Bitvec.set v 63 true;
  Bitvec.set v 64 true;
  Bitvec.set v 99 true;
  check_bool "bit 0" true (Bitvec.get v 0);
  check_bool "bit 63" true (Bitvec.get v 63);
  check_bool "bit 64" true (Bitvec.get v 64);
  check_bool "bit 99" true (Bitvec.get v 99);
  check_bool "bit 1" false (Bitvec.get v 1);
  check_int "popcount" 4 (Bitvec.popcount v);
  Bitvec.set v 63 false;
  check_bool "cleared" false (Bitvec.get v 63);
  check_int "popcount after clear" 3 (Bitvec.popcount v)

let test_out_of_bounds () =
  let v = Bitvec.create 10 in
  Alcotest.check_raises "get oob" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v 10));
  Alcotest.check_raises "set oob" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> Bitvec.set v (-1) true)

let test_flip () =
  let v = Bitvec.create 5 in
  Bitvec.flip v 2;
  check_bool "flipped on" true (Bitvec.get v 2);
  Bitvec.flip v 2;
  check_bool "flipped off" false (Bitvec.get v 2)

let test_of_to_string () =
  let s = "011010001" in
  check_string "roundtrip" s (Bitvec.to_string (Bitvec.of_string s));
  check_string "empty" "" (Bitvec.to_string (Bitvec.of_string ""))

let test_of_string_invalid () =
  Alcotest.check_raises "bad char"
    (Invalid_argument "Bitvec.of_string: expected '0' or '1'") (fun () ->
      ignore (Bitvec.of_string "01x"))

let test_of_to_int () =
  check_int "13 roundtrip" 13 (Bitvec.to_int (Bitvec.of_int ~width:6 13));
  check_int "0" 0 (Bitvec.to_int (Bitvec.of_int ~width:6 0));
  check_int "max" 63 (Bitvec.to_int (Bitvec.of_int ~width:6 63));
  (* Bit i is (v lsr i) land 1: LSB first. *)
  let v = Bitvec.of_int ~width:4 0b0101 in
  check_bool "bit0" true (Bitvec.get v 0);
  check_bool "bit1" false (Bitvec.get v 1);
  check_bool "bit2" true (Bitvec.get v 2)

let test_ones () =
  let v = Bitvec.ones 70 in
  check_int "popcount" 70 (Bitvec.popcount v);
  check_bool "not zero" false (Bitvec.is_zero v);
  (* lognot of ones is zero: the spare bits of the last word must not leak. *)
  check_bool "lognot ones is zero" true (Bitvec.is_zero (Bitvec.lognot v))

let test_xor () =
  let a = Bitvec.of_string "1100" and b = Bitvec.of_string "1010" in
  check_string "xor" "0110" (Bitvec.to_string (Bitvec.xor a b));
  check_string "and" "1000" (Bitvec.to_string (Bitvec.logand a b));
  check_string "or" "1110" (Bitvec.to_string (Bitvec.logor a b));
  check_string "not" "0011" (Bitvec.to_string (Bitvec.lognot a))

let test_xor_inplace () =
  let a = Bitvec.of_string "1100" and b = Bitvec.of_string "1010" in
  Bitvec.xor_inplace a b;
  check_string "in place" "0110" (Bitvec.to_string a);
  check_string "src untouched" "1010" (Bitvec.to_string b)

let test_length_mismatch () =
  let a = Bitvec.create 4 and b = Bitvec.create 5 in
  Alcotest.check_raises "xor mismatch" (Invalid_argument "Bitvec.xor: length mismatch")
    (fun () -> ignore (Bitvec.xor a b))

let test_dot () =
  let a = Bitvec.of_string "110" and b = Bitvec.of_string "011" in
  (* overlap = position 1 only -> parity 1 *)
  check_bool "dot odd" true (Bitvec.dot a b);
  let c = Bitvec.of_string "111" in
  check_bool "dot even" false (Bitvec.dot a c)

let test_equal_compare () =
  let a = Bitvec.of_string "10101" in
  let b = Bitvec.of_string "10101" in
  let c = Bitvec.of_string "10100" in
  check_bool "equal" true (Bitvec.equal a b);
  check_bool "not equal" false (Bitvec.equal a c);
  check_bool "compare 0" true (Bitvec.compare a b = 0);
  check_bool "compare diff lens" true (Bitvec.compare a (Bitvec.create 3) <> 0)

let test_sub_concat () =
  let v = Bitvec.of_string "11010011" in
  check_string "sub" "0100" (Bitvec.to_string (Bitvec.sub v ~pos:2 ~len:4));
  let a = Bitvec.of_string "110" and b = Bitvec.of_string "01" in
  check_string "concat" "11001" (Bitvec.to_string (Bitvec.concat a b))

let test_blit () =
  let src = Bitvec.of_string "1111" in
  let dst = Bitvec.create 8 in
  Bitvec.blit ~src ~src_pos:0 ~dst ~dst_pos:2 ~len:4;
  check_string "blit" "00111100" (Bitvec.to_string dst)

let test_iter_set () =
  let v = Bitvec.of_string "0110001" in
  Alcotest.(check (list int)) "indices" [ 1; 2; 6 ] (Bitvec.indices_set v);
  let v2 = Bitvec.create 200 in
  Bitvec.set v2 0 true;
  Bitvec.set v2 64 true;
  Bitvec.set v2 127 true;
  Bitvec.set v2 199 true;
  Alcotest.(check (list int)) "across words" [ 0; 64; 127; 199 ] (Bitvec.indices_set v2)

let test_restrict_ones () =
  let v = Bitvec.of_string "1011" in
  check_bool "all set" true (Bitvec.restrict_ones v [ 0; 2; 3 ]);
  check_bool "not all set" false (Bitvec.restrict_ones v [ 0; 1 ]);
  check_bool "empty list" true (Bitvec.restrict_ones v [])

let test_map_fold () =
  let v = Bitvec.of_string "101" in
  check_string "map not" "010" (Bitvec.to_string (Bitvec.map not v));
  let count = Bitvec.fold_left (fun acc b -> if b then acc + 1 else acc) 0 v in
  check_int "fold count" 2 count

let test_bool_array_roundtrip () =
  let a = [| true; false; true; true |] in
  Alcotest.(check (array bool)) "roundtrip" a
    (Bitvec.to_bool_array (Bitvec.of_bool_array a))

(* --- qcheck properties --- *)

let gen_bits = QCheck.(list_of_size (Gen.int_range 1 150) bool)

let prop_xor_involution =
  QCheck.Test.make ~name:"xor is an involution" ~count:200 gen_bits (fun bits ->
      let a = Bitvec.of_bool_array (Array.of_list bits) in
      let b =
        Bitvec.init (Bitvec.length a) (fun i -> (i * 7 mod 3) = 0)
      in
      Bitvec.equal a (Bitvec.xor (Bitvec.xor a b) b))

let prop_popcount_via_fold =
  QCheck.Test.make ~name:"popcount agrees with fold" ~count:200 gen_bits (fun bits ->
      let v = Bitvec.of_bool_array (Array.of_list bits) in
      Bitvec.popcount v
      = Bitvec.fold_left (fun acc b -> if b then acc + 1 else acc) 0 v)

let prop_dot_symmetric =
  QCheck.Test.make ~name:"dot is symmetric" ~count:200 gen_bits (fun bits ->
      let a = Bitvec.of_bool_array (Array.of_list bits) in
      let b = Bitvec.init (Bitvec.length a) (fun i -> i mod 2 = 0) in
      Bitvec.dot a b = Bitvec.dot b a)

let prop_dot_linear =
  QCheck.Test.make ~name:"dot is linear in xor" ~count:200 gen_bits (fun bits ->
      let a = Bitvec.of_bool_array (Array.of_list bits) in
      let n = Bitvec.length a in
      let b = Bitvec.init n (fun i -> i mod 3 = 1) in
      let c = Bitvec.init n (fun i -> i mod 5 = 2) in
      Bitvec.dot a (Bitvec.xor b c) = (Bitvec.dot a b <> Bitvec.dot a c))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:200 gen_bits (fun bits ->
      let v = Bitvec.of_bool_array (Array.of_list bits) in
      Bitvec.equal v (Bitvec.of_string (Bitvec.to_string v)))

let prop_concat_length =
  QCheck.Test.make ~name:"concat length and content" ~count:200
    QCheck.(pair gen_bits gen_bits)
    (fun (x, y) ->
      let a = Bitvec.of_bool_array (Array.of_list x) in
      let b = Bitvec.of_bool_array (Array.of_list y) in
      let c = Bitvec.concat a b in
      Bitvec.length c = Bitvec.length a + Bitvec.length b
      && Bitvec.equal a (Bitvec.sub c ~pos:0 ~len:(Bitvec.length a))
      && Bitvec.equal b (Bitvec.sub c ~pos:(Bitvec.length a) ~len:(Bitvec.length b)))

let prop_demorgan =
  QCheck.Test.make ~name:"De Morgan on bit vectors" ~count:200 gen_bits (fun bits ->
      let a = Bitvec.of_bool_array (Array.of_list bits) in
      let b = Bitvec.init (Bitvec.length a) (fun i -> i mod 2 = 1) in
      Bitvec.equal
        (Bitvec.lognot (Bitvec.logand a b))
        (Bitvec.logor (Bitvec.lognot a) (Bitvec.lognot b)))

let () =
  Alcotest.run "bitvec"
    [
      ( "unit",
        [
          Alcotest.test_case "create zeroed" `Quick test_create_zeroed;
          Alcotest.test_case "create empty" `Quick test_create_empty;
          Alcotest.test_case "create negative" `Quick test_create_negative;
          Alcotest.test_case "set/get" `Quick test_set_get;
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "flip" `Quick test_flip;
          Alcotest.test_case "string roundtrip" `Quick test_of_to_string;
          Alcotest.test_case "string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "int roundtrip" `Quick test_of_to_int;
          Alcotest.test_case "ones + normalization" `Quick test_ones;
          Alcotest.test_case "xor/and/or/not" `Quick test_xor;
          Alcotest.test_case "xor_inplace" `Quick test_xor_inplace;
          Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
          Alcotest.test_case "dot product" `Quick test_dot;
          Alcotest.test_case "equal/compare" `Quick test_equal_compare;
          Alcotest.test_case "sub/concat" `Quick test_sub_concat;
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "iter_set across words" `Quick test_iter_set;
          Alcotest.test_case "restrict_ones" `Quick test_restrict_ones;
          Alcotest.test_case "map/fold" `Quick test_map_fold;
          Alcotest.test_case "bool array roundtrip" `Quick test_bool_array_roundtrip;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_xor_involution;
            prop_popcount_via_fold;
            prop_dot_symmetric;
            prop_dot_linear;
            prop_string_roundtrip;
            prop_concat_length;
            prop_demorgan;
          ] );
    ]
