(* Tests for the Verilog-subset RTL frontend. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let parse_ok src =
  match Verilog.parse src with Ok nl -> nl | Error e -> Alcotest.fail e

let test_scalar_assign () =
  let nl =
    parse_ok
      {|
module m(a, b, c, y);
  input a, b, c;
  output y;
  assign y = (a & b) | ~c;
endmodule
|}
  in
  checki "inputs" 3 (List.length (Netlist.inputs nl));
  checki "outputs" 1 (List.length (Netlist.outputs nl));
  List.iter
    (fun (a, b, c) ->
      let r = Sim.eval nl [| a; b; c |] in
      checkb "function" ((a && b) || not c) r.(0))
    [ (false, false, false); (true, true, true); (true, false, true); (false, true, false) ]

let test_operator_precedence () =
  (* & binds tighter than ^ binds tighter than | *)
  let nl =
    parse_ok
      "module m(a,b,c,y); input a,b,c; output y; assign y = a | b & c; endmodule"
  in
  List.iter
    (fun (a, b, c) ->
      let r = Sim.eval nl [| a; b; c |] in
      checkb "precedence" (a || (b && c)) r.(0))
    [ (true, false, false); (false, true, false); (false, true, true) ]

let test_vectors_bitwise () =
  let nl =
    parse_ok
      {|
module m(a, b, y);
  input [3:0] a;
  input [3:0] b;
  output [3:0] y;
  assign y = a ^ b;
endmodule
|}
  in
  checki "inputs" 8 (List.length (Netlist.inputs nl));
  checki "outputs" 4 (List.length (Netlist.outputs nl));
  let r = Sim.eval nl [| true; false; true; false; true; true; false; false |] in
  (* a = 0101 (lsb first: a0=1,a1=0,a2=1,a3=0), b: b0=1,b1=1,b2=0,b3=0 *)
  Alcotest.(check (list bool)) "xor" [ false; true; true; false ] (Array.to_list r)

let test_bit_select () =
  let nl =
    parse_ok
      {|
module m(a, y);
  input [2:0] a;
  output y;
  assign y = a[0] & a[2];
endmodule
|}
  in
  let r = Sim.eval nl [| true; false; true |] in
  checkb "bit select" true r.(0);
  let r = Sim.eval nl [| true; true; false |] in
  checkb "bit select 2" false r.(0)

let test_wires_and_order_independence () =
  let nl =
    parse_ok
      {|
module m(a, b, y);
  input a, b;
  output y;
  wire t;
  assign y = t | b;
  assign t = a & b;
endmodule
|}
  in
  let r = Sim.eval nl [| true; true |] in
  checkb "wire" true r.(0)

let test_gate_primitives () =
  let nl =
    parse_ok
      {|
module m(a, b, c, y);
  input a, b, c;
  output y;
  wire t1, t2;
  and g1(t1, a, b, c);
  not g2(t2, c);
  or g3(y, t1, t2);
endmodule
|}
  in
  List.iter
    (fun (a, b, c) ->
      let r = Sim.eval nl [| a; b; c |] in
      checkb "primitives" ((a && b && c) || not c) r.(0))
    [ (true, true, true); (false, false, false); (true, true, false) ]

let test_literals () =
  let nl =
    parse_ok
      {|
module m(a, y, z);
  input a;
  output y, z;
  assign y = a & 1'b1;
  assign z = a ^ 1'b0;
endmodule
|}
  in
  let r = Sim.eval nl [| true |] in
  checkb "and true" true r.(0);
  checkb "xor false" true r.(1)

let test_vector_literal () =
  let nl =
    parse_ok
      {|
module m(a, y);
  input [3:0] a;
  output [3:0] y;
  assign y = a ^ 4'b1010;
endmodule
|}
  in
  (* 4'b1010 has msb-first digits 1,0,1,0 -> bit0=0 bit1=1 bit2=0 bit3=1 *)
  let r = Sim.eval nl [| false; false; false; false |] in
  Alcotest.(check (list bool)) "literal bits" [ false; true; false; true ] (Array.to_list r)

let test_concatenation () =
  let nl =
    parse_ok
      {|
module m(a, b, y);
  input [1:0] a;
  input [1:0] b;
  output [3:0] y;
  assign y = {a, b};
endmodule
|}
  in
  (* {a, b}: a is the MSB half, b the LSB half *)
  let r = Sim.eval nl [| true; false; false; true |] in
  (* a = 01 (a0=1,a1=0), b = 10 (b0=0,b1=1) -> y = a:b = 0110 -> bits y0=0,y1=1,y2=1,y3=0 *)
  Alcotest.(check (list bool)) "concat" [ false; true; true; false ] (Array.to_list r)

let test_replication () =
  let nl =
    parse_ok
      {|
module m(a, s, y);
  input [3:0] a;
  input s;
  output [3:0] y;
  assign y = a & {4{s}};
endmodule
|}
  in
  let r = Sim.eval nl [| true; false; true; true; true |] in
  Alcotest.(check (list bool)) "mask on" [ true; false; true; true ] (Array.to_list r);
  let r = Sim.eval nl [| true; false; true; true; false |] in
  Alcotest.(check (list bool)) "mask off" [ false; false; false; false ] (Array.to_list r)

let test_concat_mixed_elements () =
  let nl =
    parse_ok
      {|
module m(a, y);
  input [1:0] a;
  output [3:0] y;
  assign y = {1'b1, a[0], a};
endmodule
|}
  in
  (* concat parts MSB-first: 1'b1, a[0], a (widths 1,1,2); reading
     from the LSB side: y0=a0, y1=a1, y2=a[0], y3=1 *)
  let r = Sim.eval nl [| true; false |] in
  Alcotest.(check (list bool)) "mixed" [ true; false; true; true ] (Array.to_list r)

let test_comments () =
  let nl =
    parse_ok
      {|
// leading comment
module m(a, y); /* block
   comment */ input a;
  output y;
  assign y = ~a; // trailing
endmodule
|}
  in
  checkb "not" true (Sim.eval nl [| false |]).(0)

let expect_error src frag =
  match Verilog.parse src with
  | Ok _ -> Alcotest.fail ("expected failure mentioning " ^ frag)
  | Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
        loop 0
      in
      checkb ("error mentions " ^ frag ^ ": " ^ msg) true (contains msg frag)

let test_concat_width_mismatch () =
  expect_error
    "module m(a, y); input [1:0] a; output [2:0] y; assign y = {a, a}; endmodule"
    "concatenation"

let test_errors () =
  expect_error "module m(a, y); input a; output y; assign y = a + a; endmodule" "expected";
  expect_error "module m(a, y); input a; output y; always @(a) y = a; endmodule" "always";
  expect_error "module m(a, y); input a; output y; assign y = b; endmodule" "undeclared";
  expect_error "module m(a, y); input a; output y; endmodule" "never driven";
  expect_error
    "module m(a, y); input a; output y; assign y = t; wire t; assign t = y; endmodule"
    "cycle";
  expect_error
    "module m(a, y); input a; output y; assign y = a; assign y = ~a; endmodule"
    "multiple drivers";
  expect_error "module m(a, y); input a; output y; assign y = a" "expected"

let test_multibit_mismatch () =
  expect_error
    "module m(a, y); input [3:0] a; output y; assign y = a; endmodule"
    "scalar"

let test_matches_handbuilt_adder () =
  (* a 2-bit ripple adder in RTL vs the generator-built Kogge-Stone *)
  let nl =
    parse_ok
      {|
module add2(a, b, cin, s, cout);
  input [1:0] a;
  input [1:0] b;
  input cin;
  output [1:0] s;
  output cout;
  wire c1;
  assign s[0] = a[0] ^ b[0] ^ cin;
  assign c1 = (a[0] & b[0]) | (cin & (a[0] ^ b[0]));
  assign s[1] = a[1] ^ b[1] ^ c1;
  assign cout = (a[1] & b[1]) | (c1 & (a[1] ^ b[1]));
endmodule
|}
  in
  (* input order differs from the generator (a0,a1,b0,b1,cin here) so
     compare by direct evaluation. *)
  for v = 0 to 31 do
    let a0 = v land 1 = 1 and a1 = v land 2 = 2 in
    let b0 = v land 4 = 4 and b1 = v land 8 = 8 in
    let cin = v land 16 = 16 in
    let a = (if a0 then 1 else 0) + if a1 then 2 else 0 in
    let b = (if b0 then 1 else 0) + if b1 then 2 else 0 in
    let expect_sum, expect_cout = Circuits.Reference.add 2 a b cin in
    let r = Sim.eval nl [| a0; a1; b0; b1; cin |] in
    let sum = (if r.(0) then 1 else 0) + if r.(1) then 2 else 0 in
    checki "rtl adder sum" expect_sum sum;
    checkb "rtl adder cout" expect_cout r.(2)
  done

(* ---------- Hierarchy ---------- *)

let test_hierarchy_basic () =
  let nl =
    parse_ok
      {|
module half_adder(a, b, s, c);
  input a, b;
  output s, c;
  assign s = a ^ b;
  assign c = a & b;
endmodule

module full_adder(a, b, cin, s, cout);
  input a, b, cin;
  output s, cout;
  wire s1, c1, c2;
  half_adder ha1(a, b, s1, c1);
  half_adder ha2(s1, cin, s, c2);
  assign cout = c1 | c2;
endmodule
|}
  in
  checki "inputs" 3 (List.length (Netlist.inputs nl));
  checki "outputs" 2 (List.length (Netlist.outputs nl));
  for v = 0 to 7 do
    let a = v land 1 = 1 and b = v land 2 = 2 and cin = v land 4 = 4 in
    let r = Sim.eval nl [| a; b; cin |] in
    let total = (if a then 1 else 0) + (if b then 1 else 0) + if cin then 1 else 0 in
    checkb "sum" (total land 1 = 1) r.(0);
    checkb "carry" (total >= 2) r.(1)
  done

let test_hierarchy_vector_ports () =
  let nl =
    parse_ok
      {|
module inverter4(x, y);
  input [3:0] x;
  output [3:0] y;
  assign y = ~x;
endmodule

module top(a, z);
  input [3:0] a;
  output [3:0] z;
  wire [3:0] t;
  inverter4 u1(a, t);
  inverter4 u2(t, z);
endmodule
|}
  in
  let r = Sim.eval nl [| true; false; true; false |] in
  Alcotest.(check (list bool)) "double inversion"
    [ true; false; true; false ] (Array.to_list r)

let test_hierarchy_nested_two_levels () =
  let nl =
    parse_ok
      {|
module n1(a, y);
  input a; output y;
  assign y = ~a;
endmodule
module n2(a, y);
  input a; output y;
  wire t;
  n1 u(a, t);
  n1 v(t, y);
endmodule
module n3(a, y);
  input a; output y;
  wire t;
  n2 u(a, t);
  n1 w(t, y);
endmodule
|}
  in
  (* three inversions total *)
  checkb "three inversions of 1 is 0" false (Sim.eval nl [| true |]).(0);
  checkb "three inversions of 0 is 1" true (Sim.eval nl [| false |]).(0)

let test_hierarchy_errors () =
  expect_error
    "module top(a, y); input a; output y; nonexistent u(a, y); endmodule"
    "unknown module";
  expect_error
    {|
module sub(a, y); input a; output y; assign y = a; endmodule
module top(a, y); input a; output y; sub u(a); endmodule
|}
    "connects";
  expect_error
    {|
module sub(a, y); input [1:0] a; output y; assign y = a[0]; endmodule
module top(a, y); input a; output y; sub u(a, y); endmodule
|}
    "bits";
  (* recursive instantiation is caught *)
  expect_error
    {|
module loop(a, y); input a; output y; wire t; loop u(a, t); assign y = t; endmodule
|}
    "deep"

(* ---------- Verilog writer ---------- *)

let test_writer_roundtrip_aoi () =
  let nl = Circuits.kogge_stone_adder 4 in
  checkb "adder is roundtrippable" true (Verilog_writer.is_roundtrippable nl);
  let text = Verilog_writer.to_verilog nl in
  match Verilog.parse text with
  | Error e -> Alcotest.fail e
  | Ok nl2 ->
      checki "inputs" (List.length (Netlist.inputs nl)) (List.length (Netlist.inputs nl2));
      checki "outputs" (List.length (Netlist.outputs nl)) (List.length (Netlist.outputs nl2));
      checkb "equivalent" true (Sim.equivalent nl nl2)

let test_writer_roundtrip_random () =
  for seed = 1 to 10 do
    let nl = Circuits.iscas_like ~seed ~pi:6 ~po:3 ~gates:25 ~depth:5 in
    let text = Verilog_writer.to_verilog nl in
    match Verilog.parse text with
    | Error e -> Alcotest.fail e
    | Ok nl2 -> checkb "equivalent" true (Sim.equivalent nl nl2)
  done

let test_writer_aqfp_cells () =
  let aqfp = Synth_flow.run_quiet (Circuits.kogge_stone_adder 2) in
  checkb "aqfp not primitive-only" false (Verilog_writer.is_roundtrippable aqfp);
  let text = Verilog_writer.to_verilog ~module_name:"adder2_aqfp" aqfp in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
    loop 0
  in
  checkb "module name" true (contains text "module adder2_aqfp");
  checkb "maj cells" true (contains text "maj3 ");
  checkb "splitters" true (contains text "spl");
  checkb "ends" true (contains text "endmodule")

let test_writer_sanitizes_names () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a[0]" Netlist.Input [||] in
  let y = Netlist.add nl Netlist.Not [| a |] in
  ignore (Netlist.add nl ~name:"y[0]" Netlist.Output [| y |]);
  let text = Verilog_writer.to_verilog nl in
  match Verilog.parse text with
  | Error e -> Alcotest.fail e
  | Ok nl2 -> checkb "equivalent" true (Sim.equivalent nl nl2)

(* Both file front ends return [Error] (never raise) on a path they
   cannot read, and name the path once in every error. *)
let test_parse_file_errors () =
  let missing = Filename.temp_file "superflow" "" in
  Sys.remove missing;
  let occurrences sub s =
    let n = String.length s and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc
      else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
    in
    go 0 0
  in
  let expect_error path = function
    | Ok _ -> Alcotest.failf "%s: accepted" path
    | Error msg -> checki (path ^ " named once") 1 (occurrences path msg)
  in
  expect_error (missing ^ ".v") (Verilog.parse_file (missing ^ ".v"));
  expect_error (missing ^ ".bench") (Bench_parser.parse_file (missing ^ ".bench"));
  let bad = Filename.temp_file "superflow" ".v" in
  Out_channel.with_open_text bad (fun oc -> output_string oc "module m(\n");
  (match Verilog.parse_file bad with
  | Ok _ -> Alcotest.fail "bad .v accepted"
  | Error msg ->
      checkb "parse error names the path" true
        (String.starts_with ~prefix:(bad ^ ": ") msg));
  Sys.remove bad

let () =
  Alcotest.run "sf_rtl"
    [
      ( "verilog",
        [
          Alcotest.test_case "scalar assign" `Quick test_scalar_assign;
          Alcotest.test_case "precedence" `Quick test_operator_precedence;
          Alcotest.test_case "vectors" `Quick test_vectors_bitwise;
          Alcotest.test_case "bit select" `Quick test_bit_select;
          Alcotest.test_case "wires/order" `Quick test_wires_and_order_independence;
          Alcotest.test_case "gate primitives" `Quick test_gate_primitives;
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "vector literal" `Quick test_vector_literal;
          Alcotest.test_case "concatenation" `Quick test_concatenation;
          Alcotest.test_case "replication" `Quick test_replication;
          Alcotest.test_case "concat mixed" `Quick test_concat_mixed_elements;
          Alcotest.test_case "concat width" `Quick test_concat_width_mismatch;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "width mismatch" `Quick test_multibit_mismatch;
          Alcotest.test_case "rtl adder" `Quick test_matches_handbuilt_adder;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "full adder from half adders" `Quick test_hierarchy_basic;
          Alcotest.test_case "vector ports" `Quick test_hierarchy_vector_ports;
          Alcotest.test_case "nested" `Quick test_hierarchy_nested_two_levels;
          Alcotest.test_case "errors" `Quick test_hierarchy_errors;
        ] );
      ( "writer",
        [
          Alcotest.test_case "roundtrip aoi" `Quick test_writer_roundtrip_aoi;
          Alcotest.test_case "roundtrip random" `Quick test_writer_roundtrip_random;
          Alcotest.test_case "aqfp cells" `Quick test_writer_aqfp_cells;
          Alcotest.test_case "sanitized names" `Quick test_writer_sanitizes_names;
          Alcotest.test_case "parse_file errors" `Quick test_parse_file_errors;
        ] );
    ]
