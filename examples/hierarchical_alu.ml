(* A hierarchical RTL design through the whole flow: a 4-bit
   ALU-slice built from submodules (ripple adder from full adders from
   half adders, plus a logic unit), selected by a one-hot op code.
   Demonstrates module instantiation in the Verilog frontend and full
   physical signoff of a multi-module design.

     dune exec examples/hierarchical_alu.exe *)

let rtl =
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

module ripple4(a, b, cin, s, cout);
  input [3:0] a;
  input [3:0] b;
  input cin;
  output [3:0] s;
  output cout;
  wire c0, c1, c2;
  full_adder fa0(a[0], b[0], cin, s[0], c0);
  full_adder fa1(a[1], b[1], c0, s[1], c1);
  full_adder fa2(a[2], b[2], c1, s[2], c2);
  full_adder fa3(a[3], b[3], c2, s[3], cout);
endmodule

module logic4(a, b, op_and, y);
  input [3:0] a;
  input [3:0] b;
  input op_and;
  output [3:0] y;
  // and when op_and, else or
  assign y = (a & b & {4{op_and}}) | ((a | b) & {4{~op_and}});
endmodule

module alu4(a, b, cin, op_arith, op_and, y, cout);
  input [3:0] a;
  input [3:0] b;
  input cin, op_arith, op_and;
  output [3:0] y;
  output cout;
  wire [3:0] sum;
  wire [3:0] lg;
  ripple4 adder(a, b, cin, sum, cout);
  logic4 lgu(a, b, op_and, lg);
  assign y = (sum & {4{op_arith}}) | (lg & {4{~op_arith}});
endmodule
|}

let bits_of w v = Array.init w (fun i -> (v lsr i) land 1 = 1)

let int_of bits =
  Array.to_list bits
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

let () =
  print_endline "Hierarchical ALU: five Verilog modules -> one AQFP chip";
  print_endline "-------------------------------------------------------";
  match Verilog.parse rtl |> Result.map (Flow.run ~gds_path:"alu4.gds") with
  | Error e ->
      Format.eprintf "flow failed: %s@." e;
      exit 1
  | Ok r ->
      Format.printf "%a@.@." Flow.pp_summary r;
      let nl = r.Flow.aqfp_netlist in
      (* exercise all three op modes against reference arithmetic *)
      let eval a b cin op_arith op_and =
        let inputs =
          Array.concat
            [ bits_of 4 a; bits_of 4 b; [| cin; op_arith; op_and |] ]
        in
        let outs = Sim.eval nl inputs in
        (int_of (Array.sub outs 0 4), outs.(4))
      in
      let check label got expect =
        Format.printf "  %-22s got %2d expect %2d %s@." label got expect
          (if got = expect then "ok" else "WRONG")
      in
      let sum, cout = eval 9 5 false true false in
      check "9 + 5 (arith)" sum ((9 + 5) land 15);
      Format.printf "  carry out: %b@." cout;
      let a_and, _ = eval 12 10 false false true in
      check "12 & 10 (logic/and)" a_and (12 land 10);
      let a_or, _ = eval 12 10 false false false in
      check "12 | 10 (logic/or)" a_or (12 lor 10);
      Format.printf "@.alu4.gds written; fmax for this placement: %.2f GHz@."
        (Sta.fmax_ghz r.Flow.problem)
