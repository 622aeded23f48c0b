(* Quickstart: take a small RTL design from Verilog source all the way
   to a DRC-clean AQFP GDSII layout.

     dune exec examples/quickstart.exe *)

let verilog_source =
  {|
// A 4-bit equality comparator with an enable pin.
module eq4(a, b, en, eq);
  input [3:0] a;
  input [3:0] b;
  input en;
  output eq;
  wire [3:0] x;
  assign x = a ^ b;
  assign eq = en & ~(x[0] | x[1] | x[2] | x[3]);
endmodule
|}

let () =
  print_endline "SuperFlow quickstart: eq4.v -> eq4.gds";
  print_endline "--------------------------------------";
  match
    Verilog.parse verilog_source |> Result.map (Flow.run ~gds_path:"eq4.gds")
  with
  | Error e ->
      Format.eprintf "flow failed: %s@." e;
      exit 1
  | Ok r ->
      Format.printf "%a@.@." Flow.pp_summary r;
      (* show that the silicon still computes the RTL function *)
      let nl = r.Flow.aqfp_netlist in
      let check a b en =
        let bit v k = (v lsr k) land 1 = 1 in
        let inputs =
          Array.init 9 (fun i ->
              if i < 4 then bit a i else if i < 8 then bit b (i - 4) else en)
        in
        let eq = (Sim.eval nl inputs).(0) in
        Format.printf "  eq4(a=%d, b=%d, en=%b) = %b@." a b en eq
      in
      check 5 5 true;
      check 5 7 true;
      check 9 9 false;
      Format.printf "@.Layout written to eq4.gds (%d cells, %d wires).@."
        (Array.length r.Flow.layout.Layout.cells)
        (Array.length r.Flow.layout.Layout.wires)
