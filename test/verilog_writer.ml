(* Structural-Verilog writer: the round-trip oracle for {!Verilog.parse}.
   AOI gates are written as the standard gate primitives
   ([and]/[or]/[not]/...), which the parser reads back; AQFP cells
   (majority, splitters, constants) are written as named cell instances
   ([maj3 u7 (a, b, c, y);]), which the primitive-only parser does not
   read. Signal names use the node names where present and [n<id>]
   otherwise. *)

(* Verilog identifiers: letters, digits, _, $ and must not start with a
   digit. Node names from generators use brackets (bus bits), which we
   rewrite to underscores. *)
let sanitize name =
  let buf = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char buf c
      | '0' .. '9' ->
          if i = 0 then Buffer.add_char buf '_';
          Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let is_roundtrippable nl =
  let ok = ref true in
  Netlist.iter nl (fun nd ->
      match nd.Netlist.kind with
      | Netlist.Input | Netlist.Output | Netlist.Buf | Netlist.Not
      | Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor | Netlist.Xor
      | Netlist.Xnor ->
          ()
      | Netlist.Const _ | Netlist.Maj | Netlist.Splitter _ -> ok := false);
  !ok

let to_verilog ?(module_name = "superflow_netlist") nl =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* unique signal name per node *)
  let used = Hashtbl.create 64 in
  let names = Array.make (Netlist.size nl) "" in
  Netlist.iter nl (fun nd ->
      let base =
        match nd.Netlist.name with
        | Some s -> sanitize s
        | None -> Printf.sprintf "n%d" nd.Netlist.id
      in
      let name =
        if Hashtbl.mem used base then Printf.sprintf "%s_%d" base nd.Netlist.id
        else base
      in
      Hashtbl.replace used name ();
      names.(nd.Netlist.id) <- name);
  let inputs = Netlist.inputs nl and outputs = Netlist.outputs nl in
  let port_list =
    List.map (fun i -> names.(i)) inputs @ List.map (fun o -> names.(o)) outputs
  in
  add "// generated by superflow %s\n" "0.1.0";
  add "module %s(%s);\n" module_name (String.concat ", " port_list);
  List.iter (fun i -> add "  input %s;\n" names.(i)) inputs;
  List.iter (fun o -> add "  output %s;\n" names.(o)) outputs;
  (* internal wires *)
  Netlist.iter nl (fun nd ->
      match nd.Netlist.kind with
      | Netlist.Input | Netlist.Output -> ()
      | _ -> add "  wire %s;\n" names.(nd.Netlist.id));
  let arg k nd = names.((nd : Netlist.node).Netlist.fanins.(k)) in
  Netlist.iter nl (fun nd ->
      let y = names.(nd.Netlist.id) in
      let prim p =
        add "  %s g%d(%s, %s);\n" p nd.Netlist.id y
          (String.concat ", "
             (Array.to_list (Array.map (fun f -> names.(f)) nd.Netlist.fanins)))
      in
      match nd.Netlist.kind with
      | Netlist.Input -> ()
      | Netlist.Output ->
          add "  assign %s = %s;\n" y (arg 0 nd)
      | Netlist.Buf -> prim "buf"
      | Netlist.Not -> prim "not"
      | Netlist.And -> prim "and"
      | Netlist.Or -> prim "or"
      | Netlist.Nand -> prim "nand"
      | Netlist.Nor -> prim "nor"
      | Netlist.Xor -> prim "xor"
      | Netlist.Xnor -> prim "xnor"
      | Netlist.Const b ->
          add "  const%d u%d(%s); // AQFP constant cell\n" (if b then 1 else 0)
            nd.Netlist.id y
      | Netlist.Maj ->
          add "  maj3 u%d(%s, %s, %s, %s);\n" nd.Netlist.id (arg 0 nd) (arg 1 nd)
            (arg 2 nd) y
      | Netlist.Splitter k ->
          add "  spl%d u%d(%s, %s); // fan-out splitter\n" k nd.Netlist.id
            (arg 0 nd) y);
  add "endmodule\n";
  Buffer.contents buf
