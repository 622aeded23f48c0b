type t = {
  cell_name : string;
  width : float;
  height : float;
  jj_count : int;
  in_pins : float array;
  out_pins : float array;
}

let buffer_like name jj =
  {
    cell_name = name;
    width = 40.0;
    height = 30.0;
    jj_count = jj;
    in_pins = [| 20.0 |];
    out_pins = [| 20.0 |];
  }

let gate2 name =
  {
    cell_name = name;
    width = 60.0;
    height = 70.0;
    jj_count = 6;
    in_pins = [| 20.0; 40.0 |];
    out_pins = [| 30.0 |];
  }

let maj3 =
  {
    cell_name = "maj3";
    width = 60.0;
    height = 70.0;
    jj_count = 6;
    in_pins = [| 10.0; 30.0; 50.0 |];
    out_pins = [| 30.0 |];
  }

let splitter k =
  if k < 2 || k > 3 then invalid_arg "Cell.splitter: arity must be 2..3";
  if k = 2 then
    {
      cell_name = "spl2";
      width = 40.0;
      height = 30.0;
      jj_count = 4;
      in_pins = [| 20.0 |];
      out_pins = [| 10.0; 30.0 |];
    }
  else
    {
      cell_name = "spl3";
      width = 60.0;
      height = 30.0;
      jj_count = 6;
      in_pins = [| 30.0 |];
      out_pins = [| 10.0; 30.0; 50.0 |];
    }

let of_kind = function
  | Netlist.Input -> buffer_like "inport" 2
  | Netlist.Output -> buffer_like "outport" 0
  | Netlist.Const _ -> buffer_like "const" 2
  | Netlist.Buf -> buffer_like "buf" 2
  | Netlist.Not -> buffer_like "not" 2
  | Netlist.And -> gate2 "and2"
  | Netlist.Or -> gate2 "or2"
  | Netlist.Nand -> gate2 "nand2"
  | Netlist.Nor -> gate2 "nor2"
  | Netlist.Xor -> gate2 "xor2"
  | Netlist.Xnor -> gate2 "xnor2"
  | Netlist.Maj -> maj3
  | Netlist.Splitter k -> splitter k

let jj_of_kind k = (of_kind k).jj_count

let max_splitter_outputs = 3

let netlist_jj_count nl =
  Netlist.fold nl
    (fun acc nd ->
      match nd.Netlist.kind with
      | Netlist.Output -> acc
      | k -> acc + jj_of_kind k)
    0
