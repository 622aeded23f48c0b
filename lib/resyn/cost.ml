let maj_jj = Cell.jj_of_kind Netlist.Maj
let inverter_jj = Cell.jj_of_kind Netlist.Not
let const_cell_jj = Cell.jj_of_kind (Netlist.Const false)

let operand_inverters = function
  | Maj_db.Var (_, true) | Maj_db.Gate (_, true) -> 1
  | Maj_db.Var (_, false) | Maj_db.Gate (_, false) | Maj_db.Cst _ -> 0

let impl_jj (impl : Maj_db.impl) =
  let gates =
    Array.fold_left
      (fun acc (g : Maj_db.gate) ->
        acc + maj_jj
        + inverter_jj
          * (operand_inverters g.Maj_db.a + operand_inverters g.Maj_db.b
           + operand_inverters g.Maj_db.c))
      0 impl.Maj_db.gates
  in
  gates
  +
  match impl.Maj_db.out with
  | Maj_db.Cst _ -> const_cell_jj
  | Maj_db.Var (_, n) | Maj_db.Gate (_, n) -> if n then inverter_jj else 0
