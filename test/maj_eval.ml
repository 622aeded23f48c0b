(* Evaluates a {!Maj_db} implementation on concrete inputs: the oracle
   that checks the database against its truth tables. *)

let eval_operand gate_vals inputs = function
  | Maj_db.Var (k, neg) -> inputs.(k) <> neg
  | Maj_db.Cst b -> b
  | Maj_db.Gate (i, neg) -> gate_vals.(i) <> neg

let eval_impl impl inputs =
  let gate_vals = Array.make (Array.length impl.Maj_db.gates) false in
  Array.iteri
    (fun i g ->
      let va = eval_operand gate_vals inputs g.Maj_db.a in
      let vb = eval_operand gate_vals inputs g.b in
      let vc = eval_operand gate_vals inputs g.c in
      gate_vals.(i) <- (va && vb) || (va && vc) || (vb && vc))
    impl.gates;
  eval_operand gate_vals inputs impl.out
