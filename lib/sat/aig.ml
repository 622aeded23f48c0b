(* Structurally-hashed AIG. Literal = 2*node + complement; node 0 is
   the constant-false node, nodes 1..n_inputs the primary inputs, the
   rest two-input ANDs. *)

type t = {
  n_inputs : int;
  fanin0 : int Vec.t; (* per AND node id, left operand literal *)
  fanin1 : int Vec.t;
  first_and : int; (* id of the first AND node = n_inputs + 1 *)
  strash : (int * int, int) Hashtbl.t;
}

let false_lit = 0
let true_lit = 1
let neg l = l lxor 1

let create ~n_inputs =
  {
    n_inputs;
    fanin0 = Vec.create ();
    fanin1 = Vec.create ();
    first_and = n_inputs + 1;
    strash = Hashtbl.create 64;
  }

let n_nodes t = t.first_and + Vec.length t.fanin0

let input_lit t i =
  if i < 0 || i >= t.n_inputs then invalid_arg "Aig.input_lit";
  2 * (i + 1)

let mk_and t a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = false_lit then false_lit
  else if a = true_lit then b
  else if a = b then a
  else if a = neg b then false_lit
  else
    match Hashtbl.find_opt t.strash (a, b) with
    | Some id -> 2 * id
    | None ->
      let id = t.first_and + Vec.length t.fanin0 in
      ignore (Vec.push t.fanin0 a);
      ignore (Vec.push t.fanin1 b);
      Hashtbl.add t.strash (a, b) id;
      2 * id

let mk_or t a b = neg (mk_and t (neg a) (neg b))
let mk_xor t a b = mk_or t (mk_and t a (neg b)) (mk_and t (neg a) b)

let mk_maj t a b c =
  mk_or t (mk_or t (mk_and t a b) (mk_and t a c)) (mk_and t b c)

let add_netlist t nl =
  let ins = Netlist.inputs nl in
  if List.length ins <> t.n_inputs then
    invalid_arg "Aig.add_netlist: input count mismatch";
  let lits = Array.make (Netlist.size nl) false_lit in
  List.iteri (fun i id -> lits.(id) <- input_lit t i) ins;
  let order = Netlist.topo_order nl in
  Array.iter
    (fun id ->
      let f k = lits.((Netlist.fanins nl id).(k)) in
      let l =
        match Netlist.kind nl id with
        | Netlist.Input -> lits.(id)
        | Netlist.Const b -> if b then true_lit else false_lit
        | Netlist.Output | Netlist.Buf | Netlist.Splitter _ -> f 0
        | Netlist.Not -> neg (f 0)
        | Netlist.And -> mk_and t (f 0) (f 1)
        | Netlist.Or -> mk_or t (f 0) (f 1)
        | Netlist.Nand -> neg (mk_and t (f 0) (f 1))
        | Netlist.Nor -> neg (mk_or t (f 0) (f 1))
        | Netlist.Xor -> mk_xor t (f 0) (f 1)
        | Netlist.Xnor -> neg (mk_xor t (f 0) (f 1))
        | Netlist.Maj -> mk_maj t (f 0) (f 1) (f 2)
      in
      lits.(id) <- l)
    order;
  lits

let lit_word vals l =
  let w = vals.(l lsr 1) in
  if l land 1 = 1 then Int64.lognot w else w

let sim t words =
  if Array.length words <> t.n_inputs then invalid_arg "Aig.sim";
  let vals = Array.make (n_nodes t) 0L in
  Array.blit words 0 vals 1 t.n_inputs;
  for k = 0 to Vec.length t.fanin0 - 1 do
    let a = lit_word vals (Vec.get t.fanin0 k) in
    let b = lit_word vals (Vec.get t.fanin1 k) in
    vals.(t.first_and + k) <- Int64.logand a b
  done;
  vals

let fanins t id =
  let k = id - t.first_and in
  if k < 0 || k >= Vec.length t.fanin0 then invalid_arg "Aig.fanins";
  (Vec.get t.fanin0 k, Vec.get t.fanin1 k)

(* Solver variable [v] is node [v], so an AIG literal is its own solver
   literal; nodes below [Solver.n_vars] are already encoded. *)
let encode t solver =
  for id = Solver.n_vars solver to n_nodes t - 1 do
    let v = Solver.new_var solver in
    assert (v = id);
    let n = Solver.lit_of_var v in
    if id = 0 then Solver.add_clause solver [ neg n ]
    else if id >= t.first_and then begin
      let a, b = fanins t id in
      Solver.add_clause solver [ neg n; a ];
      Solver.add_clause solver [ neg n; b ];
      Solver.add_clause solver [ n; neg a; neg b ]
    end
  done
