type t = {
  out : Netlist.t;
  hash : (Netlist.kind * int list, int) Hashtbl.t;
}

let create () = { out = Netlist.create (); hash = Hashtbl.create 256 }
let netlist t = t.out

let input t ?name () = Netlist.add t.out ?name Netlist.Input [||]
let output t ?name driver = ignore (Netlist.add t.out ?name Netlist.Output [| driver |])

let hashed t kind fanins =
  let key_fanins =
    if Netlist.commutative kind then List.sort Int.compare fanins else fanins
  in
  match Hashtbl.find_opt t.hash (kind, key_fanins) with
  | Some id -> id
  | None ->
      let id = Netlist.add t.out kind (Array.of_list fanins) in
      Hashtbl.replace t.hash (kind, key_fanins) id;
      id

let const t b = hashed t (Netlist.Const b) []

let is_const t id =
  match Netlist.kind t.out id with Netlist.Const b -> Some b | _ -> None

let not_ t a =
  match Netlist.kind t.out a with
  | Netlist.Not -> (Netlist.fanins t.out a).(0)
  | Netlist.Const b -> const t (not b)
  | _ -> hashed t Netlist.Not [ a ]

(* a and b are provably complementary signals *)
let complements t a b =
  (Netlist.kind t.out a = Netlist.Not && (Netlist.fanins t.out a).(0) = b)
  || (Netlist.kind t.out b = Netlist.Not && (Netlist.fanins t.out b).(0) = a)

(* the node for [x -> g x] over the signal [s] *)
let unary t g s =
  match (g false, g true) with
  | false, true -> s
  | true, false -> not_ t s
  | k, _ -> const t k

(* all six kinds are commutative, so one rule folds them: a constant
   operand [k] leaves [f(k, .)], equal operands [f(x, x)], and
   complementary ones the constant [f(0, 1)] *)
let gate2 t kind a b =
  let f =
    match kind with
    | Netlist.And -> ( && )
    | Netlist.Or -> ( || )
    | Netlist.Nand -> fun x y -> not (x && y)
    | Netlist.Nor -> fun x y -> not (x || y)
    | Netlist.Xor -> fun x y -> not (Bool.equal x y)
    | Netlist.Xnor -> Bool.equal
    | k -> invalid_arg ("Builder.gate2: " ^ Netlist.kind_name k)
  in
  match (is_const t a, is_const t b) with
  | Some ka, Some kb -> const t (f ka kb)
  | Some k, None -> unary t (f k) b
  | None, Some k -> unary t (f k) a
  | None, None ->
      if a = b then unary t (fun x -> f x x) a
      else if complements t a b then const t (f false true)
      else hashed t kind [ a; b ]

let maj t a b c =
  (* duplicate / complementary operand collapses first *)
  if a = b then a
  else if a = c then a
  else if b = c then b
  else if complements t a b then c
  else if complements t a c then b
  else if complements t b c then a
  else
    let consts, sigs =
      List.partition_map
        (fun s ->
          match is_const t s with
          | Some k -> Either.Left k
          | None -> Either.Right s)
        [ a; b; c ]
    in
    match (consts, sigs) with
    | [], _ -> hashed t Netlist.Maj [ a; b; c ]
    | [ k ], [ x; y ] -> gate2 t (if k then Netlist.Or else Netlist.And) x y
    | [ k1; k2 ], [ x ] -> if k1 = k2 then const t k1 else x
    | [ k1; k2; k3 ], [] -> const t ((k1 && k2) || (k1 && k3) || (k2 && k3))
    | _ -> assert false

let instantiate t (impl : Maj_db.impl) leaf_ids =
  let n_leaves = Array.length leaf_ids in
  let gate_ids = Array.make (Array.length impl.Maj_db.gates) (-1) in
  let resolve = function
    | Maj_db.Cst b -> const t b
    | Maj_db.Var (k, neg) ->
        if k >= n_leaves then const t neg (* don't-care input *)
        else if neg then not_ t leaf_ids.(k)
        else leaf_ids.(k)
    | Maj_db.Gate (i, neg) ->
        if neg then not_ t gate_ids.(i) else gate_ids.(i)
  in
  Array.iteri
    (fun i (g : Maj_db.gate) ->
      gate_ids.(i) <- maj t (resolve g.Maj_db.a) (resolve g.Maj_db.b) (resolve g.Maj_db.c))
    impl.Maj_db.gates;
  resolve impl.Maj_db.out
