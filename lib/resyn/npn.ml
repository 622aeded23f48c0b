type transform = { perm : int array; phase : int; out_neg : bool }

let identity = { perm = [| 0; 1; 2 |]; phase = 0; out_neg = false }

let perms =
  [|
    [| 0; 1; 2 |];
    [| 0; 2; 1 |];
    [| 1; 0; 2 |];
    [| 1; 2; 0 |];
    [| 2; 0; 1 |];
    [| 2; 1; 0 |];
  |]

let apply t f =
  let g = ref 0 in
  for y = 0 to 7 do
    let x = ref 0 in
    for j = 0 to 2 do
      let k = t.perm.(j) in
      x := !x lor ((((y lsr j) lxor (t.phase lsr k)) land 1) lsl k)
    done;
    if (f lsr !x) land 1 = 1 <> t.out_neg then g := !g lor (1 lsl y)
  done;
  !g

(* Smallest image over all 96 transforms; ties keep the first found. *)
let search f =
  let best = ref (f, identity) in
  Array.iter
    (fun perm ->
      for phase = 0 to 7 do
        List.iter
          (fun out_neg ->
            let t = { perm; phase; out_neg } in
            let g = apply t f in
            if g < fst !best then best := (g, t))
          [ false; true ]
      done)
    perms;
  !best

(* Built once at module initialisation and only read afterwards, so
   lookups are safe from any domain. *)
let table = Array.init 256 search

let canon f = table.(f land 255)

let map_operand t = function
  | Maj_db.Var (j, neg) ->
      let k = t.perm.(j) in
      Maj_db.Var (k, neg <> (t.phase land (1 lsl k) <> 0))
  | (Maj_db.Cst _ | Maj_db.Gate _) as op -> op

let negate_operand = function
  | Maj_db.Var (k, n) -> Maj_db.Var (k, not n)
  | Maj_db.Cst b -> Maj_db.Cst (not b)
  | Maj_db.Gate (i, n) -> Maj_db.Gate (i, not n)

let uncanon t (impl : Maj_db.impl) =
  let gates =
    Array.map
      (fun (g : Maj_db.gate) ->
        {
          Maj_db.a = map_operand t g.Maj_db.a;
          b = map_operand t g.Maj_db.b;
          c = map_operand t g.Maj_db.c;
        })
      impl.Maj_db.gates
  in
  let out = map_operand t impl.Maj_db.out in
  let out = if t.out_neg then negate_operand out else out in
  let impl' = { impl with Maj_db.gates; out } in
  { impl' with Maj_db.jj = Cost.impl_jj impl' }
