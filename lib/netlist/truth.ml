type t = int

let num_vars_max = 6

(* For n = 6 the table needs 64 bits; OCaml ints have 63, so the n = 6
   mask saturates to all usable bits. The synthesis code only ever uses
   n <= 3; larger n serve simulation-style checks in tests. *)
let mask n =
  if n < 0 || n > num_vars_max then invalid_arg "Truth.mask";
  if n = num_vars_max then -1 else (1 lsl (1 lsl n)) - 1

let var k n =
  if k < 0 || k >= n then invalid_arg "Truth.var";
  let bits = 1 lsl n in
  let tt = ref 0 in
  for i = 0 to bits - 1 do
    if (i lsr k) land 1 = 1 then tt := !tt lor (1 lsl i)
  done;
  !tt

let const b n = if b then mask n else 0

let not_ n tt = lnot tt land mask n

let and_ = ( land )
let or_ = ( lor )
let xor = ( lxor )

let maj a b c = (a land b) lor (a land c) lor (b land c)

let eval tt inputs =
  let idx = ref 0 in
  Array.iteri (fun k b -> if b then idx := !idx lor (1 lsl k)) inputs;
  (tt lsr !idx) land 1 = 1

let of_fun n f =
  let bits = 1 lsl n in
  let tt = ref 0 in
  let inputs = Array.make n false in
  for i = 0 to bits - 1 do
    for k = 0 to n - 1 do
      inputs.(k) <- (i lsr k) land 1 = 1
    done;
    if f inputs then tt := !tt lor (1 lsl i)
  done;
  !tt

let depends_on n tt k =
  if k < 0 || k >= n then invalid_arg "Truth.depends_on";
  let bits = 1 lsl n in
  let differs = ref false in
  for i = 0 to bits - 1 do
    if (i lsr k) land 1 = 0 then begin
      let j = i lor (1 lsl k) in
      if (tt lsr i) land 1 <> (tt lsr j) land 1 then differs := true
    end
  done;
  !differs

let to_string n tt =
  String.init (1 lsl n) (fun i -> if (tt lsr i) land 1 = 1 then '1' else '0')
