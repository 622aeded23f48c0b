type operand =
  | Var of int * bool
  | Cst of bool
  | Gate of int * bool

type gate = { a : operand; b : operand; c : operand }

type impl = { gates : gate array; out : operand; jj : int; depth : int }

let inverter_jj = 2
let maj_jj = 6
let const_cell_jj = 2

(* ---- database construction ----

   Candidates are built bottom-up: literals, then one majority level,
   then two levels whose operands may be (possibly negated) level-1
   outputs. A Shannon-decomposition fallback guarantees totality for
   anything the two-level search misses. Better = fewer JJs, then
   shallower. *)

let better a b =
  match b with
  | None -> true
  | Some b -> a.jj < b.jj || (a.jj = b.jj && a.depth < b.depth)

type candidate = { ctt : int; cimpl : impl }

let tt_of_operand = function
  | Var (k, neg) ->
      let v = Truth.var k 3 in
      if neg then Truth.not_ 3 v else v
  | Cst b -> Truth.const b 3
  | Gate _ -> invalid_arg "tt_of_operand: gate"

let literal_pool =
  lazy
    (let lits = ref [] in
     for k = 2 downto 0 do
       lits := { ctt = tt_of_operand (Var (k, false)); cimpl = { gates = [||]; out = Var (k, false); jj = 0; depth = 0 } } :: !lits;
       lits := { ctt = tt_of_operand (Var (k, true)); cimpl = { gates = [||]; out = Var (k, true); jj = inverter_jj; depth = 0 } } :: !lits
     done;
     lits := { ctt = Truth.const false 3; cimpl = { gates = [||]; out = Cst false; jj = 0; depth = 0 } } :: !lits;
     lits := { ctt = Truth.const true 3; cimpl = { gates = [||]; out = Cst true; jj = 0; depth = 0 } } :: !lits;
     Array.of_list !lits)

(* Combine three candidates with a new top majority gate. Sub-impl
   gate arrays are concatenated and operand gate indices shifted. *)
let combine c1 c2 c3 =
  let shift off = function Gate (i, n) -> Gate (i + off, n) | op -> op in
  let shift_gates off gates =
    Array.map (fun g -> { a = shift off g.a; b = shift off g.b; c = shift off g.c }) gates
  in
  let g1 = c1.cimpl.gates and g2 = c2.cimpl.gates and g3 = c3.cimpl.gates in
  let o1 = Array.length g1 and o2 = Array.length g2 in
  let gates =
    Array.concat
      [ g1; shift_gates o1 g2; shift_gates (o1 + o2) g3;
        [| { a = shift 0 c1.cimpl.out;
             b = shift o1 c2.cimpl.out;
             c = shift (o1 + o2) c3.cimpl.out } |] ]
  in
  let jj = maj_jj + c1.cimpl.jj + c2.cimpl.jj + c3.cimpl.jj in
  let depth = 1 + max c1.cimpl.depth (max c2.cimpl.depth c3.cimpl.depth) in
  let tt = Truth.maj c1.ctt c2.ctt c3.ctt land Truth.mask 3 in
  let out = Gate (Array.length gates - 1, false) in
  ({ ctt = tt; cimpl = { gates; out; jj; depth } },
   { ctt = Truth.not_ 3 tt;
     cimpl = { gates; out = Gate (Array.length gates - 1, true); jj = jj + inverter_jj; depth } })

let negate_out c =
  match c.cimpl.out with
  | Gate (i, n) ->
      { ctt = Truth.not_ 3 c.ctt;
        cimpl = { c.cimpl with out = Gate (i, not n); jj = c.cimpl.jj + inverter_jj } }
  | Var (k, n) ->
      { ctt = Truth.not_ 3 c.ctt;
        cimpl =
          { c.cimpl with
            out = Var (k, not n);
            jj = (c.cimpl.jj + if n then -inverter_jj else inverter_jj) } }
  | Cst b -> { ctt = Truth.not_ 3 c.ctt; cimpl = { c.cimpl with out = Cst (not b) } }

let sweep best pool =
  let n = Array.length pool in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if pool.(i).ctt <> pool.(j).ctt then
        for k = j + 1 to n - 1 do
          if pool.(k).ctt <> pool.(i).ctt && pool.(k).ctt <> pool.(j).ctt then begin
            let pos, neg = combine pool.(i) pool.(j) pool.(k) in
            if better pos.cimpl best.(pos.ctt) then best.(pos.ctt) <- Some pos.cimpl;
            if better neg.cimpl best.(neg.ctt) then best.(neg.ctt) <- Some neg.cimpl
          end
        done
    done
  done

let build () =
  let best = Array.make 256 None in
  let lits = Lazy.force literal_pool in
  Array.iter
    (fun c ->
      let c = if c.cimpl.out = Cst false || c.cimpl.out = Cst true then
          (* a bare constant output needs a const generator cell *)
          { c with cimpl = { c.cimpl with jj = const_cell_jj } }
        else c
      in
      if better c.cimpl best.(c.ctt) then best.(c.ctt) <- Some c.cimpl)
    lits;
  (* Level 1: one majority over literals. *)
  sweep best lits;
  (* Level 2: pool = literals + all current bests (which are the
     level-1 winners). Negated variants are generated by [combine]. *)
  let level1 =
    Array.to_list lits
    @ (Array.to_list best
      |> List.mapi (fun tt impl -> Option.map (fun i -> { ctt = tt; cimpl = i }) impl)
      |> List.filter_map Fun.id
      |> List.filter (fun c -> Array.length c.cimpl.gates > 0))
  in
  sweep best (Array.of_list level1);
  (* Shannon fallback for anything still missing:
     f = maj(maj(v0', f0, 0), maj(v0, f1, 0), 1)  — i.e.
     (v0' & f|v0=0) | (v0 & f|v0=1), with cofactors from the table. *)
  let rec ensure tt =
    match best.(tt) with
    | Some impl -> impl
    | None ->
        let mask = Truth.mask 3 in
        let v0 = Truth.var 0 3 in
        (* cofactor tables: replicate the half where v0 is 0 / 1 *)
        let cof0 = ref 0 and cof1 = ref 0 in
        for i = 0 to 7 do
          let bit0 = (tt lsr (i land lnot 1)) land 1 in
          let bit1 = (tt lsr (i lor 1)) land 1 in
          if bit0 = 1 then cof0 := !cof0 lor (1 lsl i);
          if bit1 = 1 then cof1 := !cof1 lor (1 lsl i)
        done;
        let c0 = { ctt = !cof0 land mask; cimpl = ensure (!cof0 land mask) } in
        let c1 = { ctt = !cof1 land mask; cimpl = ensure (!cof1 land mask) } in
        let lit_v0 = { ctt = v0; cimpl = { gates = [||]; out = Var (0, false); jj = 0; depth = 0 } } in
        let lit_nv0 = negate_out lit_v0 in
        let cst0 = { ctt = 0; cimpl = { gates = [||]; out = Cst false; jj = 0; depth = 0 } } in
        let cst1 = { ctt = mask; cimpl = { gates = [||]; out = Cst true; jj = 0; depth = 0 } } in
        let and0, _ = combine lit_nv0 c0 cst0 in
        let and1, _ = combine lit_v0 c1 cst0 in
        let res, _ = combine and0 and1 cst1 in
        assert (res.ctt = tt);
        if better res.cimpl best.(tt) then best.(tt) <- Some res.cimpl;
        res.cimpl
  in
  for tt = 0 to 255 do
    ignore (ensure tt)
  done;
  Array.map Option.get best

let table = lazy (build ())

let lookup tt = (Lazy.force table).(tt land 255)

let cost tt = (lookup tt).jj

let max_gates () =
  Array.fold_left (fun acc i -> max acc (Array.length i.gates)) 0 (Lazy.force table)

let coverage () = Array.length (Lazy.force table)
