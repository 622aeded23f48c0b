let add2 nl k a b = Netlist.add nl k [| a; b |]

let full_adder nl a b cin =
  let axb = add2 nl Netlist.Xor a b in
  let s = add2 nl Netlist.Xor axb cin in
  let t1 = add2 nl Netlist.And a b in
  let t2 = add2 nl Netlist.And axb cin in
  let cout = add2 nl Netlist.Or t1 t2 in
  (s, cout)

let named_inputs nl prefix w =
  Array.init w (fun i ->
      Netlist.add nl ~name:(Printf.sprintf "%s%d" prefix i) Netlist.Input [||])

let outputs nl prefix bits =
  Array.iteri
    (fun i b ->
      ignore (Netlist.add nl ~name:(Printf.sprintf "%s%d" prefix i) Netlist.Output [| b |]))
    bits

let ripple_adder w =
  if w < 1 then invalid_arg "ripple_adder: width must be >= 1";
  let nl = Netlist.create () in
  let a = named_inputs nl "a" w in
  let b = named_inputs nl "b" w in
  let cin = Netlist.add nl ~name:"cin" Netlist.Input [||] in
  let carry = ref cin in
  let sums =
    Array.init w (fun i ->
        let s, c = full_adder nl a.(i) b.(i) !carry in
        carry := c;
        s)
  in
  outputs nl "s" sums;
  ignore (Netlist.add nl ~name:"cout" Netlist.Output [| !carry |]);
  nl

(* 2:1 mux as AOI gates: y = (sel & t) | (~sel & f) *)
let mux2 nl sel t f =
  let nt = add2 nl Netlist.And sel t in
  let nsel = Netlist.add nl Netlist.Not [| sel |] in
  let nf = add2 nl Netlist.And nsel f in
  add2 nl Netlist.Or nt nf

let carry_select_adder ?(block = 4) w =
  if w < 1 then invalid_arg "carry_select_adder: width must be >= 1";
  if block < 1 then invalid_arg "carry_select_adder: block must be >= 1";
  let nl = Netlist.create () in
  let a = named_inputs nl "a" w in
  let b = named_inputs nl "b" w in
  let cin = Netlist.add nl ~name:"cin" Netlist.Input [||] in
  let sums = Array.make w cin in
  let carry = ref cin in
  let pos = ref 0 in
  while !pos < w do
    let len = min block (w - !pos) in
    (* compute this block under both carry assumptions *)
    let run assumed =
      let c = ref assumed in
      let ss =
        Array.init len (fun k ->
            let s, c' = full_adder nl a.(!pos + k) b.(!pos + k) !c in
            c := c';
            s)
      in
      (ss, !c)
    in
    let zero = Netlist.add nl (Netlist.Const false) [||] in
    let one = Netlist.add nl (Netlist.Const true) [||] in
    let s0, c0 = run zero in
    let s1, c1 = run one in
    (* select on the real incoming carry *)
    for k = 0 to len - 1 do
      sums.(!pos + k) <- mux2 nl !carry s1.(k) s0.(k)
    done;
    carry := mux2 nl !carry c1 c0;
    pos := !pos + len
  done;
  outputs nl "s" sums;
  ignore (Netlist.add nl ~name:"cout" Netlist.Output [| !carry |]);
  nl

let subtractor w =
  if w < 1 then invalid_arg "subtractor: width must be >= 1";
  let nl = Netlist.create () in
  let a = named_inputs nl "a" w in
  let b = named_inputs nl "b" w in
  (* a - b = a + ~b + 1 *)
  let one = Netlist.add nl (Netlist.Const true) [||] in
  let carry = ref one in
  let diffs =
    Array.init w (fun i ->
        let nb = Netlist.add nl Netlist.Not [| b.(i) |] in
        let s, c = full_adder nl a.(i) nb !carry in
        carry := c;
        s)
  in
  outputs nl "d" diffs;
  ignore (Netlist.add nl ~name:"bout" Netlist.Output [| !carry |]);
  nl

let comparator w =
  if w < 1 then invalid_arg "comparator: width must be >= 1";
  let nl = Netlist.create () in
  let a = named_inputs nl "a" w in
  let b = named_inputs nl "b" w in
  (* walk from the MSB: gt/lt latch at the first difference *)
  let gt = ref (Netlist.add nl (Netlist.Const false) [||]) in
  let lt = ref (Netlist.add nl (Netlist.Const false) [||]) in
  let eq = ref (Netlist.add nl (Netlist.Const true) [||]) in
  for i = w - 1 downto 0 do
    let nb = Netlist.add nl Netlist.Not [| b.(i) |] in
    let na = Netlist.add nl Netlist.Not [| a.(i) |] in
    let a_gt_b = add2 nl Netlist.And a.(i) nb in
    let a_lt_b = add2 nl Netlist.And na b.(i) in
    let bit_eq = add2 nl Netlist.Xnor a.(i) b.(i) in
    gt := add2 nl Netlist.Or !gt (add2 nl Netlist.And !eq a_gt_b);
    lt := add2 nl Netlist.Or !lt (add2 nl Netlist.And !eq a_lt_b);
    eq := add2 nl Netlist.And !eq bit_eq
  done;
  ignore (Netlist.add nl ~name:"lt" Netlist.Output [| !lt |]);
  ignore (Netlist.add nl ~name:"eq" Netlist.Output [| !eq |]);
  ignore (Netlist.add nl ~name:"gt" Netlist.Output [| !gt |]);
  nl

let log2 n =
  let rec go k acc = if acc >= n then k else go (k + 1) (acc * 2) in
  go 0 1

let barrel_shifter w =
  if w < 2 || w land (w - 1) <> 0 then
    invalid_arg "barrel_shifter: width must be a power of two >= 2";
  let nl = Netlist.create () in
  let x = named_inputs nl "x" w in
  let sel = named_inputs nl "s" (log2 w) in
  let zero = Netlist.add nl (Netlist.Const false) [||] in
  let stage = ref x in
  Array.iteri
    (fun k s ->
      let shift = 1 lsl k in
      let cur = !stage in
      stage :=
        Array.init w (fun i ->
            let shifted = if i >= shift then cur.(i - shift) else zero in
            mux2 nl s shifted cur.(i)))
    sel;
  outputs nl "y" !stage;
  nl

let priority_encoder n =
  if n < 2 || n land (n - 1) <> 0 then
    invalid_arg "priority_encoder: size must be a power of two >= 2";
  let nl = Netlist.create () in
  let d = named_inputs nl "d" n in
  let bits = log2 n in
  (* highest set wins: for output bit k, OR over inputs i whose index
     has bit k set AND no higher input is set *)
  let no_higher = Array.make n (Netlist.add nl (Netlist.Const true) [||]) in
  for i = n - 2 downto 0 do
    let ni = Netlist.add nl Netlist.Not [| d.(i + 1) |] in
    no_higher.(i) <- add2 nl Netlist.And no_higher.(i + 1) ni
  done;
  let winner = Array.init n (fun i -> add2 nl Netlist.And d.(i) no_higher.(i)) in
  let out_bits =
    Array.init bits (fun k ->
        let contributors =
          List.filteri (fun i _ -> (i lsr k) land 1 = 1) (Array.to_list winner)
        in
        match contributors with
        | [] -> Netlist.add nl (Netlist.Const false) [||]
        | first :: rest -> List.fold_left (fun acc c -> add2 nl Netlist.Or acc c) first rest)
  in
  outputs nl "y" out_bits;
  let valid =
    Array.fold_left (fun acc di -> add2 nl Netlist.Or acc di) d.(0)
      (Array.sub d 1 (n - 1))
  in
  ignore (Netlist.add nl ~name:"valid" Netlist.Output [| valid |]);
  nl

let mux_tree n =
  if n < 2 || n land (n - 1) <> 0 then
    invalid_arg "mux_tree: size must be a power of two >= 2";
  let nl = Netlist.create () in
  let d = named_inputs nl "d" n in
  let sel = named_inputs nl "s" (log2 n) in
  let stage = ref (Array.to_list d) in
  Array.iter
    (fun s ->
      let rec pairs = function
        | f :: t :: rest -> mux2 nl s t f :: pairs rest
        | [] -> []
        | [ _ ] -> invalid_arg "mux_tree: internal"
      in
      stage := pairs !stage)
    sel;
  (match !stage with
  | [ y ] -> ignore (Netlist.add nl ~name:"y" Netlist.Output [| y |])
  | _ -> assert false);
  nl

let parity n =
  if n < 1 then invalid_arg "parity: need >= 1 input";
  let nl = Netlist.create () in
  let d = named_inputs nl "d" n in
  let p =
    Array.fold_left (fun acc x -> add2 nl Netlist.Xor acc x) d.(0)
      (Array.sub d 1 (n - 1))
  in
  ignore (Netlist.add nl ~name:"p" Netlist.Output [| p |]);
  nl
