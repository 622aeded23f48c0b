(* Ternary constants with X-propagation. *)

type value = Zero | One | Unknown

let value_name = function Zero -> "0" | One -> "1" | Unknown -> "X"

let known b = if b then One else Zero

let neg = function Zero -> One | One -> Zero | Unknown -> Unknown

let and3 a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | _ -> Unknown

let or3 a b =
  match (a, b) with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | _ -> Unknown

let xor3 a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | x, y -> known (x <> y)

let transfer nl id facts =
  let f = Netlist.fanins nl id in
  let v k = facts.(f.(k)) in
  match Netlist.kind nl id with
  | Netlist.Input -> Unknown
  | Netlist.Const b -> known b
  | Netlist.Buf | Netlist.Output | Netlist.Splitter _ -> v 0
  | Netlist.Not -> neg (v 0)
  | Netlist.And -> and3 (v 0) (v 1)
  | Netlist.Or -> or3 (v 0) (v 1)
  | Netlist.Nand -> neg (and3 (v 0) (v 1))
  | Netlist.Nor -> neg (or3 (v 0) (v 1))
  | Netlist.Xor -> xor3 (v 0) (v 1)
  | Netlist.Xnor -> neg (xor3 (v 0) (v 1))
  | Netlist.Maj ->
      let a = v 0 and b = v 1 and c = v 2 in
      or3 (or3 (and3 a b) (and3 a c)) (and3 b c)

let solve nl =
  Absint.forward nl ~bot:Unknown ~transfer:(fun id facts -> transfer nl id facts)

(* The fan-in responsible for a known fact: the leftmost fan-in that
   forces (or participates in) the constant. Chasing it terminates at
   a Const cell — the only source of known values. *)
let forcing_fanin nl facts id =
  let f = Netlist.fanins nl id in
  if Array.length f = 0 then None
  else
    let pick p =
      let r = ref None in
      Array.iter (fun fi -> if !r = None && p facts.(fi) then r := Some fi) f;
      !r
    in
    match Netlist.kind nl id with
    | Netlist.Input | Netlist.Const _ -> None
    | Netlist.Buf | Netlist.Output | Netlist.Splitter _ | Netlist.Not ->
        Some f.(0)
    | Netlist.And | Netlist.Nand -> (
        match pick (( = ) Zero) with Some fi -> Some fi | None -> pick (( <> ) Unknown))
    | Netlist.Or | Netlist.Nor -> (
        match pick (( = ) One) with Some fi -> Some fi | None -> pick (( <> ) Unknown))
    | Netlist.Xor | Netlist.Xnor | Netlist.Maj -> pick (( <> ) Unknown)

let witness nl facts id =
  let chain =
    Absint.chase ~limit:Netlist.(size nl) id (fun i ->
        if facts.(i) = Unknown then None else forcing_fanin nl facts i)
  in
  Absint.path_witness nl (List.rev chain)

let check nl facts =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  Netlist.iter nl (fun nd ->
      let i = nd.Netlist.id in
      match (nd.Netlist.kind, facts.(i)) with
      | _, Unknown | (Netlist.Input | Netlist.Const _), _ -> ()
      | Netlist.Output, v ->
          push
            (Diag.warning ~witness:(witness nl facts i) ~rule:"AI-CONST-01"
               (Diag.Node i) "primary output%s is provably constant %s"
               (match nd.Netlist.name with
               | Some n -> Printf.sprintf " %S" n
               | None -> "")
               (value_name v))
      | (Netlist.Buf | Netlist.Splitter _ | Netlist.Not), _ ->
          (* pass-through / unary of an already-known value: the root
             cause is flagged, not the whole downstream chain *)
          ()
      | ( ( Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor
          | Netlist.Xor | Netlist.Xnor | Netlist.Maj ),
          v ) ->
          let has_unknown =
            Array.exists (fun f -> facts.(f) = Unknown) nd.Netlist.fanins
          in
          if has_unknown then
            push
              (Diag.warning ~witness:(witness nl facts i) ~rule:"AI-CONST-01"
                 (Diag.Node i)
                 "%s gate is forced constant %s (its unknown fan-in cone is \
                  provably wasted)"
                 (Netlist.kind_name nd.Netlist.kind)
                 (value_name v)));
  List.rev !diags

type fold_stats = { folded : int; live_before : int; live_after : int }

let live_count nl =
  let n = Netlist.size nl in
  let marked = Array.make n false in
  let rec visit i =
    if not marked.(i) then begin
      marked.(i) <- true;
      Array.iter visit (Netlist.fanins nl i)
    end
  in
  List.iter visit (Netlist.outputs nl);
  Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 marked

let fold nl =
  let facts = solve nl in
  let out = Netlist.copy nl in
  let live_before = live_count out in
  let folded = ref 0 in
  Netlist.iter out (fun nd ->
      let i = nd.Netlist.id in
      match (nd.Netlist.kind, facts.(i)) with
      | _, Unknown
      | (Netlist.Input | Netlist.Output | Netlist.Const _), _ ->
          ()
      | _, v ->
          Netlist.set_kind out i (Netlist.Const (v = One));
          Netlist.set_fanins out i [||];
          incr folded);
  (out, { folded = !folded; live_before; live_after = live_count out })
