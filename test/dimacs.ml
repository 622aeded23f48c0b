(* DIMACS CNF reader/writer: the standalone harness that feeds
   {!Solver} formulas from text, with no netlist involved. Variables
   are 1-based, a negative integer is a negated literal and 0 ends a
   clause. [parse] skips [c] comment lines, requires the [p cnf V C]
   header and grows [n_vars] for variables beyond the declared count;
   [solve] returns [`Sat m] with [m.(v-1)] the value of variable [v]. *)

type cnf = { n_vars : int; clauses : int list list }

let parse text =
  let lines = String.split_on_char '\n' text in
  let n_vars = ref 0 in
  let declared = ref false in
  let clauses = ref [] in
  let cur = ref [] in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let handle_tok tok =
    match int_of_string_opt tok with
    | None -> fail (Printf.sprintf "bad token %S" tok)
    | Some 0 ->
      clauses := List.rev !cur :: !clauses;
      cur := []
    | Some d ->
      n_vars := max !n_vars (abs d);
      cur := d :: !cur
  in
  List.iter
    (fun line ->
      if !err = None then
        let line = String.trim line in
        if line = "" || line.[0] = 'c' then ()
        else if line.[0] = 'p' then begin
          match
            String.split_on_char ' ' line
            |> List.filter (fun s -> s <> "")
          with
          | [ "p"; "cnf"; v; _c ] -> (
            declared := true;
            match int_of_string_opt v with
            | Some v when v >= 0 -> n_vars := max !n_vars v
            | _ -> fail "bad p cnf header")
          | _ -> fail "bad p cnf header"
        end
        else
          String.split_on_char ' ' line
          |> List.filter (fun s -> s <> "")
          |> List.iter handle_tok)
    lines;
  match !err with
  | Some msg -> Error msg
  | None ->
    if not !declared then Error "missing p cnf header"
    else begin
      if !cur <> [] then clauses := List.rev !cur :: !clauses;
      Ok { n_vars = !n_vars; clauses = List.rev !clauses }
    end

let to_string cnf =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" cnf.n_vars (List.length cnf.clauses));
  List.iter
    (fun cl ->
      List.iter (fun d -> Buffer.add_string buf (string_of_int d ^ " ")) cl;
      Buffer.add_string buf "0\n")
    cnf.clauses;
  Buffer.contents buf

let solve ?conflict_budget cnf =
  let s = Solver.create () in
  for _ = 1 to cnf.n_vars do
    ignore (Solver.new_var s)
  done;
  let to_lit d =
    let v = abs d - 1 in
    if d < 0 then Solver.neg_lit (Solver.lit_of_var v)
    else Solver.lit_of_var v
  in
  List.iter (fun cl -> Solver.add_clause s (List.map to_lit cl)) cnf.clauses;
  match Solver.solve ?conflict_budget s with
  | Solver.Sat ->
    `Sat (Array.init cnf.n_vars (fun v -> Solver.model_value s (Solver.lit_of_var v)))
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> `Unknown
