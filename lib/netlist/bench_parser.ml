let strip s = String.trim s

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '[' || c = ']'

let split_args s =
  String.split_on_char ',' s |> List.map strip |> List.filter (fun x -> x <> "")

exception Parse_error of string

let fail lineno fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))) fmt

(* A statement as it appears in the file, before id resolution. *)
type stmt =
  | S_input of string
  | S_output of string
  | S_gate of string * string * string list (* target, op, args *)

let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = strip line in
  if line = "" then None
  else
    let upper = String.uppercase_ascii line in
    let paren_arg () =
      match (String.index_opt line '(', String.rindex_opt line ')') with
      | Some i, Some j when j > i -> strip (String.sub line (i + 1) (j - i - 1))
      | _ -> fail lineno "malformed parenthesis"
    in
    if String.length upper >= 6 && String.sub upper 0 6 = "INPUT(" then
      Some (S_input (paren_arg ()))
    else if String.length upper >= 7 && String.sub upper 0 7 = "OUTPUT(" then
      Some (S_output (paren_arg ()))
    else
      match String.index_opt line '=' with
      | None -> fail lineno "expected INPUT/OUTPUT/assignment, got %S" line
      | Some eq ->
          let target = strip (String.sub line 0 eq) in
          if target = "" || not (String.for_all is_ident_char target) then
            fail lineno "bad target name %S" target;
          let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
          (match (String.index_opt rhs '(', String.rindex_opt rhs ')') with
          | Some i, Some j when j > i ->
              let op = String.uppercase_ascii (strip (String.sub rhs 0 i)) in
              let args = split_args (String.sub rhs (i + 1) (j - i - 1)) in
              Some (S_gate (target, op, args))
          | _ -> fail lineno "malformed gate expression %S" rhs)

(* Balanced 2-input tree over [ids] with constructor [mk]. *)
let rec tree mk = function
  | [] -> invalid_arg "tree: empty"
  | [ x ] -> x
  | ids ->
      let n = List.length ids in
      let rec take k = function
        | rest when k = 0 -> ([], rest)
        | [] -> ([], [])
        | x :: rest ->
            let l, r = take (k - 1) rest in
            (x :: l, r)
      in
      let left, right = take (n / 2) ids in
      mk (tree mk left) (tree mk right)

let build stmts =
  let nl = Netlist.create () in
  let env = Hashtbl.create 64 in
  (* Two passes: declare inputs first, then resolve gates in dependency
     order (bench files may use names before defining them). *)
  let gates = Hashtbl.create 64 in
  let gate_order = ref [] in
  let outputs = ref [] in
  List.iter
    (fun (lineno, stmt) ->
      match stmt with
      | S_input name ->
          if Hashtbl.mem env name then fail lineno "duplicate input %s" name;
          Hashtbl.replace env name (Netlist.add nl ~name Netlist.Input [||])
      | S_output name -> outputs := (lineno, name) :: !outputs
      | S_gate (target, op, args) ->
          if Hashtbl.mem gates target then fail lineno "duplicate gate %s" target;
          Hashtbl.replace gates target (lineno, op, args);
          gate_order := target :: !gate_order)
    stmts;
  (* [lineno] is the line of the statement referencing [name], so
     "undefined signal" and "cycle" errors point at the use site *)
  let rec resolve ?(stack = []) ~lineno name =
    match Hashtbl.find_opt env name with
    | Some id -> id
    | None -> (
        if List.mem name stack then fail lineno "cycle through %s" name;
        match Hashtbl.find_opt gates name with
        | None -> fail lineno "undefined signal %s" name
        | Some (lineno, op, args) ->
            let stack = name :: stack in
            let arg_ids = List.map (resolve ~stack ~lineno) args in
            let check_arity n =
              if List.length arg_ids <> n then
                fail lineno "%s expects %d args, got %d" op n (List.length arg_ids)
            in
            let check_nary () =
              if arg_ids = [] then fail lineno "%s needs at least one arg" op
            in
            let mk2 k a b = Netlist.add nl k [| a; b |] in
            let id =
              match op with
              | "NOT" | "INV" ->
                  check_arity 1;
                  Netlist.add nl ~name Netlist.Not [| List.hd arg_ids |]
              | "BUF" | "BUFF" ->
                  check_arity 1;
                  Netlist.add nl ~name Netlist.Buf [| List.hd arg_ids |]
              | "AND" ->
                  check_nary ();
                  if List.length arg_ids = 1 then
                    Netlist.add nl ~name Netlist.Buf [| List.hd arg_ids |]
                  else tree (mk2 Netlist.And) arg_ids
              | "OR" ->
                  check_nary ();
                  if List.length arg_ids = 1 then
                    Netlist.add nl ~name Netlist.Buf [| List.hd arg_ids |]
                  else tree (mk2 Netlist.Or) arg_ids
              | "XOR" ->
                  check_nary ();
                  if List.length arg_ids = 1 then
                    Netlist.add nl ~name Netlist.Buf [| List.hd arg_ids |]
                  else tree (mk2 Netlist.Xor) arg_ids
              | "NAND" ->
                  check_nary ();
                  if List.length arg_ids = 2 then
                    Netlist.add nl ~name Netlist.Nand
                      [| List.nth arg_ids 0; List.nth arg_ids 1 |]
                  else
                    let conj = tree (mk2 Netlist.And) arg_ids in
                    Netlist.add nl ~name Netlist.Not [| conj |]
              | "NOR" ->
                  check_nary ();
                  if List.length arg_ids = 2 then
                    Netlist.add nl ~name Netlist.Nor
                      [| List.nth arg_ids 0; List.nth arg_ids 1 |]
                  else
                    let disj = tree (mk2 Netlist.Or) arg_ids in
                    Netlist.add nl ~name Netlist.Not [| disj |]
              | "XNOR" ->
                  check_nary ();
                  if List.length arg_ids = 2 then
                    Netlist.add nl ~name Netlist.Xnor
                      [| List.nth arg_ids 0; List.nth arg_ids 1 |]
                  else
                    let x = tree (mk2 Netlist.Xor) arg_ids in
                    Netlist.add nl ~name Netlist.Not [| x |]
              | "DFF" | "DFFSR" -> fail lineno "sequential element %s unsupported" op
              | _ -> fail lineno "unknown gate %s" op
            in
            Hashtbl.replace env name id;
            id)
  in
  List.iter
    (fun name ->
      match Hashtbl.find_opt gates name with
      | Some (lineno, _, _) -> ignore (resolve ~lineno name)
      | None -> ())
    (List.rev !gate_order);
  List.iter
    (fun (lineno, name) ->
      match Hashtbl.find_opt env name with
      | Some id -> ignore (Netlist.add nl ~name Netlist.Output [| id |])
      | None -> fail lineno "output %s never defined" name)
    (List.rev !outputs);
  nl

let parse source =
  let lines = String.split_on_char '\n' source in
  try
    let stmts =
      List.filteri (fun _ _ -> true) lines
      |> List.mapi (fun i l -> (i + 1, parse_line (i + 1) l))
      |> List.filter_map (fun (i, s) -> Option.map (fun s -> (i, s)) s)
    in
    Ok (build stmts)
  with Parse_error msg -> Error msg

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | content -> Result.map_error (Printf.sprintf "%s: %s" path) (parse content)
  | exception Sys_error msg -> Error msg
