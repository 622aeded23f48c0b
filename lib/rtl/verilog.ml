(* Lexer *)

type token =
  | T_ident of string
  | T_number of int
  | T_literal of bool list (* bit literal, LSB first *)
  | T_kw of string
  | T_sym of char
  | T_eof

exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

let keywords =
  [ "module"; "endmodule"; "input"; "output"; "wire"; "assign";
    "and"; "or"; "nand"; "nor"; "xor"; "xnor"; "not"; "buf";
    (* recognized but unsupported — rejected with a clear message *)
    "always"; "reg"; "initial"; "case"; "if"; "else"; "begin"; "end";
    "posedge"; "negedge"; "parameter"; "function" ]

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c || c = '$'

type lexer = { src : string; mutable pos : int; mutable line : int }

let rec skip_ws lx =
  let n = String.length lx.src in
  if lx.pos >= n then ()
  else
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_ws lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.line <- lx.line + 1;
        skip_ws lx
    | '/' when lx.pos + 1 < n && lx.src.[lx.pos + 1] = '/' ->
        while lx.pos < n && lx.src.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        skip_ws lx
    | '/' when lx.pos + 1 < n && lx.src.[lx.pos + 1] = '*' ->
        lx.pos <- lx.pos + 2;
        let rec close () =
          if lx.pos + 1 >= n then fail "line %d: unterminated comment" lx.line
          else if lx.src.[lx.pos] = '*' && lx.src.[lx.pos + 1] = '/' then
            lx.pos <- lx.pos + 2
          else begin
            if lx.src.[lx.pos] = '\n' then lx.line <- lx.line + 1;
            lx.pos <- lx.pos + 1;
            close ()
          end
        in
        close ();
        skip_ws lx
    | _ -> ()

let read_number lx =
  let start = lx.pos in
  while lx.pos < String.length lx.src && is_digit lx.src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done;
  int_of_string (String.sub lx.src start (lx.pos - start))

let next_token lx =
  skip_ws lx;
  let n = String.length lx.src in
  if lx.pos >= n then T_eof
  else
    let c = lx.src.[lx.pos] in
    if is_ident_start c then begin
      let start = lx.pos in
      while lx.pos < n && is_ident_char lx.src.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      let word = String.sub lx.src start (lx.pos - start) in
      if List.mem word keywords then T_kw word else T_ident word
    end
    else if is_digit c then begin
      let value = read_number lx in
      if lx.pos < n && lx.src.[lx.pos] = '\'' then begin
        lx.pos <- lx.pos + 1;
        if lx.pos >= n || (lx.src.[lx.pos] <> 'b' && lx.src.[lx.pos] <> 'B') then
          fail "line %d: only binary literals (N'b...) are supported" lx.line;
        lx.pos <- lx.pos + 1;
        let bits = ref [] in
        while
          lx.pos < n
          && (lx.src.[lx.pos] = '0' || lx.src.[lx.pos] = '1' || lx.src.[lx.pos] = '_')
        do
          (match lx.src.[lx.pos] with
          | '0' -> bits := false :: !bits
          | '1' -> bits := true :: !bits
          | _ -> ());
          lx.pos <- lx.pos + 1
        done;
        (* source is MSB first; !bits is already reversed = LSB first *)
        let bits = !bits in
        if List.length bits <> value then
          fail "line %d: literal width %d does not match %d digits" lx.line value
            (List.length bits);
        T_literal bits
      end
      else T_number value
    end
    else begin
      lx.pos <- lx.pos + 1;
      T_sym c
    end

(* Parser state: one-token lookahead. *)

type parser_state = { lx : lexer; mutable tok : token }

let advance ps = ps.tok <- next_token ps.lx

let expect_sym ps c =
  match ps.tok with
  | T_sym s when s = c -> advance ps
  | _ -> fail "line %d: expected '%c'" ps.lx.line c

let expect_kw ps kw =
  match ps.tok with
  | T_kw k when k = kw -> advance ps
  | _ -> fail "line %d: expected '%s'" ps.lx.line kw

let expect_ident ps =
  match ps.tok with
  | T_ident id ->
      advance ps;
      id
  | T_kw k -> fail "line %d: keyword '%s' used as identifier" ps.lx.line k
  | _ -> fail "line %d: expected identifier" ps.lx.line

(* AST *)

type expr =
  | E_ref of string (* whole signal (scalar or vector) *)
  | E_bit of string * int
  | E_const of bool list (* LSB first; scalar constant = single bit *)
  | E_not of expr
  | E_and of expr * expr
  | E_or of expr * expr
  | E_xor of expr * expr
  | E_concat of expr list (* verilog order: head = MSB *)
  | E_repl of int * expr

type stmt =
  | S_assign of string * int option * expr (* lhs, optional bit index *)
  | S_gate of string * string list (* primitive kind, out :: inputs *)
  | S_inst of string * string * (string * int option) list
      (* submodule name, instance name, positional connections
         (signal, optional bit-select) *)

type decl = { dname : string; width : int } (* width >= 1; bit i = name[i] *)

type modul = {
  mname : string;
  ports : string list;
  inputs : decl list;
  outputs : decl list;
  wires : decl list;
  stmts : stmt list;
}

let parse_range ps =
  match ps.tok with
  | T_sym '[' ->
      advance ps;
      let msb = match ps.tok with
        | T_number v -> advance ps; v
        | _ -> fail "line %d: expected number in range" ps.lx.line
      in
      expect_sym ps ':';
      let lsb = match ps.tok with
        | T_number v -> advance ps; v
        | _ -> fail "line %d: expected number in range" ps.lx.line
      in
      expect_sym ps ']';
      if lsb <> 0 then fail "line %d: only [msb:0] ranges are supported" ps.lx.line;
      msb + 1
  | _ -> 1

let rec parse_primary ps =
  match ps.tok with
  | T_sym '{' ->
      advance ps;
      (* either a concatenation {a, b, ...} or a replication {N{x}} *)
      (match ps.tok with
      | T_number n ->
          advance ps;
          expect_sym ps '{';
          let e = parse_or ps in
          expect_sym ps '}';
          expect_sym ps '}';
          E_repl (n, e)
      | _ ->
          let rec items acc =
            let e = parse_or ps in
            match ps.tok with
            | T_sym ',' ->
                advance ps;
                items (e :: acc)
            | T_sym '}' ->
                advance ps;
                List.rev (e :: acc)
            | _ -> fail "line %d: expected ',' or '}' in concatenation" ps.lx.line
          in
          E_concat (items []))
  | T_sym '(' ->
      advance ps;
      let e = parse_or ps in
      expect_sym ps ')';
      e
  | T_sym '~' ->
      advance ps;
      E_not (parse_primary ps)
  | T_literal bits ->
      advance ps;
      E_const bits
  | T_ident id ->
      advance ps;
      (match ps.tok with
      | T_sym '[' ->
          advance ps;
          let idx = match ps.tok with
            | T_number v -> advance ps; v
            | _ -> fail "line %d: expected bit index" ps.lx.line
          in
          expect_sym ps ']';
          E_bit (id, idx)
      | _ -> E_ref id)
  | _ -> fail "line %d: expected expression" ps.lx.line

and parse_and ps =
  let rec loop acc =
    match ps.tok with
    | T_sym '&' ->
        advance ps;
        loop (E_and (acc, parse_primary ps))
    | _ -> acc
  in
  loop (parse_primary ps)

and parse_xor ps =
  let rec loop acc =
    match ps.tok with
    | T_sym '^' ->
        advance ps;
        loop (E_xor (acc, parse_and ps))
    | _ -> acc
  in
  loop (parse_and ps)

and parse_or ps =
  let rec loop acc =
    match ps.tok with
    | T_sym '|' ->
        advance ps;
        loop (E_or (acc, parse_xor ps))
    | _ -> acc
  in
  loop (parse_xor ps)

let parse_decl_names ps =
  let rec loop acc =
    let name = expect_ident ps in
    match ps.tok with
    | T_sym ',' ->
        advance ps;
        loop (name :: acc)
    | _ -> List.rev (name :: acc)
  in
  loop []

let parse_module ps =
  expect_kw ps "module";
  let module_name = expect_ident ps in
  expect_sym ps '(';
  let ports =
    match ps.tok with
    | T_sym ')' -> []
    | _ -> parse_decl_names ps
  in
  expect_sym ps ')';
  expect_sym ps ';';
  let inputs = ref [] and outputs = ref [] and wires = ref [] in
  let stmts = ref [] in
  let rec body () =
    match ps.tok with
    | T_kw "endmodule" -> advance ps
    | T_kw (("input" | "output" | "wire") as dk) ->
        advance ps;
        let width = parse_range ps in
        let names = parse_decl_names ps in
        expect_sym ps ';';
        let decls = List.map (fun dname -> { dname; width }) names in
        (match dk with
        | "input" -> inputs := !inputs @ decls
        | "output" -> outputs := !outputs @ decls
        | _ -> wires := !wires @ decls);
        body ()
    | T_kw "assign" ->
        advance ps;
        let lhs = expect_ident ps in
        let idx =
          match ps.tok with
          | T_sym '[' ->
              advance ps;
              let i = match ps.tok with
                | T_number v -> advance ps; v
                | _ -> fail "line %d: expected bit index" ps.lx.line
              in
              expect_sym ps ']';
              Some i
          | _ -> None
        in
        expect_sym ps '=';
        let e = parse_or ps in
        expect_sym ps ';';
        stmts := S_assign (lhs, idx, e) :: !stmts;
        body ()
    | T_kw (("and" | "or" | "nand" | "nor" | "xor" | "xnor" | "not" | "buf") as g) ->
        advance ps;
        (* optional instance name *)
        (match ps.tok with T_ident _ -> advance ps | _ -> ());
        expect_sym ps '(';
        let args = parse_decl_names ps in
        expect_sym ps ')';
        expect_sym ps ';';
        stmts := S_gate (g, args) :: !stmts;
        body ()
    | T_ident sub ->
        (* positional submodule instantiation: sub u1 (a, b[0], y); *)
        advance ps;
        let iname = expect_ident ps in
        expect_sym ps '(';
        let rec conns acc =
          let name = expect_ident ps in
          let idx =
            match ps.tok with
            | T_sym '[' ->
                advance ps;
                let i =
                  match ps.tok with
                  | T_number v ->
                      advance ps;
                      v
                  | _ -> fail "line %d: expected bit index" ps.lx.line
                in
                expect_sym ps ']';
                Some i
            | _ -> None
          in
          match ps.tok with
          | T_sym ',' ->
              advance ps;
              conns ((name, idx) :: acc)
          | _ -> List.rev ((name, idx) :: acc)
        in
        let args = conns [] in
        expect_sym ps ')';
        expect_sym ps ';';
        stmts := S_inst (sub, iname, args) :: !stmts;
        body ()
    | T_eof -> fail "line %d: missing endmodule" ps.lx.line
    | T_kw kw -> fail "line %d: unsupported construct '%s'" ps.lx.line kw
    | _ -> fail "line %d: unexpected token" ps.lx.line
  in
  body ();
  {
    mname = module_name;
    ports;
    inputs = !inputs;
    outputs = !outputs;
    wires = !wires;
    stmts = List.rev !stmts;
  }

(* A source file holds one or more modules; the LAST one is the top. *)
let parse_source src =
  let ps = { lx = { src; pos = 0; line = 1 }; tok = T_eof } in
  advance ps;
  let rec loop acc =
    match ps.tok with
    | T_eof ->
        if acc = [] then fail "no module found";
        List.rev acc
    | _ -> loop (parse_module ps :: acc)
  in
  loop []

(* Elaboration: resolve each signal bit to a netlist node, lazily, so
   statement order does not matter (like real HDL). [elab_module]
   emits one module's logic into a shared netlist, given pre-resolved
   nodes for its input ports, and returns the nodes of its output
   ports — instantiation is flattening by recursion. *)

type instance_info = { sub : modul; conns : (string * int option) list }

let rec elab_module ~modules ~depth nl m (input_nodes : int array array) :
    int array array =
  if depth > 64 then fail "instantiation of %s too deep (recursive modules?)" m.mname;
  let widths = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if Hashtbl.mem widths d.dname then
        fail "%s: duplicate declaration %s" m.mname d.dname;
      Hashtbl.replace widths d.dname d.width)
    (m.inputs @ m.outputs @ m.wires);
  List.iter
    (fun p ->
      if not (Hashtbl.mem widths p) then fail "%s: port %s undeclared" m.mname p)
    m.ports;
  let width_of name =
    match Hashtbl.find_opt widths name with
    | Some w -> w
    | None -> fail "%s: undeclared signal %s" m.mname name
  in
  (* static width of an expression: scalars are 1; vectors carry their
     declared width; concatenations sum *)
  let rec expr_width = function
    | E_ref name -> width_of name
    | E_bit _ -> 1
    | E_const bits -> List.length bits
    | E_not a -> expr_width a
    | E_and (a, b) | E_or (a, b) | E_xor (a, b) -> max (expr_width a) (expr_width b)
    | E_concat parts -> List.fold_left (fun acc p -> acc + expr_width p) 0 parts
    | E_repl (n, a) -> n * expr_width a
  in
  (* Driver table: (name, bit) -> how to compute it. *)
  let drivers :
      ( string * int,
        [ `Expr of expr * int
        | `Gate of string * string list
        | `Inst of string * int (* instance id, output-port bit offset *) ] )
      Hashtbl.t =
    Hashtbl.create 64
  in
  let declare_driver name bit d =
    if Hashtbl.mem drivers (name, bit) then
      fail "%s: multiple drivers for %s[%d]" m.mname name bit;
    Hashtbl.replace drivers (name, bit) d
  in
  let instances : (string, instance_info) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (function
      | S_assign (lhs, Some i, e) ->
          if i >= width_of lhs then
            fail "%s: assign index %s[%d] out of range" m.mname lhs i;
          declare_driver lhs i (`Expr (e, -1))
      | S_assign (lhs, None, e) ->
          let w = width_of lhs in
          (* static width check: every vector operand must match the lhs *)
          let rec check = function
            | E_ref name ->
                let wr = width_of name in
                if wr <> 1 && w = 1 then
                  fail "vector %s used in scalar assign to %s" name lhs;
                if wr <> 1 && wr <> w then
                  fail "width mismatch: %s is %d bits, %s is %d" name wr lhs w
            | E_bit (name, _) -> ignore (width_of name)
            | E_const bits ->
                let wl = List.length bits in
                if wl <> 1 && wl <> w then
                  fail "literal width %d does not match %s" wl lhs
            | E_not a -> check a
            | E_and (a, b) | E_or (a, b) | E_xor (a, b) ->
                check a;
                check b
            | E_concat _ as c ->
                let wc = expr_width c in
                if wc <> w then fail "concatenation is %d bits but %s is %d" wc lhs w
            | E_repl (_, _) as r ->
                let wr = expr_width r in
                if wr <> 1 && wr <> w then
                  fail "replication is %d bits but %s is %d" wr lhs w
          in
          check e;
          for i = 0 to w - 1 do
            declare_driver lhs i (`Expr (e, i))
          done
      | S_gate (g, out :: ins) ->
          if width_of out <> 1 then fail "gate output %s must be scalar" out;
          List.iter
            (fun i -> if width_of i <> 1 then fail "gate input %s must be scalar" i)
            ins;
          if ins = [] then fail "gate %s has no inputs" g;
          declare_driver out 0 (`Gate (g, ins))
      | S_gate (_, []) -> fail "gate with no connections"
      | S_inst (sub_name, iname, conns) ->
          let sub =
            match Hashtbl.find_opt modules sub_name with
            | Some sub -> sub
            | None -> fail "%s: unknown module %s" m.mname sub_name
          in
          if Hashtbl.mem instances iname then
            fail "%s: duplicate instance name %s" m.mname iname;
          if List.length conns <> List.length sub.ports then
            fail "%s: instance %s connects %d ports, %s has %d" m.mname iname
              (List.length conns) sub_name (List.length sub.ports);
          Hashtbl.replace instances iname { sub; conns };
          (* output ports of the submodule drive the connected parent
             signals; record the bit offset into the sub's flattened
             output vector *)
          let conn_width (name, idx) =
            match idx with
            | Some i ->
                if i >= width_of name then
                  fail "%s: bit select %s[%d] out of range" m.mname name i;
                1
            | None -> width_of name
          in
          let offset = ref 0 in
          List.iter2
            (fun port conn ->
              let cname, cidx = conn in
              match List.find_opt (fun d -> d.dname = port) sub.outputs with
              | Some d ->
                  if conn_width conn <> d.width then
                    fail "%s: instance %s port %s is %d bits, signal %s is %d"
                      m.mname iname port d.width cname (conn_width conn);
                  for bit = 0 to d.width - 1 do
                    let target_bit =
                      match cidx with Some i -> i | None -> bit
                    in
                    declare_driver cname target_bit (`Inst (iname, !offset + bit))
                  done;
                  offset := !offset + d.width
              | None -> (
                  (* must be an input port; width checked at resolution *)
                  match List.find_opt (fun d -> d.dname = port) sub.inputs with
                  | Some d ->
                      if conn_width conn <> d.width then
                        fail "%s: instance %s port %s is %d bits, signal %s is %d"
                          m.mname iname port d.width cname (conn_width conn)
                  | None -> fail "%s: %s has no port %s" m.mname sub_name port))
            sub.ports conns)
    m.stmts;
  (* Input ports come pre-resolved from the caller. *)
  let resolved : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun k d ->
      let nodes = input_nodes.(k) in
      if Array.length nodes <> d.width then
        fail "%s: input %s expects %d bits, got %d" m.mname d.dname d.width
          (Array.length nodes);
      Array.iteri (fun i id -> Hashtbl.replace resolved (d.dname, i) id) nodes)
    m.inputs;
  let inst_results : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  let rec tree mk = function
    | [] -> assert false
    | [ x ] -> x
    | ids ->
        let rec take k = function
          | rest when k = 0 -> ([], rest)
          | [] -> ([], [])
          | x :: rest ->
              let l, r = take (k - 1) rest in
              (x :: l, r)
        in
        let half = List.length ids / 2 in
        let l, r = take half ids in
        mk (tree mk l) (tree mk r)
  in
  let rec resolve_bit stack name bit =
    match Hashtbl.find_opt resolved (name, bit) with
    | Some id -> id
    | None ->
        if List.mem (name, bit) stack then
          fail "combinational cycle through %s[%d]" name bit;
        let stack = (name, bit) :: stack in
        let id =
          match Hashtbl.find_opt drivers (name, bit) with
          | None -> fail "signal %s[%d] is never driven" name bit
          | Some (`Expr (e, vec_bit)) -> elab_expr stack vec_bit e
          | Some (`Gate (g, ins)) ->
              let in_ids = List.map (fun i -> resolve_bit stack i 0) ins in
              let mk2 k a b = Netlist.add nl k [| a; b |] in
              (match (g, in_ids) with
              | "not", [ a ] -> Netlist.add nl Netlist.Not [| a |]
              | "buf", [ a ] -> Netlist.add nl Netlist.Buf [| a |]
              | "not", _ | "buf", _ -> fail "%s takes exactly one input" g
              | "and", ids -> tree (mk2 Netlist.And) ids
              | "or", ids -> tree (mk2 Netlist.Or) ids
              | "xor", ids -> tree (mk2 Netlist.Xor) ids
              | "nand", [ a; b ] -> Netlist.add nl Netlist.Nand [| a; b |]
              | "nor", [ a; b ] -> Netlist.add nl Netlist.Nor [| a; b |]
              | "xnor", [ a; b ] -> Netlist.add nl Netlist.Xnor [| a; b |]
              | "nand", ids -> Netlist.add nl Netlist.Not [| tree (mk2 Netlist.And) ids |]
              | "nor", ids -> Netlist.add nl Netlist.Not [| tree (mk2 Netlist.Or) ids |]
              | "xnor", ids -> Netlist.add nl Netlist.Not [| tree (mk2 Netlist.Xor) ids |]
              | _ -> fail "unknown gate %s" g)
          | Some (`Inst (iname, out_offset)) ->
              let outs = elab_instance stack iname in
              outs.(out_offset)
        in
        Hashtbl.replace resolved (name, bit) id;
        id
  (* flatten one instance on first demand: resolve its input
     connections in the parent, recurse, memoize the flattened output
     bit vector *)
  and elab_instance stack iname =
    match Hashtbl.find_opt inst_results iname with
    | Some outs -> outs
    | None ->
        let info = Hashtbl.find instances iname in
        let sub = info.sub in
        let inputs =
          List.map
            (fun d ->
              (* positional: find the connection bound to this input *)
              let cname, cidx =
                let rec find ports conns =
                  match (ports, conns) with
                  | p :: _, c :: _ when p = d.dname -> c
                  | _ :: ps, _ :: cs -> find ps cs
                  | _ -> fail "instance %s: no connection for %s" iname d.dname
                in
                find sub.ports info.conns
              in
              Array.init d.width (fun bit ->
                  let src_bit = match cidx with Some i -> i | None -> bit in
                  resolve_bit stack cname src_bit))
            sub.inputs
        in
        let outs_nested =
          elab_module ~modules ~depth:(depth + 1) nl sub (Array.of_list inputs)
        in
        let outs = Array.concat (Array.to_list outs_nested) in
        Hashtbl.replace inst_results iname outs;
        outs
  (* vec_bit = -1 means "scalar context"; otherwise select that bit of
     vector operands (bitwise semantics of assigns). *)
  and elab_expr stack vec_bit e =
    let mk2 k a b = Netlist.add nl k [| a; b |] in
    match e with
    | E_ref name ->
        let w = width_of name in
        if w = 1 then resolve_bit stack name 0
        else if vec_bit < 0 then fail "vector %s used in scalar context" name
        else if vec_bit >= w then fail "width mismatch on %s" name
        else resolve_bit stack name vec_bit
    | E_bit (name, i) ->
        if i >= width_of name then fail "bit select %s[%d] out of range" name i;
        resolve_bit stack name i
    | E_const bits ->
        let b =
          match bits with
          | [ b ] -> b
          | _ when vec_bit >= 0 && vec_bit < List.length bits -> List.nth bits vec_bit
          | _ -> fail "literal width mismatch"
        in
        Netlist.add nl (Netlist.Const b) [||]
    | E_not a -> Netlist.add nl Netlist.Not [| elab_expr stack vec_bit a |]
    | E_and (a, b) -> mk2 Netlist.And (elab_expr stack vec_bit a) (elab_expr stack vec_bit b)
    | E_or (a, b) -> mk2 Netlist.Or (elab_expr stack vec_bit a) (elab_expr stack vec_bit b)
    | E_xor (a, b) -> mk2 Netlist.Xor (elab_expr stack vec_bit a) (elab_expr stack vec_bit b)
    | E_concat parts ->
        (* verilog lists the MSB first, so walk from the tail (LSB) *)
        let k = if vec_bit < 0 then 0 else vec_bit in
        let rec select parts_lsb_first k =
          match parts_lsb_first with
          | [] -> fail "concatenation bit %d out of range" vec_bit
          | p :: rest ->
              let w = expr_width p in
              if k < w then elab_expr stack (if w = 1 then -1 else k) p
              else select rest (k - w)
        in
        select (List.rev parts) k
    | E_repl (n, a) ->
        let w = expr_width a in
        if n <= 0 then fail "replication count must be positive";
        let k = if vec_bit < 0 then 0 else vec_bit in
        if k >= n * w then fail "replication bit %d out of range" vec_bit;
        elab_expr stack (if w = 1 then -1 else k mod w) a
  in
  Array.of_list
    (List.map
       (fun d -> Array.init d.width (fun i -> resolve_bit [] d.dname i))
       m.outputs)

let elaborate_program mods =
  let modules = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem modules m.mname then fail "duplicate module %s" m.mname;
      Hashtbl.replace modules m.mname m)
    mods;
  let top = List.nth mods (List.length mods - 1) in
  let nl = Netlist.create () in
  let input_nodes =
    Array.of_list
      (List.map
         (fun d ->
           Array.init d.width (fun i ->
               let pin_name =
                 if d.width = 1 then d.dname else Printf.sprintf "%s[%d]" d.dname i
               in
               Netlist.add nl ~name:pin_name Netlist.Input [||]))
         top.inputs)
  in
  let outs = elab_module ~modules ~depth:0 nl top input_nodes in
  List.iteri
    (fun k d ->
      Array.iteri
        (fun i driver ->
          let pin_name =
            if d.width = 1 then d.dname else Printf.sprintf "%s[%d]" d.dname i
          in
          ignore (Netlist.add nl ~name:pin_name Netlist.Output [| driver |]))
        outs.(k))
    top.outputs;
  nl

let parse src =
  try Ok (elaborate_program (parse_source src)) with
  | Error msg -> Result.Error msg
  | Invalid_argument msg -> Result.Error msg

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | content -> Result.map_error (Printf.sprintf "%s: %s" path) (parse content)
  | exception Sys_error msg -> Result.Error msg
