open Parsetree

type fact =
  | Hashtbl_iter of string
  | Sort_call
  | Time_call of string
  | Marshal_use of string
  | Poly_use of string
  | Global_mut of string * string
  | Catch_all
  | Unlabeled_parallel of string
  | Parallel_label of string
  | Print_call of string
  | Exit_call
  | Rule_string of string

type site = { fact : fact; line : int; col : int; item : int }

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> [ "<apply>" ]

let dotted l = String.concat "." l

(* string literals shaped like diagnostic ids: >= 2 dash-separated
   [A-Z0-9] segments, alphabetic first segment, no empty segment *)
let idish s =
  let segs = String.split_on_char '-' s in
  let all p seg = seg <> "" && String.for_all p seg in
  match segs with
  | first :: (_ :: _ as rest) ->
      all (fun c -> c >= 'A' && c <= 'Z') first
      && String.length first >= 2
      && List.for_all
           (all (fun c -> (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')))
           rest
  | _ -> false

let parallel_fns = [ "map_chunks"; "parallel_init" ]

let stdout_printers =
  [ "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes" ]

let classify path =
  match path with
  | [ "Hashtbl"; (("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") as f) ] ->
      Some (Hashtbl_iter f)
  | [ ("List" | "Array" | "ListLabels" | "ArrayLabels");
      ("sort" | "sort_uniq" | "stable_sort" | "fast_sort") ] ->
      Some Sort_call
  | [ "Sys"; "time" ] -> Some (Time_call "Sys.time")
  | [ "Unix"; (("gettimeofday" | "time" | "times") as f) ] -> Some (Time_call ("Unix." ^ f))
  | [ "Random"; "self_init" ] -> Some (Time_call "Random.self_init")
  | "Marshal" :: _ :: _ -> Some (Marshal_use (dotted path))
  | [ "compare" ] | [ "Stdlib"; "compare" ] | [ "Pervasives"; "compare" ] ->
      Some (Poly_use (dotted path))
  | [ "Hashtbl"; (("hash" | "seeded_hash") as f) ] -> Some (Poly_use ("Hashtbl." ^ f))
  | [ f ] when List.mem f stdout_printers -> Some (Print_call f)
  | [ ("Printf" | "Format"); "printf" ] -> Some (Print_call (dotted path))
  | [ "exit" ] | [ "Stdlib"; "exit" ] -> Some Exit_call
  | _ -> None

let mutable_creators =
  [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Buffer"; "create" ];
    [ "Array"; "make" ]; [ "Array"; "create_float" ]; [ "Bytes"; "create" ];
    [ "Bytes"; "make" ]; [ "Atomic"; "make" ]; [ "Queue"; "create" ];
    [ "Stack"; "create" ] ]

let rec pattern_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p', _) -> pattern_name p'
  | _ -> None

let is_any p = match p.ppat_desc with Ppat_any -> true | _ -> false

let scan (str : structure) : site list =
  let sites = ref [] in
  let item = ref (-1) in
  let add fact (loc : Location.t) =
    let p = loc.Location.loc_start in
    sites :=
      { fact; line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        item = !item }
      :: !sites
  in
  let expr_hook (it : Ast_iterator.iterator) (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match classify (flatten txt) with
        | Some f -> add f e.pexp_loc
        | None -> ())
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (Longident.Lident "Parallel", fn); _ }; _ },
          args )
      when List.mem fn parallel_fns -> (
        match List.assoc_opt (Asttypes.Labelled "label") args with
        | None -> add (Unlabeled_parallel fn) e.pexp_loc
        | Some { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); pexp_loc; _ } ->
            add (Parallel_label s) pexp_loc
        | Some _ -> ())
    | Pexp_try (_, cases) ->
        List.iter
          (fun c -> if is_any c.pc_lhs then add Catch_all c.pc_lhs.ppat_loc)
          cases
    | Pexp_match (_, cases) ->
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception p when is_any p -> add Catch_all c.pc_lhs.ppat_loc
            | _ -> ())
          cases
    | Pexp_constant (Pconst_string (s, sloc, _)) ->
        if idish s then add (Rule_string s) sloc
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let structure_item_hook (it : Ast_iterator.iterator) (si : structure_item) =
    (match si.pstr_desc with
    | Pstr_value (_, bindings) ->
        List.iter
          (fun vb ->
            match vb.pvb_expr.pexp_desc with
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
              when List.mem (flatten txt) mutable_creators ->
                let name = Option.value ~default:"_" (pattern_name vb.pvb_pat) in
                add (Global_mut (name, dotted (flatten txt))) vb.pvb_loc
            | _ -> ())
          bindings
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it si
  in
  let it =
    { Ast_iterator.default_iterator with
      expr = expr_hook; structure_item = structure_item_hook }
  in
  List.iteri
    (fun i si ->
      item := i;
      it.Ast_iterator.structure_item it si)
    str;
  List.rev !sites
