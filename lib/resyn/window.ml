type stats = {
  mutable windows : int;
  mutable proved : int;
  mutable cached : int;
  mutable memoized : int;
  mutable failed : int;
}

type guard = {
  persistent : string Memo.t option;
  memo : (string, bool) Hashtbl.t;
  s : stats;
}

let make ?cache () =
  {
    persistent = cache;
    memo = Hashtbl.create 256;
    s = { windows = 0; proved = 0; cached = 0; memoized = 0; failed = 0 };
  }

let stats g = g.s

let key a b = "rs1:" ^ Netlist.struct_hash a ^ ":" ^ Netlist.struct_hash b

let prove_equal g a b =
  g.s.windows <- g.s.windows + 1;
  let k = key a b in
  match Hashtbl.find_opt g.memo k with
  | Some v ->
      g.s.memoized <- g.s.memoized + 1;
      if not v then g.s.failed <- g.s.failed + 1;
      v
  | None ->
      let remember v =
        Hashtbl.replace g.memo k v;
        if not v then g.s.failed <- g.s.failed + 1;
        v
      in
      let persisted =
        match g.persistent with None -> None | Some c -> c.Memo.find k
      in
      (match persisted with
      | Some verdict ->
          g.s.cached <- g.s.cached + 1;
          remember (verdict = "equal")
      | None ->
          if Netlist.inputs a = [] then remember false
          else begin
            match Cec.check a b with
            | Cec.Equal ->
                g.s.proved <- g.s.proved + 1;
                (match g.persistent with
                | Some c -> c.Memo.store k "equal"
                | None -> ());
                remember true
            | Cec.Diff _ ->
                (* proven non-equivalence: also worth caching *)
                (match g.persistent with
                | Some c -> c.Memo.store k "diff"
                | None -> ());
                remember false
            | Cec.Unknown _ -> remember false
          end)

let cone nl ~root ~leaves ~const_leaf =
  let w = Netlist.create () in
  let memo = Hashtbl.create 32 in
  Array.iter
    (fun leaf ->
      let id =
        match const_leaf leaf with
        | Some b -> Netlist.add w (Netlist.Const b) [||]
        | None -> Netlist.add w Netlist.Input [||]
      in
      Hashtbl.replace memo leaf id)
    leaves;
  let rec build id =
    match Hashtbl.find_opt memo id with
    | Some x -> x
    | None ->
        let fanins = Array.map build (Netlist.fanins nl id) in
        let x = Netlist.add w (Netlist.kind nl id) fanins in
        Hashtbl.replace memo id x;
        x
  in
  let driver = build root in
  ignore (Netlist.add w Netlist.Output [| driver |]);
  w

let impl_window impl ~leaves ~const_leaf =
  let b = Builder.create () in
  let leaf_ids =
    Array.map
      (fun leaf ->
        match const_leaf leaf with
        | Some v -> Builder.const b v
        | None -> Builder.input b ())
      leaves
  in
  let out = Builder.instantiate b impl leaf_ids in
  Builder.output b out;
  Builder.netlist b
