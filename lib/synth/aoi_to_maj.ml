(* ---- realizer ----

   A fresh netlist with structural hashing (commutative fan-ins in
   sorted order, double negations collapsed), into which database
   implementations are instantiated over concrete leaf signals. Both
   mappings below build through it. Unlike Builder, it keeps constant
   operands symbolic and does not fold complements; routing it through
   Builder changes the mapped netlists. *)

type realizer = {
  out : Netlist.t;
  hash : (Netlist.kind * int list, int) Hashtbl.t;
  memo : int array;  (** source node -> result node, [-1] until built *)
}

(* all primary inputs exist in the result, in the original order,
   even if the mapped logic no longer reads some of them *)
let realizer nl =
  let r =
    {
      out = Netlist.create ();
      hash = Hashtbl.create 256;
      memo = Array.make (Netlist.size nl) (-1);
    }
  in
  List.iter
    (fun iid ->
      r.memo.(iid) <- Netlist.add r.out ?name:(Netlist.name nl iid) Netlist.Input [||])
    (Netlist.inputs nl);
  r

(* one output marker per source output, in order, each driven by
   [driver] of the source driver *)
let finish r nl driver =
  List.iter
    (fun oid ->
      let d = driver (Netlist.fanins nl oid).(0) in
      ignore (Netlist.add r.out ?name:(Netlist.name nl oid) Netlist.Output [| d |]))
    (Netlist.outputs nl);
  r.out

let hashed r kind fanins =
  let key_fanins =
    if Netlist.commutative kind then List.sort Int.compare fanins else fanins
  in
  match Hashtbl.find_opt r.hash (kind, key_fanins) with
  | Some id -> id
  | None ->
      let id = Netlist.add r.out kind (Array.of_list fanins) in
      Hashtbl.replace r.hash (kind, key_fanins) id;
      id

let hashed_not r id =
  if Netlist.kind r.out id = Netlist.Not then (Netlist.fanins r.out id).(0)
  else hashed r Netlist.Not [ id ]

let hashed_const r b = hashed r (Netlist.Const b) []

(* Operands resolve to a concrete signal or a symbolic constant, so a
   majority with constant operands degenerates to [And]/[Or], a wire or
   a constant without ever materializing the constant it reads. *)
let instantiate r impl leaf_ids =
  let n_leaves = Array.length leaf_ids in
  let gate_ids = Array.make (Array.length impl.Maj_db.gates) (-1) in
  let resolve = function
    | Maj_db.Cst b -> `Cst b
    | Maj_db.Var (k, neg) ->
        if k >= n_leaves then `Cst neg (* don't-care input: feed a constant *)
        else if neg then `Sig (hashed_not r leaf_ids.(k))
        else `Sig leaf_ids.(k)
    | Maj_db.Gate (i, neg) ->
        let g = gate_ids.(i) in
        if neg then `Sig (hashed_not r g) else `Sig g
  in
  let build_maj ra rb rc =
    let consts = List.filter_map (function `Cst b -> Some b | `Sig _ -> None) [ ra; rb; rc ] in
    let sigs = List.filter_map (function `Sig s -> Some s | `Cst _ -> None) [ ra; rb; rc ] in
    match (consts, sigs) with
    | [], [ a; b; c ] ->
        if a = b then a
        else if a = c then a
        else if b = c then b
        else hashed r Netlist.Maj [ a; b; c ]
    | [ k ], [ a; b ] ->
        if a = b then a
        else if k then hashed r Netlist.Or [ a; b ]
        else hashed r Netlist.And [ a; b ]
    | [ k1; k2 ], [ a ] -> if k1 = k2 then hashed_const r k1 else a
    | [ k1; k2; k3 ], [] ->
        let majority = (k1 && k2) || (k1 && k3) || (k2 && k3) in
        hashed_const r majority
    | _ -> assert false
  in
  Array.iteri
    (fun i g ->
      gate_ids.(i) <-
        build_maj (resolve g.Maj_db.a) (resolve g.Maj_db.b) (resolve g.Maj_db.c))
    impl.Maj_db.gates;
  match resolve impl.Maj_db.out with
  | `Sig s -> s
  | `Cst b -> hashed_const r b

(* ---- cut cover ---- *)

let convert_cover nl =
  let cuts = Cuts.enumerate nl in
  let n = Netlist.size nl in
  let fanout = Netlist.fanout_counts nl in
  (* Area-flow mapping: cheapest cover estimate per node. *)
  let af = Array.make n infinity in
  let best_cut = Array.make n None in
  Array.iter
    (fun id ->
      match Netlist.kind nl id with
      | Netlist.Input | Netlist.Const _ -> af.(id) <- 0.0
      | Netlist.Output -> ()
      | _ ->
          List.iter
            (fun c ->
              if not (Cuts.is_trivial id c) then begin
                let gate_cost = float_of_int (Maj_db.cost (Cuts.tt3 c)) in
                let leaf_cost =
                  Array.fold_left
                    (fun acc leaf ->
                      acc +. (af.(leaf) /. float_of_int (max 1 fanout.(leaf))))
                    0.0 c.Cuts.leaves
                in
                let total = gate_cost +. leaf_cost in
                if total < af.(id) then begin
                  af.(id) <- total;
                  best_cut.(id) <- Some c
                end
              end)
            cuts.(id))
    (Netlist.topo_order nl);
  (* realization, from the outputs down: only logic the cover reaches
     is built *)
  let r = realizer nl in
  let rec realize id =
    if r.memo.(id) >= 0 then r.memo.(id)
    else begin
      let result =
        match Netlist.kind nl id with
        | Netlist.Const b -> hashed_const r b
        | Netlist.Input | Netlist.Output -> assert false
        | _ ->
            let c = Option.get best_cut.(id) in
            instantiate r (Maj_db.lookup (Cuts.tt3 c)) (Array.map realize c.Cuts.leaves)
      in
      r.memo.(id) <- result;
      result
    end
  in
  finish r nl realize

(* Per-gate mapping: realize each AOI gate from the database entry of
   its own 2-input function — no cut enumeration, no collapsing. *)
let convert_naive nl =
  let r = realizer nl in
  let gate_tt = function
    | Netlist.And -> 0b1000
    | Netlist.Or -> 0b1110
    | Netlist.Nand -> 0b0111
    | Netlist.Nor -> 0b0001
    | Netlist.Xor -> 0b0110
    | Netlist.Xnor -> 0b1001
    | _ -> invalid_arg "gate_tt"
  in
  Array.iter
    (fun id ->
      if r.memo.(id) < 0 then
        let f k = r.memo.((Netlist.fanins nl id).(k)) in
        r.memo.(id) <-
          (match Netlist.kind nl id with
          | Netlist.Input -> r.memo.(id)
          | Netlist.Output -> -1
          | Netlist.Const b -> hashed_const r b
          | Netlist.Buf -> f 0
          | Netlist.Not -> hashed_not r (f 0)
          | (Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor | Netlist.Xor
            | Netlist.Xnor) as k ->
              (* 2-var function padded to the 3-var database *)
              let tt2 = gate_tt k in
              instantiate r (Maj_db.lookup (tt2 lor (tt2 lsl 4))) [| f 0; f 1 |]
          | Netlist.Maj | Netlist.Splitter _ ->
              invalid_arg "Aoi_to_maj.convert_naive: input must be AOI"))
    (Netlist.topo_order nl);
  finish r nl (fun f -> r.memo.(f))

(* ---- selection ---- *)

type stats = {
  aoi_gates : int;
  maj_gates : int;
  jj_before : int;
  jj_after : int;
}

let is_gate = function
  | Netlist.Input | Netlist.Output | Netlist.Const _ -> false
  | _ -> true

(* Cut collapsing can occasionally lose to per-gate mapping on heavily
   shared logic (a collapsed cut re-synthesizes internal nodes that
   other cuts also need). Keeping the cheaper of the two per design
   makes the "most resource-efficient mapping" selection global. *)
let convert_with_stats nl =
  let cover = convert_cover nl in
  let naive = convert_naive nl in
  let out =
    if Cell.netlist_jj_count naive < Cell.netlist_jj_count cover then naive else cover
  in
  (* jj_before: cost of mapping every AOI gate individually. *)
  let jj_before =
    Netlist.fold nl
      (fun acc nd ->
        match nd.Netlist.kind with
        | Netlist.And | Netlist.Or -> acc + 6
        | Netlist.Nand | Netlist.Nor -> acc + 8
        | Netlist.Xor | Netlist.Xnor ->
            acc + Maj_db.cost (Cuts.tt3 { Cuts.leaves = [| 0; 1 |]; tt = 0b0110 })
        | Netlist.Not | Netlist.Buf -> acc + 2
        | _ -> acc)
      0
  in
  let stats =
    {
      aoi_gates = Netlist.count_kind nl is_gate;
      maj_gates = Netlist.count_kind cover is_gate;
      jj_before;
      jj_after = Cell.netlist_jj_count out;
    }
  in
  (out, stats)

let convert nl = fst (convert_with_stats nl)
