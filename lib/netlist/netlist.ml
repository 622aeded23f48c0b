type kind =
  | Input
  | Output
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Maj
  | Splitter of int

let kind_name = function
  | Input -> "input"
  | Output -> "output"
  | Const false -> "const0"
  | Const true -> "const1"
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | Maj -> "maj"
  | Splitter k -> Printf.sprintf "spl%d" k

let arity = function
  | Input | Const _ -> 0
  | Output | Buf | Not | Splitter _ -> 1
  | And | Or | Nand | Nor | Xor | Xnor -> 2
  | Maj -> 3

type node = {
  id : int;
  mutable kind : kind;
  mutable fanins : int array;
  mutable name : string option;
  mutable phase : int;
}

type t = {
  nodes : node Vec.t;
  mutable input_ids : int list; (* reversed *)
  mutable output_ids : int list; (* reversed *)
}

let create () =
  { nodes = Vec.create (); input_ids = []; output_ids = [] }

let size t = Vec.length t.nodes

let node t i = Vec.get t.nodes i

let add t ?name k fanins =
  if Array.length fanins <> arity k then
    invalid_arg
      (Printf.sprintf "Netlist.add: %s expects %d fanins, got %d"
         (kind_name k) (arity k) (Array.length fanins));
  let n = size t in
  Array.iter
    (fun f ->
      if f < 0 || f >= n then
        invalid_arg (Printf.sprintf "Netlist.add: dangling fanin %d" f))
    fanins;
  let id = Vec.push t.nodes { id = n; kind = k; fanins; name; phase = -1 } in
  (match k with
  | Input -> t.input_ids <- id :: t.input_ids
  | Output -> t.output_ids <- id :: t.output_ids
  | _ -> ());
  id

let kind t i = (node t i).kind
let fanins t i = (node t i).fanins
let phase t i = (node t i).phase
let set_phase t i p = (node t i).phase <- p
let set_fanins t i f = (node t i).fanins <- f
let name t i = (node t i).name

let set_kind t i k =
  let nd = node t i in
  (match (nd.kind, k) with
  | Output, _ | _, Output | Input, _ | _, Input ->
      invalid_arg "Netlist.set_kind: cannot retype IO nodes"
  | _ -> ());
  nd.kind <- k

let inputs t = List.rev t.input_ids
let outputs t = List.rev t.output_ids

let iter t f = Vec.iter f t.nodes
let fold t f acc = Vec.fold f acc t.nodes

let fanout_counts t =
  let counts = Array.make (size t) 0 in
  iter t (fun nd ->
      Array.iter (fun f -> counts.(f) <- counts.(f) + 1) nd.fanins);
  counts

let fanouts t =
  let outs = Array.make (size t) [] in
  iter t (fun nd ->
      Array.iter (fun f -> outs.(f) <- nd.id :: outs.(f)) nd.fanins);
  Array.map List.rev outs

let topo_order t =
  let n = size t in
  let indeg = Array.make n 0 in
  let outs = fanouts t in
  iter t (fun nd -> indeg.(nd.id) <- Array.length nd.fanins);
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let order = Array.make n 0 in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order.(!k) <- i;
    incr k;
    List.iter
      (fun o ->
        indeg.(o) <- indeg.(o) - 1;
        if indeg.(o) = 0 then Queue.add o queue)
      outs.(i)
  done;
  if !k <> n then failwith "Netlist.topo_order: combinational cycle";
  order

let levelize t =
  let order = topo_order t in
  let maxp = ref 0 in
  Array.iter
    (fun i ->
      let nd = node t i in
      let p =
        match nd.kind with
        | Input | Const _ -> 0
        | Output ->
            (* output markers mirror their driver's phase *)
            phase t nd.fanins.(0)
        | _ ->
            1 + Array.fold_left (fun acc f -> max acc (phase t f)) (-1) nd.fanins
      in
      nd.phase <- p;
      if nd.kind <> Output then maxp := max !maxp p)
    order;
  !maxp

type imbalance = Source | Fanin of int

let imbalances t i =
  let nd = node t i in
  match nd.kind with
  | Output -> []
  | Input | Const _ -> if nd.phase = 0 then [] else [ Source ]
  | _ ->
      Array.fold_right
        (fun f acc -> if phase t f = nd.phase - 1 then acc else Fanin f :: acc)
        nd.fanins []

let is_balanced t =
  let rec go i = i >= size t || (imbalances t i = [] && go (i + 1)) in
  go 0

let count_kind t p =
  fold t (fun acc nd -> if p nd.kind then acc + 1 else acc) 0

let validate_diags t =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let dangling = ref false in
  iter t (fun nd ->
      if Array.length nd.fanins <> arity nd.kind then
        push
          (Diag.error ~rule:"NL-ARITY-01" (Diag.Node nd.id)
             "%s expects %d fanin(s), has %d" (kind_name nd.kind)
             (arity nd.kind)
             (Array.length nd.fanins));
      Array.iter
        (fun f ->
          if f < 0 || f >= size t then begin
            dangling := true;
            push
              (Diag.error ~rule:"NL-DANGLE-01" (Diag.Node nd.id)
                 "dangling fanin id %d (netlist has %d nodes)" f (size t))
          end)
        nd.fanins);
  (* fanout-dependent checks need in-range fanin ids *)
  if not !dangling then begin
    let counts = fanout_counts t in
    iter t (fun nd ->
        match nd.kind with
        | Splitter k when counts.(nd.id) <> k ->
            push
              (Diag.error ~rule:"NL-FANOUT-01" (Diag.Node nd.id)
                 "splitter declares %d outputs but drives %d consumer(s)" k
                 counts.(nd.id))
        | _ -> ());
    try ignore (topo_order t)
    with Failure msg -> push (Diag.error ~rule:"NL-CYCLE-01" Diag.Global "%s" msg)
  end;
  List.rev !diags

let copy t =
  (* fan-ins may reference later ids (edge rewiring during insertion
     creates forward references), so build placeholders first and wire
     the real fan-ins in a second pass *)
  let t' = create () in
  iter t (fun nd ->
      let placeholder = Array.map (fun f -> if f < nd.id then f else 0) nd.fanins in
      let id = add t' ?name:nd.name nd.kind placeholder in
      (node t' id).phase <- nd.phase);
  iter t (fun nd -> set_fanins t' nd.id (Array.copy nd.fanins));
  t'

let pp_stats ppf t =
  Format.fprintf ppf "nodes=%d inputs=%d outputs=%d maj=%d buf=%d spl=%d"
    (size t)
    (List.length (inputs t))
    (List.length (outputs t))
    (count_kind t (fun k -> k = Maj))
    (count_kind t (fun k -> k = Buf))
    (count_kind t (function Splitter _ -> true | _ -> false))

let commutative = function
  | And | Or | Nand | Nor | Xor | Xnor | Maj -> true
  | Input | Output | Const _ | Buf | Not | Splitter _ -> false

let struct_hash t =
  (* canonical structural dump: kinds + fan-in wiring in id order;
     names and phases deliberately excluded so that relabeled but
     identically-wired netlists hash alike, and commutative fan-ins
     sorted so operand order does not defeat the hash *)
  let buf = Buffer.create 1024 in
  iter t (fun nd ->
      Buffer.add_string buf (kind_name nd.kind);
      let fanins =
        if commutative nd.kind && Array.length nd.fanins > 1 then begin
          let fs = Array.copy nd.fanins in
          Array.sort compare fs;
          fs
        end
        else nd.fanins
      in
      Array.iter
        (fun f ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int f))
        fanins;
      Buffer.add_char buf '\n');
  Digest.to_hex (Digest.string (Buffer.contents buf))
