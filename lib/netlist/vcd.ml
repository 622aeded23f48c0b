(* VCD identifier codes: printable ASCII 33..126, shortest-first. *)
let code_of_index i =
  let base = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let signal_values nl inputs =
  (* evaluate once, returning the value of EVERY node *)
  let values = Array.make (Netlist.size nl) false in
  List.iteri (fun i id -> values.(id) <- inputs.(i)) (Netlist.inputs nl);
  let order = Netlist.topo_order nl in
  Array.iter
    (fun id ->
      let f = Netlist.fanins nl id in
      let v k = values.(f.(k)) in
      let r =
        match Netlist.kind nl id with
        | Netlist.Input -> values.(id)
        | Const b -> b
        | Buf | Output | Splitter _ -> v 0
        | Not -> not (v 0)
        | And -> v 0 && v 1
        | Or -> v 0 || v 1
        | Nand -> not (v 0 && v 1)
        | Nor -> not (v 0 || v 1)
        | Xor -> v 0 <> v 1
        | Xnor -> v 0 = v 1
        | Maj -> (v 0 && v 1) || (v 0 && v 2) || (v 1 && v 2)
      in
      values.(id) <- r)
    order;
  values

let of_vectors ?(dump_internal = false) nl vectors =
  let n_in = List.length (Netlist.inputs nl) in
  List.iter
    (fun v ->
      if Array.length v <> n_in then invalid_arg "Vcd.of_vectors: vector arity mismatch")
    vectors;
  (* traced signals: (node id, vcd name) *)
  let traced = ref [] in
  let name_of nd =
    match nd.Netlist.name with
    | Some s ->
        String.map (fun c -> if c = ' ' then '_' else c) s
    | None -> Printf.sprintf "n%d" nd.Netlist.id
  in
  Netlist.iter nl (fun nd ->
      let wanted =
        match nd.Netlist.kind with
        | Netlist.Input | Netlist.Output -> true
        | _ -> dump_internal
      in
      if wanted then traced := (nd.Netlist.id, name_of nd) :: !traced);
  let traced = List.rev !traced in
  let codes = List.mapi (fun i (id, name) -> (id, name, code_of_index i)) traced in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "$date superflow simulation $end\n";
  add "$version superflow 0.1.0 $end\n";
  add "$timescale 1ns $end\n";
  add "$scope module superflow $end\n";
  List.iter (fun (_, name, code) -> add "$var wire 1 %s %s $end\n" code name) codes;
  add "$upscope $end\n$enddefinitions $end\n";
  let last = Hashtbl.create (List.length codes) in
  List.iteri
    (fun t vector ->
      let values = signal_values nl vector in
      add "#%d\n" t;
      List.iter
        (fun (id, _, code) ->
          let v = values.(id) in
          let changed =
            match Hashtbl.find_opt last code with
            | Some prev -> prev <> v
            | None -> true
          in
          if changed then begin
            Hashtbl.replace last code v;
            add "%c%s\n" (if v then '1' else '0') code
          end)
        codes)
    vectors;
  add "#%d\n" (List.length vectors);
  Buffer.contents buf

let write_file path ?dump_internal nl vectors =
  let oc = open_out path in
  output_string oc (of_vectors ?dump_internal nl vectors);
  close_out oc
