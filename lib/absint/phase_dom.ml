(* Phase-arrival intervals: structural path-balance proof. *)

let hull (lo1, hi1) (lo2, hi2) = (min lo1 lo2, max hi1 hi2)

let transfer nl id facts =
  let f = Netlist.fanins nl id in
  match Netlist.kind nl id with
  | Netlist.Input | Netlist.Const _ -> (0, 0)
  | Netlist.Output -> facts.(f.(0))  (* marker, not a gate *)
  | _ ->
      let lo, hi =
        Array.fold_left (fun h fi -> hull h facts.(fi)) facts.(f.(0)) f
      in
      (lo + 1, hi + 1)

(* bot is never observed by a transfer (sources have no fan-ins) *)
let solve nl =
  Absint.forward nl ~bot:(max_int, min_int) ~transfer:(fun id facts ->
      transfer nl id facts)

(* Longest arrival chain from a primary input/constant down to [id]:
   at each step, the leftmost fan-in on a critical (hi-preserving)
   path. *)
let longest_chain nl facts id =
  let next i =
    let f = Netlist.fanins nl i in
    if Array.length f = 0 then None
    else begin
      let _, hi = facts.(i) in
      let want = match Netlist.kind nl i with Netlist.Output -> hi | _ -> hi - 1 in
      let r = ref f.(0) in
      (try
         Array.iter
           (fun fi ->
             if snd facts.(fi) = want then begin
               r := fi;
               raise Exit
             end)
           f
       with Exit -> ());
      Some !r
    end
  in
  List.rev (Absint.chase ~limit:(Netlist.size nl) id next)

let check nl facts =
  let diags = ref [] in
  Netlist.iter nl (fun nd ->
      let i = nd.Netlist.id in
      let f = nd.Netlist.fanins in
      if Array.length f >= 2 && nd.Netlist.kind <> Netlist.Output then begin
        let all_singleton =
          Array.for_all (fun fi -> fst facts.(fi) = snd facts.(fi)) f
        in
        if all_singleton then begin
          (* earliest reconvergence: balanced fan-in cones arriving at
             different phases *)
          let late = ref f.(0) and early = ref f.(0) in
          Array.iter
            (fun fi ->
              if snd facts.(fi) > snd facts.(!late) then late := fi;
              if snd facts.(fi) < snd facts.(!early) then early := fi)
            f;
          if snd facts.(!late) <> snd facts.(!early) then
            diags :=
              Diag.error
                ~witness:(Absint.path_witness nl (longest_chain nl facts i))
                ~rule:"AI-PHASE-01" (Diag.Node i)
                "unbalanced reconvergence: fanin %d arrives at phase %d but \
                 fanin %d at phase %d (%s gate needs all fan-ins in one phase)"
                !late (snd facts.(!late)) !early (snd facts.(!early))
                (Netlist.kind_name nd.Netlist.kind)
              :: !diags
        end
      end);
  List.rev !diags
