(* Verification signoff: after the physical flow, formally prove the
   synthesized AQFP netlist equals the RTL with the flow's own
   equivalence gate, then report post-route timing and energy.

     dune exec examples/signoff.exe [circuit]   (default adder8) *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "adder8" in
  let aoi =
    try Circuits.benchmark name
    with Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      exit 1
  in
  Format.printf "Signoff for %s@." name;
  Format.printf "================@.@.";

  (* 1. physical flow *)
  let r = Flow.run aoi in
  Format.printf "flow: %d cells, %d nets, DRC %s@."
    (Array.length r.Flow.problem.Problem.cells)
    (Array.length r.Flow.problem.Problem.nets)
    (if r.Flow.violations = [] then "clean" else "VIOLATIONS");

  (* 2. functional signoff: every output proven, as the flow's gate does;
     a warning means an output was only sampled, an error that it differs *)
  (match Equiv.check_pair ~stage:"rtl->aqfp" aoi r.Flow.aqfp_netlist with
  | [] -> Format.printf "equivalence: PROVEN@."
  | diags ->
      List.iter (fun d -> Format.printf "equivalence: %s@." (Diag.to_string d)) diags;
      if Diag.count Diag.Error diags > 0 then exit 1);

  (* 3. timing and energy *)
  Format.printf "timing (post-route): %a@." Sta.pp_report r.Flow.sta;
  Format.printf "energy: %a@." Energy.pp r.Flow.energy
