(* Verification and test signoff: after the physical flow, formally
   prove the synthesized AQFP netlist equals the RTL with the flow's own
   equivalence gate, then generate a compact manufacturing test set
   with stuck-at fault coverage.

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

  (* 3. manufacturing tests on the netlist that will be fabricated *)
  let tests = Fault.generate ~seed:11 r.Flow.aqfp_netlist in
  Format.printf "test generation: %d vectors, %.1f%% stuck-at coverage@."
    (List.length tests.Fault.vectors)
    (100.0 *. tests.Fault.achieved);
  (match tests.Fault.undetected with
  | [] -> Format.printf "no undetected faults.@."
  | fs ->
      Format.printf "%d undetected fault(s), e.g. %a@." (List.length fs)
        Fault.pp_fault (List.hd fs));

  (* 4. demonstrate failure diagnosis: inject one stuck-at defect
     into a "die", apply the tests, look the failure up *)
  (match Fault.all_faults r.Flow.aqfp_netlist with
  | defect :: _ when tests.Fault.vectors <> [] ->
      let observed =
        List.map
          (fun v -> Fault.faulty_response r.Flow.aqfp_netlist defect v)
          tests.Fault.vectors
      in
      let suspects = Fault.diagnose r.Flow.aqfp_netlist tests.Fault.vectors observed in
      Format.printf "diagnosis drill: injected %a -> %d suspect location(s)%s@."
        Fault.pp_fault defect (List.length suspects)
        (if List.mem defect suspects then " (defect found)" else "")
  | _ -> ());

  (* 5. timing, variation yield, energy *)
  Format.printf "timing (post-route): %a@." Sta.pp_report r.Flow.sta;
  let y = Sta.monte_carlo r.Flow.problem in
  Format.printf "timing yield under JJ variation: %.0f%% (%d samples)@."
    (100.0 *. y.Sta.yield_fraction) y.Sta.samples;
  Format.printf "energy: %a@." Energy.pp r.Flow.energy
