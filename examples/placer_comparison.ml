(* Placement study: run the three placers of the paper's Table III on
   one benchmark circuit and compare wirelength, max-wirelength buffer
   lines, and worst negative slack — the experiment behind the paper's
   12.8% / 12.1% claims, on a single circuit.

     dune exec examples/placer_comparison.exe [circuit]   (default apc32) *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "apc32" in
  Format.printf "Placer comparison on %s@." name;
  let aoi =
    try Circuits.benchmark name
    with Not_found ->
      Format.eprintf "unknown benchmark %s (try: %s)@." name
        (String.concat ", " Circuits.benchmark_names);
      exit 1
  in
  let aqfp, synth = Synth_flow.run aoi in
  Format.printf "synthesized: %a@.@." Synth_flow.pp_report synth;
  let t = Table.create ~headers:[ "placer"; "HPWL (um)"; "buffer lines"; "WNS (ps)"; "runtime (s)" ] in
  Table.set_align t [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ];
  let results =
    List.map
      (fun alg ->
        let p = Problem.of_netlist Tech.default aqfp in
        let r = Placer.place alg p in
        let sta = Sta.analyze p in
        Table.add_row t
          [
            Placer.algorithm_name alg;
            Table.fmt_float ~dec:0 r.Placer.hpwl;
            string_of_int r.Placer.buffer_lines;
            (if Sta.meets_timing sta then "-" else Table.fmt_float sta.Sta.wns_ps);
            Table.fmt_float ~dec:2 r.Placer.runtime_s;
          ];
        (alg, r, sta))
      [ Placer.Gordian; Placer.Taas; Placer.Superflow ]
  in
  Table.print t;
  (* headline ratios, SuperFlow vs the baselines *)
  let find alg = List.find (fun (a, _, _) -> a = alg) results in
  let _, sf, sf_sta = find Placer.Superflow in
  let _, taas, taas_sta = find Placer.Taas in
  Format.printf "@.SuperFlow vs TAAS: %.1f%% wirelength, WNS %.1f vs %.1f ps@."
    (100.0 *. sf.Placer.hpwl /. taas.Placer.hpwl)
    sf_sta.Sta.wns_ps taas_sta.Sta.wns_ps
