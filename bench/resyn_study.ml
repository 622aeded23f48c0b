(* Resynthesis QoR benchmark. Each design runs synthesis, then the
   sf_resyn engine at full effort — twice, sharing one CEC verdict
   cache, so the second (warm) run must prove zero fresh windows.
   Each run prints one machine-readable line

     BENCH_RESYN {"circuit":...,"run":"cold"|"warm","seconds":...,
                  "jj_before":...,"jj_after":...,"depth_before":...,
                  "depth_after":...,"buffers_before":...,
                  "buffers_after":...,"maj_before":...,"maj_after":...,
                  "rounds":...,"tried":...,"accepted":...,
                  "cec_windows":...,"cec_proved":...,"cec_cached":...,
                  "cec_hit_rate":...}

   so CI can track the deltas and the cache behaviour over time.

     dune exec bench/resyn_study.exe            # every bundled design
     dune exec bench/resyn_study.exe -- quick   # CI subset
     dune exec bench/resyn_study.exe -- check   # CI subset compared against
                                                # bench/resyn_baselines.txt
                                                # (exit 1 on any QoR regression,
                                                # a worsened design, a warm
                                                # rerun that re-proves windows,
                                                # or a CEC mismatch) *)

let quick = Array.exists (fun a -> a = "quick") Sys.argv
let check = Array.exists (fun a -> a = "check") Sys.argv

let circuits =
  let named =
    List.filter
      (fun a -> List.mem a (Circuits.benchmark_names))
      (Array.to_list Sys.argv)
  in
  if named <> [] then named
  else if quick || check then [ "adder8"; "apc32"; "sorter32"; "c432" ]
  else Circuits.benchmark_names

(* in-process stand-in for the design database's proof store *)
let make_cache () =
  let tbl : (string, string) Hashtbl.t = Hashtbl.create 256 in
  {
    Memo.find = (fun k -> Hashtbl.find_opt tbl k);
    store = (fun k v -> Hashtbl.replace tbl k v);
  }

let run_one name cache tag aqfp0 =
  let (aqfp1, r), seconds =
    Wallclock.time (fun () -> Resyn.run ~effort:Resyn.Full ~cache aqfp0)
  in
  let hit_rate =
    if r.Resyn.cec.Resyn.windows = 0 then 1.0
    else
      float_of_int (r.Resyn.cec.Resyn.cached + r.Resyn.cec.Resyn.memoized)
      /. float_of_int r.Resyn.cec.Resyn.windows
  in
  Printf.printf
    "BENCH_RESYN {\"circuit\":\"%s\",\"run\":\"%s\",\"seconds\":%.3f,\"jj_before\":%d,\"jj_after\":%d,\"depth_before\":%d,\"depth_after\":%d,\"buffers_before\":%d,\"buffers_after\":%d,\"maj_before\":%d,\"maj_after\":%d,\"rounds\":%d,\"tried\":%d,\"accepted\":%d,\"cec_windows\":%d,\"cec_proved\":%d,\"cec_cached\":%d,\"cec_hit_rate\":%.3f}\n%!"
    name tag seconds r.Resyn.jj_before r.Resyn.jj_after r.Resyn.depth_before
    r.Resyn.depth_after r.Resyn.buffers_before r.Resyn.buffers_after
    r.Resyn.maj_before r.Resyn.maj_after r.Resyn.rounds (Resyn.rewrites_tried r)
    (Resyn.rewrites_accepted r) r.Resyn.cec.Resyn.windows
    r.Resyn.cec.Resyn.proved r.Resyn.cec.Resyn.cached hit_rate;
  (aqfp1, r)

let measure name =
  let aqfp0 = Synth_flow.run_quiet (Circuits.benchmark name) in
  let cache = make_cache () in
  let aqfp1, cold = run_one name cache "cold" aqfp0 in
  let aqfp1', warm = run_one name cache "warm" aqfp0 in
  if Netlist.struct_hash aqfp1' <> Netlist.struct_hash aqfp1 then begin
    Printf.eprintf "resyn_study: %s: warm rerun produced a different netlist\n"
      name;
    exit 1
  end;
  (aqfp0, aqfp1, cold, warm)

(* ---- QoR guard against committed baselines ---- *)

type baseline = {
  b_circuit : string;
  b_jj_before : int;
  b_jj_after : int;
  b_depth_before : int;
  b_depth_after : int;
}

let baselines_path () =
  if Sys.file_exists "bench/resyn_baselines.txt" then
    "bench/resyn_baselines.txt"
  else "resyn_baselines.txt"

let load_baselines () =
  let ic = open_in (baselines_path ()) in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop acc
        else
          let b =
            Scanf.sscanf line "%s %d %d %d %d"
              (fun b_circuit b_jj_before b_jj_after b_depth_before b_depth_after ->
                { b_circuit; b_jj_before; b_jj_after; b_depth_before; b_depth_after })
          in
          loop (b :: acc)
  in
  loop []

let check_guard () =
  let baselines = load_baselines () in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failures;
        Printf.printf "resyn QoR guard: %s\n" m)
      fmt
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let aqfp0, aqfp1, cold, warm = measure name in
      (* the engine must never worsen either axis *)
      if cold.Resyn.jj_after > cold.Resyn.jj_before then
        fail "%s: JJ count worsened (%d -> %d)" name cold.Resyn.jj_before
          cold.Resyn.jj_after;
      if cold.Resyn.depth_after > cold.Resyn.depth_before then
        fail "%s: phase depth worsened (%d -> %d)" name cold.Resyn.depth_before
          cold.Resyn.depth_after;
      (* the warm rerun must serve every verdict from the cache *)
      if warm.Resyn.cec.Resyn.proved > 0 then
        fail "%s: warm rerun re-proved %d window(s)" name
          warm.Resyn.cec.Resyn.proved;
      (* end-to-end equivalence of the optimized netlist *)
      (match Cec.check aqfp0 aqfp1 with
      | Cec.Equal -> ()
      | Cec.Diff _ -> fail "%s: post-resyn netlist is NOT equivalent" name
      | Cec.Unknown _ -> fail "%s: post-resyn equivalence unknown" name);
      Hashtbl.replace results name cold)
    circuits;
  List.iter
    (fun b ->
      match Hashtbl.find_opt results b.b_circuit with
      | None ->
          Printf.printf "resyn QoR guard: %s not measured (skipped)\n" b.b_circuit
      | Some r ->
          (* committed values are a floor: never regress them *)
          if r.Resyn.jj_after > b.b_jj_after then
            fail "%s: JJ regressed vs baseline: %d vs %d" b.b_circuit
              r.Resyn.jj_after b.b_jj_after;
          if r.Resyn.depth_after > b.b_depth_after then
            fail "%s: depth regressed vs baseline: %d vs %d" b.b_circuit
              r.Resyn.depth_after b.b_depth_after)
    baselines;
  if !failures = 0 then print_endline "resyn QoR guard: OK"
  else begin
    Printf.printf "resyn QoR guard: %d violation(s)\n" !failures;
    exit 1
  end

let () =
  if check then check_guard ()
  else begin
    let improved = ref 0 in
    List.iter
      (fun name ->
        let _, _, cold, _ = measure name in
        if
          cold.Resyn.jj_after < cold.Resyn.jj_before
          || cold.Resyn.depth_after < cold.Resyn.depth_before
        then incr improved)
      circuits;
    Printf.printf "resyn_study: %d/%d designs strictly improved\n" !improved
      (List.length circuits)
  end
