(* Route benchmark: wall time and QoR of both routing algorithms per
   circuit. Each run prints one machine-readable line

     BENCH_ROUTE {"circuit":...,"alg":...,"seconds":...,
                  "wirelength":...,"vias":...,"space_expansions":...,
                  "node_expansions":...,"rounds":...,"rerouted":...}

   so CI can track routing time and QoR drift over time.

     dune exec bench/route_study.exe            # full set (incl. apc128)
     dune exec bench/route_study.exe -- quick   # small circuits
     dune exec bench/route_study.exe -- check   # small circuits, compared
                                                # against bench/route_baselines.txt
                                                # (exit 1 on >1% QoR drift) *)

let quick = Array.exists (fun a -> a = "quick") Sys.argv
let check = Array.exists (fun a -> a = "check") Sys.argv

let circuits =
  (* explicit benchmark names on the command line win; decoder's
     negotiated routing takes minutes, so the CI subset stops at
     apc32 *)
  let named =
    List.filter
      (fun a -> List.mem a (Circuits.benchmark_names))
      (Array.to_list Sys.argv)
  in
  if named <> [] then named
  else if quick || check then [ "adder8"; "apc32" ]
  else [ "adder8"; "apc32"; "decoder"; "sorter32"; "c432"; "apc128" ]

let alg_name = function
  | Router.Sequential -> "sequential"
  | Router.Negotiated -> "negotiated"

(* One routing run on a fresh (deterministically re-placed) problem, so
   runs can't contaminate each other through space expansion's
   row-gap mutation. The timed region is route_all only. *)
let run name aqfp alg =
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  let r, seconds =
    Wallclock.time (fun () -> Router.route_all ~algorithm:alg p)
  in
  (match Router.check_routes p r with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "route_study: %s %s: invalid routing: %s\n" name
        (alg_name alg) e;
      exit 1);
  Printf.printf
    "BENCH_ROUTE {\"circuit\":\"%s\",\"alg\":\"%s\",\"seconds\":%.3f,\"wirelength\":%.0f,\"vias\":%d,\"space_expansions\":%d,\"node_expansions\":%d,\"rounds\":%d,\"rerouted\":%d}\n%!"
    name (alg_name alg) seconds r.Router.wirelength
    r.Router.total_vias r.Router.expansions r.Router.node_expansions
    r.Router.neg_rounds r.Router.neg_rerouted;
  r

(* ---- QoR guard against committed baselines ---- *)

type baseline = {
  b_circuit : string;
  b_alg : string;
  b_wl : float;
  b_vias : int;
  b_exp : int;
}

let baselines_path () =
  (* dune exec runs from the project root; be tolerant of cwd=bench *)
  if Sys.file_exists "bench/route_baselines.txt" then
    "bench/route_baselines.txt"
  else "route_baselines.txt"

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
            Scanf.sscanf line "%s %s %f %d %d"
              (fun b_circuit b_alg b_wl b_vias b_exp ->
                { b_circuit; b_alg; b_wl; b_vias; b_exp })
          in
          loop (b :: acc)
  in
  loop []

(* Relative tolerance of 1% (acceptance criterion); a zero baseline
   must stay exactly zero. *)
let within_1pct actual base =
  abs_float (actual -. base) <= (0.01 *. abs_float base) +. 1e-9

let check_guard () =
  let baselines = load_baselines () in
  let failures = ref 0 in
  let results = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
      List.iter
        (fun alg ->
          let r = run name aqfp alg in
          Hashtbl.replace results (name, alg_name alg) r)
        [ Router.Sequential; Router.Negotiated ])
    circuits;
  List.iter
    (fun b ->
      match Hashtbl.find_opt results (b.b_circuit, b.b_alg) with
      | None ->
          Printf.printf "route QoR guard: %s/%s not measured (skipped)\n"
            b.b_circuit b.b_alg
      | Some r ->
          let complain what actual base =
            if not (within_1pct actual base) then begin
              incr failures;
              Printf.printf
                "route QoR guard: %s/%s %s drifted >1%%: %.0f vs baseline %.0f\n"
                b.b_circuit b.b_alg what actual base
            end
          in
          complain "wirelength" r.Router.wirelength b.b_wl;
          complain "vias" (float_of_int r.Router.total_vias)
            (float_of_int b.b_vias);
          complain "space-expansions"
            (float_of_int r.Router.expansions)
            (float_of_int b.b_exp))
    baselines;
  if !failures = 0 then print_endline "route QoR guard: OK"
  else begin
    Printf.printf "route QoR guard: %d violation(s)\n" !failures;
    exit 1
  end

let () =
  if check then check_guard ()
  else
    List.iter
      (fun name ->
        let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
        List.iter
          (fun alg -> ignore (run name aqfp alg))
          [ Router.Sequential; Router.Negotiated ])
      circuits
