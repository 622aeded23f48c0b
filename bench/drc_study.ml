(* DRC engine benchmark: full-deck signoff over the bundled designs,
   cold and tile-cache-warm, per rule deck. Each run prints one
   machine-readable line

     BENCH_DRC {"circuit":...,"deck":...,"cold_s":...,"warm_s":...,
                "tiles":...,"checked":...,"skipped":...,"violations":...}

   so CI can track engine speed and the warm-path win over time. The
   warm run is also asserted to recompute nothing and to reproduce the
   cold report byte-for-byte — the incremental path can never drift
   from the full one.

     dune exec bench/drc_study.exe            # full circuit set
     dune exec bench/drc_study.exe -- quick   # small circuits
     dune exec bench/drc_study.exe -- check   # compared against
                                              # bench/drc_baselines.txt
                                              # (exit 1 on any drift) *)

let quick = Array.exists (fun a -> a = "quick") Sys.argv
let check = Array.exists (fun a -> a = "check") Sys.argv

let circuits =
  let named =
    List.filter
      (fun a -> List.mem a Circuits.benchmark_names)
      (Array.to_list Sys.argv)
  in
  if named <> [] then named
  else if quick || check then [ "adder8"; "apc32" ]
  else [ "adder8"; "apc32"; "decoder"; "sorter32"; "c432" ]

let layout_of name =
  let aqfp = Synth_flow.run_quiet (Circuits.benchmark name) in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  let r = Router.route_all p in
  Layout.build p r

(* three decks: the flow's signoff deck; a stressed one whose spacing
   limit sits above the routing pitch — every adjacent track pair
   violates, so the reporting machinery is benchmarked under load, not
   just the clean path; and a dense one whose 5% metal-density limit
   makes most density windows fire, pinning the windowed density
   counts *)
let decks =
  let d = Drc.deck_of_tech Tech.default in
  [
    ("signoff", d);
    ("stress", { d with Drc.spacing = d.Drc.cell_spacing });
    ("dense", { d with Drc.max_density = 0.05 });
  ]

let run name deck_name deck layout =
  let tbl : (string, Diag.t list) Hashtbl.t = Hashtbl.create 1024 in
  let cache = { Memo.find = Hashtbl.find_opt tbl; store = Hashtbl.replace tbl } in
  let cold, cold_s = Wallclock.time (fun () -> Drc.check ~deck ~cache layout) in
  let warm, warm_s = Wallclock.time (fun () -> Drc.check ~deck ~cache layout) in
  if warm.Drc.stats.Drc.tiles_checked <> 0 then begin
    Printf.eprintf "drc_study: %s/%s: warm run recomputed %d tile(s)\n" name
      deck_name warm.Drc.stats.Drc.tiles_checked;
    exit 1
  end;
  if
    List.map Diag.to_string warm.Drc.diags
    <> List.map Diag.to_string cold.Drc.diags
  then begin
    Printf.eprintf "drc_study: %s/%s: warm report differs from cold\n" name
      deck_name;
    exit 1
  end;
  let s = cold.Drc.stats in
  let violations = List.length cold.Drc.diags in
  Printf.printf
    "BENCH_DRC {\"circuit\":\"%s\",\"deck\":\"%s\",\"cold_s\":%.3f,\"warm_s\":%.3f,\"tiles\":%d,\"checked\":%d,\"skipped\":%d,\"violations\":%d}\n%!"
    name deck_name cold_s warm_s s.Drc.tiles_total s.Drc.tiles_checked
    warm.Drc.stats.Drc.tiles_cached violations;
  (s.Drc.tiles_total, violations)

(* ---- exact guard against committed baselines ---- *)

type baseline = { b_circuit : string; b_deck : string; b_tiles : int; b_viols : int }

let baselines_path () =
  if Sys.file_exists "bench/drc_baselines.txt" then "bench/drc_baselines.txt"
  else "drc_baselines.txt"

let load_baselines () =
  let ic = open_in (baselines_path ()) in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop acc
        else
          match String.split_on_char ' ' line with
          | [ c; d; t; v ] ->
              loop
                ({
                   b_circuit = c;
                   b_deck = d;
                   b_tiles = int_of_string t;
                   b_viols = int_of_string v;
                 }
                :: acc)
          | _ ->
              Printf.eprintf "drc_study: bad baseline line: %s\n" line;
              exit 1)
  in
  loop []

let () =
  let baselines = if check then load_baselines () else [] in
  let failures = ref 0 in
  List.iter
    (fun name ->
      let layout = layout_of name in
      List.iter
        (fun (deck_name, deck) ->
          let tiles, viols = run name deck_name deck layout in
          if check then
            match
              List.find_opt
                (fun b -> b.b_circuit = name && b.b_deck = deck_name)
                baselines
            with
            | None ->
                Printf.eprintf "drc_study: no baseline for %s/%s\n" name
                  deck_name;
                incr failures
            | Some b ->
                (* tile and violation counts are exact deterministic
                   quantities — any drift is a behavior change *)
                if b.b_tiles <> tiles || b.b_viols <> viols then begin
                  Printf.eprintf
                    "drc_study: %s/%s drifted: tiles %d -> %d, violations %d \
                     -> %d\n"
                    name deck_name b.b_tiles tiles b.b_viols viols;
                  incr failures
                end)
        decks)
    circuits;
  if !failures > 0 then exit 1
