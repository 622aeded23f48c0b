(* Layout tooling demo: run the flow on a benchmark, write the GDSII
   stream, read it back with the library's own parser, and print a
   per-layer/per-structure inventory — what you would eyeball in
   KLayout.

     dune exec examples/gds_inspect.exe [circuit]   (default adder8) *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "adder8" in
  let gds_path = name ^ ".gds" in
  let aoi =
    try Circuits.benchmark name
    with Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      exit 1
  in
  Format.printf "Running full flow on %s...@." name;
  let r = Flow.run ~gds_path aoi in
  Format.printf "flow done: %a@.@." Layout.pp_stats (Layout.stats r.Flow.layout);

  Format.printf "Reading %s back...@." gds_path;
  match Gds.read_file gds_path with
  | Error e ->
      Format.eprintf "parse error: %s@." e;
      exit 1
  | Ok lib ->
      Format.printf "library %S, %d structures@.@." lib.Gds.libname
        (List.length lib.Gds.structures);
      let t =
        Table.create ~headers:[ "structure"; "boundaries"; "paths"; "srefs"; "texts" ]
      in
      Table.set_align t [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ];
      List.iter
        (fun s ->
          let count p = List.length (List.filter p s.Gds.elements) in
          Table.add_row t
            [
              s.Gds.sname;
              string_of_int (count (function Gds.Boundary _ -> true | _ -> false));
              string_of_int (count (function Gds.Path _ -> true | _ -> false));
              string_of_int (count (function Gds.Sref _ -> true | _ -> false));
              string_of_int (count (function Gds.Text _ -> true | _ -> false));
            ])
        lib.Gds.structures;
      Table.print t;
      (* per-layer wire inventory of the TOP structure *)
      let top = List.find (fun s -> s.Gds.sname = "TOP") lib.Gds.structures in
      let layers = Hashtbl.create 8 in
      List.iter
        (function
          | Gds.Path { layer; points; _ } ->
              let len =
                match points with
                | [ (x1, y1); (x2, y2) ] -> Float.abs (x2 -. x1) +. Float.abs (y2 -. y1)
                | _ -> 0.0
              in
              let n, l = Option.value ~default:(0, 0.0) (Hashtbl.find_opt layers layer) in
              Hashtbl.replace layers layer (n + 1, l +. len)
          | _ -> ())
        top.Gds.elements;
      print_newline ();
      print_endline "wiring per GDS layer:";
      Hashtbl.iter
        (fun layer (n, len) ->
          Format.printf "  layer %d: %d segments, %.0f um@." layer n len)
        layers
