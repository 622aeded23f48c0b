(* The multicore layer's contract: a run with [jobs = N] is
   bit-identical to a run with [jobs = 1], for the primitives and for
   the whole flow. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* run [f] under an explicit jobs setting, restoring auto afterwards *)
let with_jobs n f =
  Parallel.set_jobs n;
  Fun.protect ~finally:Parallel.auto_jobs f

let bits = Int64.bits_of_float

let check_bits name a b =
  Alcotest.(check int64) name (bits a) (bits b)

(* ---- primitives vs their serial counterparts ---- *)

let test_map_matches_serial () =
  let rng = Rng.create 11 in
  List.iter
    (fun n ->
      let a = Array.init n (fun _ -> Rng.float rng 100.0 -. 50.0) in
      let f x = (x *. 1.7) +. sin x in
      let serial = Array.map f a in
      List.iter
        (fun jobs ->
          let par =
            with_jobs jobs (fun () -> Parallel.parallel_init ~chunk:7 n (fun i -> f a.(i)))
          in
          checki (Printf.sprintf "n=%d jobs=%d length" n jobs)
            (Array.length serial) (Array.length par);
          Array.iteri
            (fun i x -> check_bits (Printf.sprintf "n=%d jobs=%d [%d]" n jobs i) x par.(i))
            serial)
        [ 1; 2; 4 ])
    [ 0; 1; 6; 7; 8; 100; 1000 ]

let test_init_matches_serial () =
  List.iter
    (fun n ->
      let f i = sqrt (float_of_int i) *. 3.1 in
      let serial = Array.init n f in
      let par = with_jobs 4 (fun () -> Parallel.parallel_init ~chunk:13 n f) in
      Array.iteri (fun i x -> check_bits (Printf.sprintf "init[%d]" i) x par.(i)) serial)
    [ 0; 1; 13; 14; 500 ]

let test_exception_is_leftmost () =
  let exception Boom of int in
  let raised =
    try
      with_jobs 4 (fun () ->
          ignore
            (Parallel.parallel_init ~chunk:10 500 (fun i ->
                 if i mod 31 = 30 then raise (Boom i) else i)));
      None
    with Boom i -> Some i
  in
  (* 30 is the first failing element; its chunk fails first in chunk
     order regardless of which domain hit an error first *)
  Alcotest.(check (option int)) "leftmost exception" (Some 30) raised

let test_jobs_resolution () =
  with_jobs 3 (fun () -> checki "set_jobs wins" 3 (Parallel.jobs ()));
  checki "clamped below" 1 (with_jobs 0 (fun () -> Parallel.jobs ()));
  checki "clamped above" 64 (with_jobs 1000 (fun () -> Parallel.jobs ()))

let test_invalid_sf_jobs_falls_back () =
  (* a malformed SF_JOBS must warn (once, on stderr) and fall back to
     the domain count instead of raising or silently misbehaving *)
  Unix.putenv "SF_JOBS" "eight";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SF_JOBS" "")
    (fun () ->
      let j = Parallel.jobs () in
      checkb "fell back to a sane pool size" true (j >= 1 && j <= 64));
  Unix.putenv "SF_JOBS" "3";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SF_JOBS" "")
    (fun () -> checki "valid SF_JOBS honored" 3 (Parallel.jobs ()))

let test_chunk_validation () =
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  checkb "chunk=0 raises" true
    (raises (fun () -> Parallel.map_chunks ~chunk:0 ~n:10 (fun _ _ -> ())));
  checkb "chunk=-3 raises" true
    (raises (fun () -> Parallel.map_chunks ~chunk:(-3) ~n:10 (fun _ _ -> ())));
  checkb "chunk=0 raises even at n=0" true
    (raises (fun () -> Parallel.map_chunks ~chunk:0 ~n:0 (fun _ _ -> ())));
  (* n = 0: empty result, the chunk function is never called *)
  let called = ref false in
  let r =
    Parallel.map_chunks ~chunk:4 ~n:0 (fun _ _ -> called := true)
  in
  checki "n=0 yields no chunks" 0 (Array.length r);
  checkb "n=0 never calls f" false !called;
  checki "n=0 default chunk" 0
    (Array.length (Parallel.map_chunks ~n:0 (fun _ _ -> ())))

(* ---- whole flow: jobs=1 vs jobs=4, byte-identical GDS ---- *)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let flow_fingerprint name jobs =
  let gds = Filename.temp_file "superflow_par" ".gds" in
  let r = Flow.run ~jobs ~gds_path:gds (Circuits.benchmark name) in
  let bytes = read_bytes gds in
  Sys.remove gds;
  ( Problem.hpwl r.Flow.problem,
    r.Flow.routing.Router.wirelength,
    r.Flow.routing.Router.total_vias,
    r.Flow.routing.Router.expansions,
    r.Flow.sta.Sta.wns_ps,
    bytes )

let check_flow_deterministic name =
  let h1, wl1, v1, e1, wns1, gds1 = flow_fingerprint name 1 in
  let h4, wl4, v4, e4, wns4, gds4 = flow_fingerprint name 4 in
  Parallel.auto_jobs ();
  check_bits "hpwl" h1 h4;
  check_bits "routed wirelength" wl1 wl4;
  checki "vias" v1 v4;
  checki "expansions" e1 e4;
  check_bits "wns" wns1 wns4;
  checkb "gds byte-identical" true (String.equal gds1 gds4)

let test_flow_adder8 () = check_flow_deterministic "adder8"
let test_flow_apc32 () = check_flow_deterministic "apc32"

let () =
  Alcotest.run "parallel"
    [
      ( "primitives",
        [
          Alcotest.test_case "map = serial map" `Quick test_map_matches_serial;
          Alcotest.test_case "init = serial init" `Quick test_init_matches_serial;
          Alcotest.test_case "leftmost exception wins" `Quick
            test_exception_is_leftmost;
          Alcotest.test_case "jobs resolution and clamping" `Quick
            test_jobs_resolution;
          Alcotest.test_case "invalid SF_JOBS falls back loudly" `Quick
            test_invalid_sf_jobs_falls_back;
          Alcotest.test_case "chunk validation and n=0" `Quick
            test_chunk_validation;
        ] );
      ( "full flow",
        [
          Alcotest.test_case "adder8: jobs=1 = jobs=4 (GDS bytes)" `Quick
            test_flow_adder8;
          Alcotest.test_case "apc32: jobs=1 = jobs=4 (GDS bytes)" `Slow
            test_flow_apc32;
        ] );
    ]
