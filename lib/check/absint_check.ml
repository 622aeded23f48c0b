(* The sf_absint dataflow analyses as Check passes, with optional
   memoization keyed by the netlist's structural hash. *)

let domains = [ "const"; "phase"; "obs"; "load"; "polar" ]

let cache_key ~domain nl =
  "absint1:" ^ domain ^ ":" ^ Netlist.struct_hash nl

let checker = function
  | "const" -> Const_dom.check
  | "phase" -> Phase_dom.check
  | "obs" -> Obs_dom.check
  | "load" -> Load_dom.check
  | "polar" -> Polar_dom.check
  | d -> invalid_arg ("Absint_check.checker: unknown domain " ^ d)

let passes ?cache nl =
  (* all five domains need in-range fan-ins, correct arities and an
     acyclic graph; the structural lints own reporting that *)
  let sound = lazy (Netlist.validate_diags nl = []) in
  List.map
    (fun domain ->
      Check.pass ("absint-" ^ domain) (fun () ->
          if not (Lazy.force sound) then []
          else
            match cache with
            | None -> checker domain nl
            | Some c -> (
                let key = cache_key ~domain nl in
                match c.Memo.find key with
                | Some ds -> ds
                | None ->
                    let ds = checker domain nl in
                    c.Memo.store key ds;
                    ds)))
    domains
