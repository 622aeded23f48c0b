(* The sf_absint dataflow analyses as Check passes over one shared
   fact table, with optional memoization keyed by the netlist's
   structural hash. *)

let domains =
  [
    ("const", fun nl f -> Const_dom.check nl (Facts.const f));
    ("obs", fun nl f -> Obs_dom.check nl ~consts:(Facts.const f) (Facts.obs f));
    ("load", fun nl f -> Load_dom.check nl ~fanouts:(Facts.fanouts f) (Facts.load f));
    ("polar", fun nl f -> Polar_dom.check nl (Facts.polar f));
  ]

let passes ?cache ?facts nl =
  let facts = Facts.for_netlist ?facts nl in
  let hash = lazy (Netlist.struct_hash nl) in
  List.map
    (fun (domain, check) ->
      Check.pass ("absint-" ^ domain) (fun () ->
          (* all four domains need in-range fan-ins, correct arities
             and an acyclic graph; the structural lints own reporting
             that *)
          if Facts.structural facts <> [] then []
          else
            match cache with
            | None -> check nl facts
            | Some c -> (
                let key = "absint1:" ^ domain ^ ":" ^ Lazy.force hash in
                match c.Memo.find key with
                | Some ds -> ds
                | None ->
                    let ds = check nl facts in
                    c.Memo.store key ds;
                    ds)))
    domains
