(* One lazily solved fact table per netlist. *)

type t = {
  nl : Netlist.t;
  structural : Diag.t list Lazy.t;
  fanouts : Absint.fanouts Lazy.t;
  const : Const_dom.value array Lazy.t;
  obs : Obs_dom.fact array Lazy.t;
  load : (int * int) array Lazy.t;
  polar : Polar_dom.fact array Lazy.t;
}

let create nl =
  let fanouts = lazy (Absint.fanouts nl) in
  let const = lazy (Const_dom.solve nl) in
  let obs =
    lazy
      (Obs_dom.solve nl ~fanouts:(Lazy.force fanouts) ~consts:(Lazy.force const))
  in
  {
    nl;
    structural = lazy (Netlist.validate_diags nl);
    fanouts;
    const;
    obs;
    load =
      lazy (Load_dom.solve nl ~fanouts:(Lazy.force fanouts) ~obs:(Lazy.force obs));
    polar = lazy (Polar_dom.solve nl);
  }

let for_netlist ?facts nl =
  match facts with
  | None -> create nl
  | Some t when t.nl == nl -> t
  | Some _ -> invalid_arg "Facts.for_netlist: table built over another netlist"

let structural t = Lazy.force t.structural
let fanouts t = Lazy.force t.fanouts
let const t = Lazy.force t.const
let obs t = Lazy.force t.obs
let load t = Lazy.force t.load
let polar t = Lazy.force t.polar
