type times = {
  synth_s : float;
  resyn_s : float;
  place_s : float;
  route_s : float;
  layout_s : float;
  check_s : float;
}

type result = {
  aqfp_netlist : Netlist.t;
  problem : Problem.t;
  routing : Router.result;
  layout : Layout.t;
  violations : Diag.t list;
  synth_report : Synth_flow.report;
  resyn_report : Resyn.report;
  placement : Placer.result;
  sta : Sta.report;
  energy : Energy.report;
  buffer_lines : int;
  drc_fix_rounds : int;
  check_report : Check.report option;
  times : times;
}

type config = {
  tech : Tech.t;
  algorithm : Placer.algorithm;
  router : Router.algorithm;
  seed : int;
  check_tier : Check.tier;
  resyn_effort : Resyn.effort;
}

let default =
  {
    tech = Tech.default;
    algorithm = Placer.Superflow;
    router = Router.Sequential;
    seed = 1;
    check_tier = Check.Fast;
    resyn_effort = Resyn.Off;
  }

let check_passes ?(tier = Check.Fast) ?absint_cache r =
  let facts = Facts.create r.aqfp_netlist in
  [ Check.pass "lint" (fun () -> Lint.check ~tier ~facts r.aqfp_netlist) ]
  @ Absint_check.passes ?cache:absint_cache ~facts r.aqfp_netlist
  @ [
      Check.pass "aqfp" (fun () -> Aqfp_check.check r.aqfp_netlist);
      Check.of_diags "equiv"
        (r.synth_report.Synth_flow.guard_diags @ r.resyn_report.Resyn.diags);
      Check.pass "place" (fun () -> Place_audit.check r.aqfp_netlist r.problem);
      Check.pass "route" (fun () ->
          match Router.check_routes r.problem r.routing with
          | Ok () -> []
          | Error e ->
              [ Diag.error ~rule:"RT-CONN-01" Diag.Global "%s" e ]);
      Check.of_diags "drc" r.violations;
      Check.pass "lvs" (fun () -> Lvs.check r.problem r.layout);
    ]

let version = "0.1.0"

let timed f =
  (* wall clock, not [Sys.time]: CPU time sums across domains and
     overstates every parallel stage *)
  let t0 = Wallclock.now_s () in
  let v = f () in
  (v, Wallclock.now_s () -. t0)

(* ---- the explicit stage graph ---- *)

type stage = Synth | Resyn | Place | Route | Layout | Check

let stages = [ Synth; Resyn; Place; Route; Layout; Check ]

let stage_name = function
  | Synth -> "synth"
  | Resyn -> "resyn"
  | Place -> "place"
  | Route -> "route"
  | Layout -> "layout"
  | Check -> "check"

let stage_of_string = function
  | "synth" -> Ok Synth
  | "resyn" -> Ok Resyn
  | "place" -> Ok Place
  | "route" -> Ok Route
  | "layout" -> Ok Layout
  | "check" -> Ok Check
  | s ->
      Error
        (Printf.sprintf
           "unknown stage %S (synth|resyn|place|route|layout|check)" s)

let stage_rank = function
  | Synth -> 0
  | Resyn -> 1
  | Place -> 2
  | Route -> 3
  | Layout -> 4
  | Check -> 5

(* What a stage computes, as a version in its cache key: bumped when a
   stage's code changes its output for the same inputs and config, so a
   database filled before the change misses instead of serving the old
   result. Through the input hashes, the stages downstream recompute
   only if the bumped stage's output bytes really moved. Route 2: the
   turn-aware search bound. Check 2: the report lost a pass. *)
let stage_version = function
  | Route | Check -> "2"
  | Synth | Resyn | Place | Layout -> "1"

(* Every config-derived component of a stage's cache key, in key
   order; the key is the stage's input-artifact hashes followed by
   these. [--jobs] is deliberately absent: stage results are
   bit-identical at any pool size. *)
let key_params ~guard c stage =
  let guards = if guard then "guards" else "noguards" in
  match stage with
  | Synth -> [ guards ]
  | Resyn -> [ "effort-" ^ Resyn.effort_name c.resyn_effort; guards ]
  | Place ->
      [
        Db.hash (Artifact.tech.Artifact.encode c.tech);
        Placer.algorithm_name c.algorithm;
        string_of_int c.seed;
      ]
  | Route -> (
      match c.router with
      | Router.Sequential -> [ "sequential" ]
      | Router.Negotiated -> [ "negotiated" ])
  | Layout -> []
  | Check -> [ "tier-" ^ Check.tier_name c.check_tier ]

type outcome = Cached of float | Computed of float

type staged = {
  outcomes : (stage * outcome) list;
  db_warnings : Diag.t list;
  synth : (Netlist.t * Synth_flow.report) option;
  resyned : (Netlist.t * Resyn.report) option;
  placed : (Netlist.t * Problem.t * Placer.result * int) option;
  routed : (Router.result * Problem.t * Diag.t list * int) option;
  built : (Layout.t * Sta.report * Energy.report) option;
  checked : Check.report option;
  result : result option;
}

(* engine format tag: part of every cache key, so changing the stage
   graph (not just one codec) invalidates the whole cache *)
let graph_version = "sf-flow-graph-5"

(* graph format, stage, its version, the input-artifact hashes, then
   the config-derived parts *)
let key_parts ~guard c stage ~inputs =
  (graph_version :: stage_name stage :: stage_version stage :: inputs)
  @ key_params ~guard c stage

exception Stage_failed of Diag.t

let slot_err name = Codec.err ~rule:"DB-SLOT-01" "manifest lacks slot %S" name

(* ---- what each stage persists ---- *)

(* One output of a stage as its manifest records it: an object slot
   holds the sealed bytes of an Artifact codec, a scalar an int. *)
type item = Object of string | Scalar of int

exception Unusable of Diag.t

(* A stage's slot list, built slot by slot like a [Codec] record: [put]
   lists a value's items in slot order, [get] rebuilds the value from
   two lookups by slot name, object bytes and scalars (either raising
   [Unusable]). One description per stage drives the store, the load
   and [artifacts]. *)
type ('v, 'k) slots = {
  put : 'v -> (string * item) list;
  get : (string -> string) * (string -> int) -> 'k;
}

let slots make = { put = (fun _ -> []); get = (fun _ -> make) }

let slot name to_item read get s =
  {
    put = (fun v -> s.put v @ [ (name, to_item (get v)) ]);
    get =
      (fun lookups ->
        let k = s.get lookups in
        k (read lookups name));
  }

let obj name codec =
  slot name
    (fun v -> Object (codec.Artifact.encode v))
    (fun (bytes, _) name ->
      match codec.Artifact.decode (bytes name) with
      | Ok v -> v
      | Error d -> raise (Unusable d))

let scalar name = slot name (fun n -> Scalar n) (fun (_, scalar) -> scalar)

let synth_slots =
  slots (fun nl rep -> (nl, rep))
  |> obj "aqfp0" Artifact.netlist fst
  |> obj "report" Artifact.synth_report snd

let resyn_slots =
  slots (fun nl rep -> (nl, rep))
  |> obj "aqfp1" Artifact.netlist fst
  |> obj "report" Artifact.resyn_report snd

let place_slots =
  slots (fun aqfp p placement lines -> (aqfp, p, placement, lines))
  |> obj "aqfp" Artifact.netlist (fun (a, _, _, _) -> a)
  |> obj "problem" Artifact.problem (fun (_, p, _, _) -> p)
  |> obj "placement" Artifact.placement (fun (_, _, pl, _) -> pl)
  |> scalar "buffer_lines" (fun (_, _, _, n) -> n)

let route_slots =
  slots (fun routing p violations rounds -> (routing, p, violations, rounds))
  |> obj "routing" Artifact.routing (fun (r, _, _, _) -> r)
  |> obj "problem" Artifact.problem (fun (_, p, _, _) -> p)
  |> obj "drc" Artifact.drc (fun (_, _, v, _) -> v)
  |> scalar "fix_rounds" (fun (_, _, _, n) -> n)

let layout_slots =
  slots (fun layout sta energy -> (layout, sta, energy))
  |> obj "layout" Artifact.layout (fun (l, _, _) -> l)
  |> obj "sta" Artifact.sta (fun (_, s, _) -> s)
  |> obj "energy" Artifact.energy (fun (_, _, e) -> e)

let check_slots = slots Fun.id |> obj "report" Artifact.check_report Fun.id

let artifacts st =
  let part stage slots = function
    | None -> []
    | Some v ->
        List.map
          (fun (name, item) ->
            ( stage,
              name,
              match item with Object b -> b | Scalar n -> string_of_int n ))
          (slots.put v)
  in
  part Synth synth_slots st.synth
  @ part Resyn resyn_slots st.resyned
  @ part Place place_slots st.placed
  @ part Route route_slots st.routed
  @ part Layout layout_slots st.built
  @ part Check check_slots st.checked

(* The two proof-store adapters: raw verdict strings (equivalence and
   resynthesis window proofs) and diagnostic lists (absint findings,
   DRC tile verdicts). Diagnostic decode failures (stale codec)
   degrade to a recompute-and-overwrite. *)
let proof_memo dbh =
  {
    Memo.find = (fun k -> Db.find_proof dbh ~key:k);
    store = (fun k v -> Db.put_proof dbh ~key:k v);
  }

let diag_memo dbh =
  {
    Memo.find =
      (fun k ->
        Option.bind (Db.find_proof dbh ~key:k) (fun s ->
            Result.to_option (Artifact.diags.Artifact.decode s)));
    store =
      (fun k ds -> Db.put_proof dbh ~key:k (Artifact.diags.Artifact.encode ds));
  }

let run_staged ?(config = default) ?db ?(from_stage = Synth)
    ?(to_stage = Layout) aoi =
  let { tech; algorithm; router; seed; check_tier; resyn_effort } = config in
  (* running "to check" switches the synthesis equivalence guards on,
     exactly like [run ~check:true] *)
  let guard = stage_rank to_stage >= stage_rank Check in
  (* proof verdicts are memoized per cone pair in the database: a warm
     [--check] rerun whose synth stage misses (say, after a key change)
     still re-proves nothing that is already on disk; the
     absint dataflow findings memoize through the same store, keyed by
     the netlist's structural hash *)
  let guard_memo memo = if guard then Option.map memo db else None in
  let proof_cache = guard_memo proof_memo in
  let absint_cache = guard_memo diag_memo in
  if stage_rank from_stage > stage_rank to_stage then
    Error
      (Codec.err ~rule:"DB-RANGE-01" "--from %s is after --to %s"
         (stage_name from_stage) (stage_name to_stage))
  else if db = None && from_stage <> Synth then
    Error
      (Codec.err ~rule:"DB-RANGE-01"
         "--from %s needs a design database to load the earlier stages from"
         (stage_name from_stage))
  else begin
    let outcomes = ref [] in
    let note stage o = outcomes := (stage, o) :: !outcomes in
    let included stage = stage_rank stage <= stage_rank to_stage in
    (* One stage: cache lookup (when a database is attached), else
       compute and persist. The cache key is [key_parts]: the
       stage's version, its input artifact hashes ([inputs]) and its
       [key_params].
       Corrupt cache entries degrade to a miss with a warning and are
       overwritten. *)
    let exec ~stage ~inputs ~slots ~compute =
      let name = stage_name stage in
      let must_hit = stage_rank stage < stage_rank from_stage in
      match db with
      | None ->
          let v, s = timed compute in
          note stage (Computed s);
          (v, [])
      | Some dbh -> (
          let key =
            Db.stage_key (key_parts ~guard config stage ~inputs:(inputs ()))
          in
          let cached =
            match Db.get_stage dbh ~stage:name ~key with
            | None -> None
            | Some (objects, scalars) -> (
                let lookup entries slot =
                  match List.assoc_opt slot entries with
                  | Some v -> v
                  | None -> raise (Unusable (slot_err slot))
                in
                let bytes slot =
                  match Db.get_object dbh (lookup objects slot) with
                  | Ok bytes -> bytes
                  | Error d -> raise (Unusable d)
                in
                match timed (fun () -> slots.get (bytes, lookup scalars)) with
                | v, s -> Some (v, s, objects)
                | exception Unusable d ->
                    Db.warn dbh
                      {
                        d with
                        Diag.severity = Diag.Warning;
                        message =
                          Printf.sprintf
                            "stage %s: unusable cache entry, recomputing (%s)"
                            name d.Diag.message;
                      };
                    None)
          in
          match cached with
          | Some (v, s, objects) ->
              Db.record dbh name Db.Hit s;
              note stage (Cached s);
              (v, objects)
          | None ->
              if must_hit then
                raise
                  (Stage_failed
                     (Codec.err ~rule:"DB-FROM-01"
                        "stage %s is not in the database for these inputs; \
                         rerun without --from"
                        name));
              let v, s = timed compute in
              let items = slots.put v in
              let objects =
                List.filter_map
                  (function
                    | n, Object b -> Some (n, Db.put_object dbh b) | _ -> None)
                  items
              in
              let scalars =
                List.filter_map
                  (function n, Scalar i -> Some (n, i) | _ -> None)
                  items
              in
              Db.put_stage dbh ~stage:name ~key ~slots:objects ~scalars;
              Db.record dbh name Db.Miss s;
              note stage (Computed s);
              (v, objects))
    in
    let shash slots name =
      match List.assoc_opt name slots with Some h -> h | None -> "?"
    in
    try
      (* 1. logic synthesis: AOI -> MAJ -> balanced AQFP netlist *)
      let (aqfp0, synth_report), s_synth =
        exec ~stage:Synth
          ~inputs:(fun () -> [ Db.hash (Artifact.netlist.Artifact.encode aoi) ])
          ~slots:synth_slots
          ~compute:(fun () ->
            Synth_flow.run ~check:guard ?cache:proof_cache aoi)
      in
      (* 2. cut-based majority resynthesis over the mapped netlist —
         identity at the default [Off] effort (the stage still exists
         and caches, so the graph shape is effort-independent).
         Window-CEC verdicts memoize through the proof store; with
         guards on, the stage's own whole-netlist equivalence check
         lands in its report diagnostics (and hence the [equiv] check
         pass). *)
      let resyned =
        if not (included Resyn) then None
        else
          Some
            (exec ~stage:Resyn
               ~inputs:(fun () -> [ shash s_synth "aqfp0" ])
               ~slots:resyn_slots
               ~compute:(fun () ->
                 let nl, rep =
                   Resyn.run ~effort:resyn_effort
                     ?cache:(Option.map proof_memo db) aqfp0
                 in
                 let rep =
                   if guard && resyn_effort <> Resyn.Off then
                     let ds =
                       Equiv.check_pair ?cache:proof_cache ~stage:"resyn"
                         aqfp0 nl
                     in
                     {
                       rep with
                       Resyn.diags =
                         List.sort Diag.compare (rep.Resyn.diags @ ds);
                     }
                   else rep
                 in
                 (nl, rep)))
      in
      (* 3. placement + max-wirelength buffer-line insertion (re-threads
         long hops through whole rows of buffers, keeping the pipeline
         balanced) + channel pre-sizing for the router *)
      let placed =
        match resyned with
        | None -> None
        | Some ((aqfp1, _), s_resyn) ->
            if not (included Place) then None
            else
          Some
            (exec ~stage:Place
               ~inputs:(fun () -> [ shash s_resyn "aqfp1" ])
               ~slots:place_slots
               ~compute:(fun () ->
                 let p0 = Problem.of_netlist tech aqfp1 in
                 let placement =
                   try Placer.place ~seed algorithm p0
                   with Placer.Illegal msg ->
                     raise
                       (Stage_failed
                          (Diag.error ~rule:"PL-LEGAL-01" Diag.Global
                             "placement is illegal: %s" msg))
                 in
                 let aqfp, p, buffer_lines = Bufferline.insert aqfp1 p0 in
                 (* newly inserted buffer rows start at crude midpoints;
                    one light detailed pass settles them *)
                 if buffer_lines > 0 then
                   ignore
                     (Detailed.run
                        ~options:
                          {
                            Detailed.default_options with
                            max_passes = 3;
                            window = 2;
                          }
                        p);
                 (* pre-size channels from the placement's channel
                    density so the router's reactive expansion loop has
                    less to do *)
                 ignore (Congestion.preexpand p);
                 (aqfp, p, placement, buffer_lines)))
      in
      (* 4. routing + DRC fix loop: violating regions get extra space
         and are re-routed. The final layout of the loop is kept as an
         in-memory memo so a cold run does not rebuild it in stage 4;
         it is not persisted (stage 4 owns the layout artifact). *)
      let memo = ref None in
      let routed =
        match placed with
        | None -> None
        | Some ((_, p, _, _), s_place) ->
            if not (included Route) then None
            else
              Some
                (exec ~stage:Route
                   ~inputs:(fun () -> [ shash s_place "problem" ])
                   ~slots:route_slots
                   ~compute:(fun () ->
                     let drc_cache = Option.map diag_memo db in
                     let route p =
                       try Router.route_all ~algorithm:router p
                       with Router.Unroutable ni ->
                         raise
                           (Stage_failed
                              (Diag.error ~rule:"RT-UNROUTE-01" (Diag.Net ni)
                                 "net %d found no route within the router's \
                                  channel-expansion budget"
                                 ni))
                     in
                     let routing0 = route p in
                     let rec fix_loop routing rounds =
                       let layout = Layout.build p routing in
                       let violations =
                         (Drc.check ?cache:drc_cache layout).Drc.diags
                       in
                       if violations = [] || rounds >= 3 then begin
                         memo := Some layout;
                         (routing, p, violations, rounds)
                       end
                       else begin
                         let gaps = Drc.gap_hints p violations in
                         if gaps = [] then begin
                           memo := Some layout;
                           (routing, p, violations, rounds)
                         end
                         else begin
                           List.iter
                             (fun g ->
                               if
                                 g >= 0
                                 && g < Array.length p.Problem.row_gaps
                               then
                                 p.Problem.row_gaps.(g) <-
                                   p.Problem.row_gaps.(g) +. tech.Tech.s_min)
                             gaps;
                           fix_loop (route p) (rounds + 1)
                         end
                       end
                     in
                     fix_loop routing0 0))
      in
      (* 5. layout assembly + sign-off timing (actual routed lengths)
         + adiabatic energy *)
      let built =
        match (placed, routed) with
        | Some ((aqfp, _, _, _), s_place), Some ((routing, p', _, _), s_route)
          ->
            if not (included Layout) then None
            else
              Some
                (exec ~stage:Layout
                   ~inputs:(fun () ->
                     [
                       shash s_route "problem";
                       shash s_route "routing";
                       shash s_place "aqfp";
                     ])
                   ~slots:layout_slots
                   ~compute:(fun () ->
                     let layout =
                       match !memo with
                       | Some l -> l
                       | None -> Layout.build p' routing
                     in
                     let sta = Sta.analyze_routed p' routing in
                     let energy = Energy.of_netlist tech aqfp in
                     (layout, sta, energy)))
        | _ -> None
      in
      let seconds stage =
        match List.assoc_opt stage !outcomes with
        | Some (Cached s) | Some (Computed s) -> s
        | None -> 0.0
      in
      (* assemble the classic flow result as soon as every physical
         stage is present *)
      let result0 =
        match (resyned, placed, routed, built) with
        | ( Some ((_, resyn_report), _),
            Some ((aqfp, _, placement, buffer_lines), _),
            Some ((routing, p', violations, rounds), _),
            Some ((layout, sta, energy), _) ) ->
            Some
              {
                aqfp_netlist = aqfp;
                problem = p';
                routing;
                layout;
                violations;
                synth_report;
                resyn_report;
                placement;
                sta;
                energy;
                buffer_lines;
                drc_fix_rounds = rounds;
                check_report = None;
                times =
                  {
                    synth_s = seconds Synth;
                    resyn_s = seconds Resyn;
                    place_s = seconds Place;
                    route_s = seconds Route;
                    layout_s = seconds Layout;
                    check_s = 0.0;
                  };
              }
        | _ -> None
      in
      (* 5. the static-verification gate over every stage handoff *)
      let checked =
        match result0 with
        | Some r0 when included Check ->
            let report, _ =
              exec ~stage:Check
                ~inputs:(fun () ->
                  match (resyned, placed, routed, built) with
                  | ( Some (_, s_resyn),
                      Some (_, s_place),
                      Some (_, s_route),
                      Some (_, s_layout) ) ->
                      [
                        shash s_place "aqfp";
                        shash s_synth "report";
                        shash s_resyn "report";
                        shash s_route "problem";
                        shash s_route "routing";
                        shash s_route "drc";
                        shash s_layout "layout";
                      ]
                  | _ -> assert false)
                ~slots:check_slots
                ~compute:(fun () ->
                  Check.run
                    ~header:
                      [
                        ("tier", Check.tier_name check_tier);
                        (* a fixed field: bench/perf/perf.ml replays
                           these header bytes (ROADMAP item 2) *)
                        ("engine", "auto");
                      ]
                    (check_passes ~tier:check_tier ?absint_cache r0))
            in
            Some report
        | _ -> None
      in
      let result =
        match result0 with
        | None -> None
        | Some r0 ->
            Some
              {
                r0 with
                check_report = checked;
                times = { r0.times with check_s = seconds Check };
              }
      in
      Ok
        {
          outcomes = List.rev !outcomes;
          db_warnings =
            (match db with Some dbh -> Db.warnings dbh | None -> []);
          synth = Some (aqfp0, synth_report);
          resyned = Option.map fst resyned;
          placed = Option.map fst placed;
          routed = Option.map fst routed;
          built = Option.map fst built;
          checked;
          result;
        }
    with Stage_failed d -> Error d
  end

let run ?algorithm ?router ?seed ?resyn_effort ?jobs ?(check = false) ?db
    ?gds_path ?def_path aoi =
  Option.iter Parallel.set_jobs jobs;
  let pick o d = Option.value o ~default:d in
  let config =
    {
      default with
      algorithm = pick algorithm default.algorithm;
      router = pick router default.router;
      seed = pick seed default.seed;
      resyn_effort = pick resyn_effort default.resyn_effort;
    }
  in
  match
    run_staged ~config ?db ~to_stage:(if check then Check else Layout) aoi
  with
  | Ok { result = Some r; _ } ->
      Option.iter
        (fun path ->
          Def.write_file path (Def.of_design r.problem r.routing))
        def_path;
      Option.iter (fun path -> Layout.write_gds path r.layout) gds_path;
      r
  | Ok _ -> assert false (* to_stage >= Layout always yields a result *)
  | Error d -> failwith (Diag.to_string d)

let pp_summary ppf r =
  let s = Layout.stats r.layout in
  Format.fprintf ppf "@[<v>synthesis: %a" Synth_flow.pp_report r.synth_report;
  (match r.resyn_report.Resyn.effort with
  | Resyn.Off -> ()
  | e ->
      let rr = r.resyn_report in
      Format.fprintf ppf
        "@,resyn (%s): jj %d -> %d, depth %d -> %d, %d/%d rewrites in %d \
         round(s)"
        (Resyn.effort_name e) rr.Resyn.jj_before rr.Resyn.jj_after
        rr.Resyn.depth_before rr.Resyn.depth_after
        (Resyn.rewrites_accepted rr) (Resyn.rewrites_tried rr) rr.Resyn.rounds);
  Format.fprintf ppf
    "@,placement: %a@,buffer lines: %d@,routing: wl=%.0fum vias=%d expansions=%d@,layout: %a@,timing: %a@,energy: %a@,drc: %d violation(s), %d fix round(s)@]"
    Placer.pp_result r.placement
    r.buffer_lines r.routing.Router.wirelength r.routing.Router.total_vias
    r.routing.Router.expansions Layout.pp_stats s Sta.pp_report r.sta Energy.pp
    r.energy
    (List.length r.violations) r.drc_fix_rounds;
  match r.check_report with
  | Some rep -> Format.fprintf ppf "@\n%a" Check.pp_summary rep
  | None -> ()
