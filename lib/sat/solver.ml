(* CDCL with two-watched literals, first-UIP learning, VSIDS + phase
   saving, luby restarts and learnt-DB reduction. Deterministic: VSIDS
   ties break on the lower variable index and nothing consults clocks
   or randomness, so identical call sequences give identical runs. *)

type clause = {
  mutable lits : int array; (* lits.(0) is the implied/asserting literal
                               when the clause is a reason *)
  mutable act : float;
  learnt : bool;
  mutable deleted : bool;
  cid : int; (* creation order; deterministic sort tie-break *)
}

type result = Sat | Unsat | Unknown

type t = {
  mutable nv : int;
  mutable assigns : int array; (* per var: 0 false, 1 true, >=2 unassigned *)
  mutable level : int array;
  mutable reason : clause option array;
  activity : float array ref; (* ref shared with the order heap's closure *)
  mutable polarity : int array; (* saved phase per var *)
  mutable watches : clause Vec.t array; (* per literal *)
  mutable seen : bool array;
  order : Iheap.t;
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable n_conflicts : int;
  mutable next_cid : int;
  mutable model : int array;
  (* decision scope of the running [solve]: a variable is in it iff its
     mark equals [scope_id] (-1, matched by no mark, when unscoped);
     [scope_open] counts its unassigned variables *)
  mutable scope_mark : int array;
  mutable scope_id : int;
  mutable scopes : int;
  mutable scope_open : int;
}

let lit_of_var v = 2 * v
let neg_lit l = l lxor 1

let create () =
  let activity = ref [||] in
  let better a b =
    let aa = !activity.(a) and ab = !activity.(b) in
    aa > ab || (aa = ab && a < b)
  in
  {
    nv = 0;
    assigns = [||];
    level = [||];
    reason = [||];
    activity;
    polarity = [||];
    watches = [||];
    seen = [||];
    order = Iheap.create ~better;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    clauses = Vec.create ();
    learnts = Vec.create ();
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    n_conflicts = 0;
    next_cid = 0;
    model = [||];
    scope_mark = [||];
    scope_id = -1;
    scopes = 0;
    scope_open = 0;
  }

let new_var s =
  let v = s.nv in
  s.nv <- v + 1;
  let cap = Array.length s.assigns in
  if v >= cap then begin
    let ncap = max (v + 1) (max 16 (2 * cap)) in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    s.assigns <- grow s.assigns 2;
    s.level <- grow s.level 0;
    s.reason <- grow s.reason None;
    s.activity := grow !(s.activity) 0.0;
    s.polarity <- grow s.polarity 0;
    s.seen <- grow s.seen false;
    s.scope_mark <- grow s.scope_mark 0;
    let old_w = s.watches in
    s.watches <-
      Array.init (2 * ncap) (fun i ->
          if i < Array.length old_w then old_w.(i) else Vec.create ())
  end;
  Iheap.insert s.order v;
  v

let lit_value s l =
  let a = s.assigns.(l lsr 1) in
  if a >= 2 then 2 else a lxor (l land 1)

let decision_level s = Vec.length s.trail_lim

(* Precondition: [p] is unassigned. *)
let enqueue s p reason =
  let v = p lsr 1 in
  s.assigns.(v) <- (p land 1) lxor 1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  if s.scope_mark.(v) = s.scope_id then s.scope_open <- s.scope_open - 1;
  ignore (Vec.push s.trail p)

let propagate s =
  let confl = ref None in
  let no_confl () = match !confl with None -> true | Some _ -> false in
  while no_confl () && s.qhead < Vec.length s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    let false_lit = p lxor 1 in
    let ws = s.watches.(false_lit) in
    let n = Vec.length ws in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if not c.deleted then begin
        (* Deleted clauses are dropped lazily right here. *)
        if c.lits.(0) = false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        let first = c.lits.(0) in
        if lit_value s first = 1 then begin
          Vec.set ws !j c;
          incr j
        end
        else begin
          let len = Array.length c.lits in
          let k = ref 2 in
          while !k < len && lit_value s c.lits.(!k) = 0 do
            incr k
          done;
          if !k < len then begin
            c.lits.(1) <- c.lits.(!k);
            c.lits.(!k) <- false_lit;
            ignore (Vec.push s.watches.(c.lits.(1)) c)
          end
          else begin
            (* unit under current assignment, or conflicting *)
            Vec.set ws !j c;
            incr j;
            if lit_value s first = 0 then begin
              while !i < n do
                Vec.set ws !j (Vec.get ws !i);
                incr j;
                incr i
              done;
              s.qhead <- Vec.length s.trail;
              confl := Some c
            end
            else enqueue s first (Some c)
          end
        end
      end
    done;
    for _ = !j to n - 1 do
      ignore (Vec.pop ws)
    done
  done;
  !confl

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    while Vec.length s.trail > bound do
      match Vec.pop s.trail with
      | None -> assert false
      | Some p ->
        let v = p lsr 1 in
        s.polarity.(v) <- s.assigns.(v);
        s.assigns.(v) <- 2;
        s.reason.(v) <- None;
        if s.scope_mark.(v) = s.scope_id then s.scope_open <- s.scope_open + 1;
        Iheap.insert s.order v
    done;
    while decision_level s > lvl do
      ignore (Vec.pop s.trail_lim)
    done;
    s.qhead <- bound
  end

let var_decay = 0.95
let clause_decay = 0.999

let bump_var s v =
  let act = !(s.activity) in
  act.(v) <- act.(v) +. s.var_inc;
  if act.(v) > 1e100 then begin
    for i = 0 to s.nv - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Iheap.update s.order v

let bump_clause s c =
  if c.learnt then begin
    c.act <- c.act +. s.cla_inc;
    if c.act > 1e20 then begin
      Vec.iter (fun c -> c.act <- c.act *. 1e-20) s.learnts;
      s.cla_inc <- s.cla_inc *. 1e-20
    end
  end

let decay_activities s =
  s.var_inc <- s.var_inc /. var_decay;
  s.cla_inc <- s.cla_inc /. clause_decay

(* First-UIP conflict analysis. Returns the learnt clause (asserting
   literal at index 0) and the backtrack level. *)
let analyze s confl =
  let learnt = Vec.create () in
  ignore (Vec.push learnt 0);
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref (Some confl) in
  let index = ref (Vec.length s.trail - 1) in
  let btl = ref 0 in
  let dl = decision_level s in
  let looping = ref true in
  while !looping do
    let c = match !confl with Some c -> c | None -> assert false in
    bump_clause s c;
    let start = if !p < 0 then 0 else 1 in
    for jj = start to Array.length c.lits - 1 do
      let q = c.lits.(jj) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        bump_var s v;
        if s.level.(v) >= dl then incr path
        else begin
          ignore (Vec.push learnt q);
          if s.level.(v) > !btl then btl := s.level.(v)
        end
      end
    done;
    while not s.seen.((Vec.get s.trail !index) lsr 1) do
      decr index
    done;
    p := Vec.get s.trail !index;
    decr index;
    let v = !p lsr 1 in
    confl := s.reason.(v);
    s.seen.(v) <- false;
    decr path;
    if !path <= 0 then looping := false
  done;
  Vec.set learnt 0 (!p lxor 1);
  Vec.iter (fun q -> s.seen.(q lsr 1) <- false) learnt;
  (Vec.to_array learnt, !btl)

(* Attach a learnt clause after backjumping; [lits.(0)] is asserting. *)
let record s lits =
  if Array.length lits = 1 then enqueue s lits.(0) None
  else begin
    (* the second watch must be a highest-level (most recently undone)
       literal so the watch invariant survives future backtracking *)
    let max_i = ref 1 in
    for k = 2 to Array.length lits - 1 do
      if s.level.(lits.(k) lsr 1) > s.level.(lits.(!max_i) lsr 1) then
        max_i := k
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!max_i);
    lits.(!max_i) <- tmp;
    let c =
      { lits; act = 0.0; learnt = true; deleted = false; cid = s.next_cid }
    in
    s.next_cid <- s.next_cid + 1;
    ignore (Vec.push s.watches.(lits.(0)) c);
    ignore (Vec.push s.watches.(lits.(1)) c);
    bump_clause s c;
    ignore (Vec.push s.learnts c);
    enqueue s lits.(0) (Some c)
  end

let add_clause s lits =
  if s.ok then begin
    cancel_until s 0;
    let lits = List.sort_uniq Int.compare lits in
    let taut = List.exists (fun l -> List.mem (l lxor 1) lits) lits in
    let sat_ = List.exists (fun l -> lit_value s l = 1) lits in
    if not (taut || sat_) then begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ p ] -> (
        enqueue s p None;
        match propagate s with
        | Some _ -> s.ok <- false
        | None -> ())
      | _ ->
        let arr = Array.of_list lits in
        let c =
          {
            lits = arr;
            act = 0.0;
            learnt = false;
            deleted = false;
            cid = s.next_cid;
          }
        in
        s.next_cid <- s.next_cid + 1;
        ignore (Vec.push s.watches.(arr.(0)) c);
        ignore (Vec.push s.watches.(arr.(1)) c);
        ignore (Vec.push s.clauses c)
    end
  end

let locked s c =
  Array.length c.lits > 0
  &&
  match s.reason.(c.lits.(0) lsr 1) with
  | Some c' -> c' == c
  | None -> false

(* Drop roughly half the learnt clauses by activity; binary and locked
   (currently-a-reason) clauses survive. Watch lists shed the deleted
   clauses lazily during propagation. *)
let reduce_db s =
  let n = Vec.length s.learnts in
  if n > 1 then begin
    let arr = Vec.to_array s.learnts in
    Array.sort
      (fun a b ->
        if a.act < b.act then -1
        else if a.act > b.act then 1
        else Int.compare a.cid b.cid)
      arr;
    let lim = s.cla_inc /. float_of_int n in
    Vec.clear s.learnts;
    Array.iteri
      (fun i c ->
        let keep = Array.length c.lits <= 2 || locked s c in
        if (not keep) && (2 * i < n || c.act < lim) then c.deleted <- true
        else ignore (Vec.push s.learnts c))
      arr
  end

(* luby 0,1,2,... = 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  let looping = ref true in
  while !looping do
    if !size - 1 = !x then looping := false
    else begin
      size := (!size - 1) / 2;
      decr seq;
      x := !x mod !size
    end
  done;
  1 lsl !seq

let restart_unit = 32

(* Mark the variables of [scope] for this call and count the
   unassigned ones. *)
let open_scope s = function
  | None -> s.scope_id <- -1
  | Some vars ->
    s.scopes <- s.scopes + 1;
    s.scope_id <- s.scopes;
    s.scope_open <- 0;
    List.iter
      (fun v ->
        if s.scope_mark.(v) <> s.scope_id then begin
          s.scope_mark.(v) <- s.scope_id;
          if s.assigns.(v) >= 2 then s.scope_open <- s.scope_open + 1
        end)
      vars

let solve ?(assumptions = []) ?scope ?conflict_budget s =
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    open_scope s scope;
    let scoped = s.scope_id >= 0 in
    (* unassigned out-of-scope variables popped while picking a
       decision; they go back into the heap after the call *)
    let skipped = ref [] in
    let assumps = Array.of_list assumptions in
    let budget_left =
      ref (match conflict_budget with None -> max_int | Some b -> b)
    in
    let restart_num = ref 0 in
    let restart_limit = ref (restart_unit * luby 0) in
    let since_restart = ref 0 in
    let max_learnts =
      ref (max 1000.0 (float_of_int (Vec.length s.clauses) /. 3.0))
    in
    let result = ref None in
    let running () = match !result with None -> true | Some _ -> false in
    while running () do
      match propagate s with
      | Some confl ->
        s.n_conflicts <- s.n_conflicts + 1;
        incr since_restart;
        decr budget_left;
        if decision_level s = 0 then begin
          s.ok <- false;
          result := Some Unsat
        end
        else begin
          let lits, btl = analyze s confl in
          cancel_until s btl;
          record s lits;
          decay_activities s;
          if !budget_left <= 0 then result := Some Unknown
        end
      | None ->
        if !since_restart >= !restart_limit then begin
          incr restart_num;
          restart_limit := restart_unit * luby !restart_num;
          since_restart := 0;
          max_learnts := !max_learnts *. 1.1;
          cancel_until s 0
        end
        else begin
          if float_of_int (Vec.length s.learnts) > !max_learnts then
            reduce_db s;
          let dl = decision_level s in
          if dl < Array.length assumps then begin
            let p = assumps.(dl) in
            match lit_value s p with
            | 1 ->
              (* already true: dummy level keeps assumption indexing *)
              ignore (Vec.push s.trail_lim (Vec.length s.trail))
            | 0 -> result := Some Unsat
            | _ ->
              ignore (Vec.push s.trail_lim (Vec.length s.trail));
              enqueue s p None
          end
          else begin
            let rec pick () =
              match Iheap.pop s.order with
              | None -> None
              | Some v ->
                if s.assigns.(v) >= 2 then
                  if scoped && s.scope_mark.(v) <> s.scope_id then begin
                    skipped := v :: !skipped;
                    pick ()
                  end
                  else Some v
                else pick ()
            in
            match if scoped && s.scope_open = 0 then None else pick () with
            | None ->
              (* an unassigned (out-of-scope) variable reads false *)
              s.model <- Array.init s.nv (fun v -> s.assigns.(v) land 1);
              result := Some Sat
            | Some v ->
              let p = (2 * v) lor (s.polarity.(v) lxor 1) in
              ignore (Vec.push s.trail_lim (Vec.length s.trail));
              enqueue s p None
          end
        end
    done;
    cancel_until s 0;
    List.iter (Iheap.insert s.order) !skipped;
    s.scope_id <- -1;
    match !result with Some r -> r | None -> assert false
  end

let model_value s l =
  let v = l lsr 1 in
  let a = if v < Array.length s.model then s.model.(v) else 0 in
  a lxor (l land 1) = 1

let n_vars s = s.nv
let conflicts s = s.n_conflicts
let okay s = s.ok
