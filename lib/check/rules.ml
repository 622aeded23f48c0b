(* The rule registry. Keep sorted by id; the CI meta-lint greps every
   rule-id-shaped string out of lib/ and fails when one is missing
   here, CI fails on an entry whose id no other lib/ or bin/ source
   file spells out, and [self_check] fails on duplicates / unsorted
   entries. *)

type entry = {
  id : string;
  severity : Diag.severity;
  pass : string;
  doc : string;
}

let e id severity pass doc = { id; severity; pass; doc }

let all =
  [
    e "AI-CONST-01" Diag.Warning "absint-const"
      "Ternary-constant dataflow proves a net constant: a logic gate is \
       forced to 0/1 while a fan-in is still unknown (its cone is wasted), \
       or a primary output is constant. Witness: the forcing chain from the \
       constant generator.";
    e "AI-LOAD-01" Diag.Warning "absint-load"
      "A splitter tree's capacity interval shows provably wasted fan-out: \
       some delivered sinks cannot affect any output. Witness: the tree \
       path down to a wasted sink.";
    e "AI-OBS-01" Diag.Warning "absint-obs"
      "Backward observability proves a gate cannot affect any primary \
       output: every path runs through a constant-valued (blocking) gate. \
       Witness: the path to the nearest blocking gate.";
    e "AI-POLAR-01" Diag.Warning "absint-polar"
      "Inversion-parity tracking found a cancelling inverter pair along one \
       buffer chain — AQFP inversion is free, so the pair is pure area and \
       phase waste. Witness: the chain from the nearest logic root.";
    e "AQFP-FANOUT-01" Diag.Error "aqfp"
      "A non-splitter cell drives more than one consumer; AQFP fan-out is 1 \
       and larger fan-outs need a splitter tree.";
    e "AQFP-KIND-01" Diag.Error "aqfp"
      "A non-majority gate (nand/nor/xor/xnor) survived majority synthesis.";
    e "AQFP-PHASE-00" Diag.Error "aqfp"
      "A node's clock phase is unset — levelize never ran on this netlist.";
    e "AQFP-PHASE-01" Diag.Error "aqfp"
      "Path balance is violated after buffer insertion: a gate's fan-in \
       does not sit exactly one clock phase above it, or a primary input \
       or constant sits off phase 0. With sources at phase 0, this rule \
       alone makes every path into a gate equally long.";
    e "AQFP-PHASE-02" Diag.Error "aqfp"
      "A primary output retires before the design's last clock phase \
       (unbalanced output).";
    e "AQFP-SPLIT-01" Diag.Error "aqfp"
      "A splitter's arity is outside the cell library's 2..4 range.";
    e "CHECK-CRASH-01" Diag.Error "check"
      "A verification pass raised an exception; the pipeline continued and \
       reports the crash as this single diagnostic.";
    e "DB-CKSUM-01" Diag.Error "sf_db"
      "A stored artifact's MD5 checksum does not match its payload (bit rot \
       or a torn write); the entry self-heals by recomputation.";
    e "DB-DIR-01" Diag.Error "sf_db"
      "The database path exists but is not an sf_db directory.";
    e "DB-FROM-01" Diag.Error "flow"
      "--from asserts earlier stages are already cached, but a required \
       stage is missing from the database.";
    e "DB-IO-01" Diag.Error "sf_db" "An object or manifest file failed to read/write, or the database directory could not be created.";
    e "DB-KIND-01" Diag.Error "sf_db"
      "A stored frame carries the wrong artifact kind tag for the slot it \
       was loaded into.";
    e "DB-MAGIC-01" Diag.Error "sf_db" "A stored frame does not start with the SFDB magic.";
    e "DB-PARSE-01" Diag.Error "sf_db" "A stored frame's payload failed structural decoding.";
    e "DB-RANGE-01" Diag.Error "flow"
      "--from/--to form an empty or unusable stage range (or --from was \
       given without a database).";
    e "DB-SLOT-01" Diag.Error "sf_db" "A stage manifest is missing a required output slot.";
    e "DB-TRUNC-01" Diag.Error "sf_db" "A stored frame is shorter than its declared length.";
    e "DB-VERSION-01" Diag.Error "sf_db"
      "A stored frame's format version does not match this build (stale \
       cache after a codec bump).";
    e "DRC-AREA-01" Diag.Error "drc"
      "A single drawn metal shape is smaller than the minimum area.";
    e "DRC-CELL-OVERLAP" Diag.Error "drc" "Two placed cell bodies overlap.";
    e "DRC-CELL-SPACING" Diag.Error "drc"
      "Two cells in the same row sit closer than the minimum cell gap.";
    e "DRC-DENSITY" Diag.Error "drc"
      "A sliding window's metal density exceeds the process limit.";
    e "DRC-EOL-01" Diag.Error "drc"
      "Foreign same-layer metal intrudes into the end-of-line extension \
       region ahead of a wire's endcap.";
    e "DRC-NOTCH-01" Diag.Error "drc"
      "Same-net same-layer metal re-approaches itself closer than the notch \
       spacing without touching.";
    e "DRC-OFF-GRID" Diag.Error "drc"
      "A cell origin or wire endpoint is off the manufacturing grid.";
    e "DRC-VIA-ALIGNMENT" Diag.Error "drc"
      "A via does not join wire endpoints on both routing layers.";
    e "DRC-VIA-ENCLOSE-01" Diag.Error "drc"
      "A via cut is not enclosed by same-net metal with the required margin \
       on every routing layer (landing-pad rule).";
    e "DRC-WIDTH-01" Diag.Error "drc"
      "A drawn metal shape is narrower than the minimum width.";
    e "DRC-WIRE-OVERLAP" Diag.Error "drc"
      "Same-layer metal of two different nets overlaps (a short).";
    e "DRC-WIRE-SPACING" Diag.Error "drc"
      "Different-net same-layer metal sits closer than the minimum edge gap \
       (corner-aware Euclidean metric).";
    e "DRC-ZIGZAG-SPACING" Diag.Error "drc"
      "A via-to-via wire run is shorter than s_min (the paper's zig-zag \
       bent-wire rule).";
    e "DSAN-DIVERGE-01" Diag.Error "dsan"
      "A flow stage produced different artifact bytes at jobs=1 and jobs=k \
       (volatile wall-clock fields zeroed before comparison); the witness \
       names the first divergent stage and output slot.";
    e "DSAN-EPOCH-01" Diag.Error "dsan"
      "The router's search arena popped a state whose stamp predates the \
       current epoch: the freshness test would read dist/parent values left \
       over from a previous search.";
    e "DSAN-NEST-01" Diag.Warning "dsan"
      "A Parallel call was made from inside another call's chunk; it runs \
       inline on one lane, so the inner loop gets no speedup and its chunk \
       structure silently changes.";
    e "DSAN-OWN-01" Diag.Error "dsan"
      "A chunk wrote a tracked array outside its ownership discipline — \
       beyond its static [lo, hi) slice, or to a read-only shared input. \
       Witness: call-site label, chunk id and index.";
    e "DSAN-RW-01" Diag.Error "dsan"
      "One chunk read a tracked array index that another chunk of the same \
       batch wrote: the read's value depends on the schedule. Witness: \
       call-site label, both chunk ids and the index.";
    e "DSAN-SCHED-01" Diag.Error "dsan"
      "Output differed between the unfuzzed baseline and a seeded \
       permutation of chunk execution order; since the combine order is \
       fixed, the result depends on scheduling.";
    e "DSAN-WW-01" Diag.Error "dsan"
      "Two chunks of one batch wrote the same tracked array index: \
       last-writer-wins makes the final value schedule-dependent. Witness: \
       call-site label, both chunk ids and the index.";
    e "EQ-ARITY-01" Diag.Error "equiv"
      "The two netlists being compared have different primary input/output \
       counts; no per-output proof was attempted.";
    e "EQ-CEX-01" Diag.Error "equiv"
      "Internal error: the SAT proof returned a counterexample that does \
       not replay through simulation.";
    e "EQ-DIFF-01" Diag.Error "equiv"
      "An output provably differs between the two netlists; the message \
       carries the replayed counterexample input vector.";
    e "EQ-DIFF-02" Diag.Error "equiv"
      "An output differs under the random-simulation fallback (its SAT \
       conflict budget ran out).";
    e "EQ-TIMEOUT-01" Diag.Warning "equiv"
      "The SAT conflict budget was exhausted for an output; equivalence was \
       only sampled, not proven.";
    e "LVS-FLOAT-01" Diag.Warning "lvs" "Drawn metal touches no pin of any net.";
    e "LVS-OPEN-01" Diag.Error "lvs"
      "No drawn path connects a net's driver pin to its sink pin.";
    e "LVS-SHORT-01" Diag.Error "lvs"
      "One connected component of drawn metal touches pins of more than one \
       net.";
    e "LVS-SWAP-01" Diag.Error "lvs" "A driver is wired to another net's sink.";
    e "NL-ARITY-01" Diag.Error "lint" "A gate's fan-in count does not match its kind.";
    e "NL-CONST-01" Diag.Warning "lint"
      "A primary output is provably constant (AIG constant propagation on \
       the sf_sat engine; the cheap dataflow tier reports AI-CONST-01 \
       instead).";
    e "NL-CYCLE-01" Diag.Error "lint" "The netlist has a combinational cycle.";
    e "NL-DANGLE-01" Diag.Error "lint" "A fan-in references a node id that does not exist.";
    e "NL-DEAD-01" Diag.Warning "lint"
      "Dead logic: backward observability proves the node reaches no \
       primary output. Witness: the chain forward to the dead end.";
    e "NL-DUP-01" Diag.Warning "lint"
      "A gate recomputes the same function of the same fan-ins as an \
       earlier gate (structural AIG duplicate).";
    e "NL-FANOUT-01" Diag.Error "lint"
      "A k-way splitter's real consumer count differs from k.";
    e "NL-INPUT-01" Diag.Info "lint" "A primary input is never used.";
    e "NL-NAME-01" Diag.Warning "lint" "Two nodes carry the same name.";
    e "NL-OUT-01" Diag.Warning "lint" "The netlist has no primary outputs.";
    e "PL-CAP-01" Diag.Warning "place"
      "A row's total cell demand exceeds the die width.";
    e "PL-GRID-01" Diag.Error "place" "A placed cell's x position is off the placement grid.";
    e "PL-INDEX-01" Diag.Error "place"
      "A cell's row index disagrees with the row that contains it.";
    e "PL-LEGAL-01" Diag.Error "flow"
      "The placer's result fails the legality check (overlapping cells, \
       spacing below s_min, an x off the grid or below zero), so the flow \
       stops at the place stage. The message names the first violation and \
       counts the rest; the usual cause is a technology whose s_min or cell \
       sizes the rows cannot honour.";
    e "PL-NEG-01" Diag.Error "place" "A placed cell has a negative x position.";
    e "PL-OVERLAP-01" Diag.Error "place" "Two placed cells in one row overlap.";
    e "PL-ROW-01" Diag.Error "place"
      "A cell's placement row differs from its clock phase (AQFP rows are \
       phases).";
    e "PL-SPACING-01" Diag.Error "place"
      "Two cells in one row sit closer than the minimum spacing.";
    e "RS-CEC-01" Diag.Warning "resyn"
      "A resynthesis rewrite's window equivalence proof failed or timed out; \
       the rewrite was refused and the original cone kept.";
    e "RT-CONN-01" Diag.Error "route" "A routed net does not connect its pins.";
    e "RT-UNROUTE-01" Diag.Error "flow"
      "A net found no route after the router widened its row gap as many \
       times as its budget allows, so the flow stops at the route stage.";
    e "SL-CATCH-01" Diag.Error "mlint"
      "A catch-all exception handler (with _ ->) swallows the exception; \
       failures must surface as diagnostics or re-raise, not vanish.";
    e "SL-EXIT-01" Diag.Error "mlint"
      "A library calls exit, preempting the CLI's error handling and exit \
       codes; only bin/ may terminate the process.";
    e "SL-GLOBAL-01" Diag.Error "mlint"
      "Module-level mutable state (ref/Hashtbl.create/Buffer/...) in a \
       library that is not registered in the determinism-contract table; \
       hidden globals make stages order- and reentrancy-sensitive.";
    e "SL-HASH-01" Diag.Error "mlint"
      "Hashtbl.iter/fold/to_seq with no sort in the enclosing definition: \
       hash-bucket iteration order is unspecified, so anything derived from \
       it can differ between runs and builds.";
    e "SL-LABEL-01" Diag.Error "mlint"
      "A Parallel call site carries no ~label, so sanitizer findings and the \
       call-site inventory cannot name it (static form of sf_dsan's \
       runtime-only labeling check).";
    e "SL-MARSHAL-01" Diag.Error "mlint"
      "Marshal outside lib/db/codec.ml bypasses the versioned, checksummed \
       Codec frames the design database depends on.";
    e "SL-PARSE-01" Diag.Error "mlint"
      "A source file failed to parse (or read), so none of its contents \
       could be checked against the determinism contract.";
    e "SL-POLY-01" Diag.Warning "mlint"
      "Polymorphic compare/Stdlib.compare/Hashtbl.hash in a stage library; \
       prefer a monomorphic comparator — polymorphic compare raises on \
       closures and silently orders by representation.";
    e "SL-PRINT-01" Diag.Error "mlint"
      "A library prints to stdout; reports must be returned as strings (or \
       take a formatter) so stdout stays byte-comparable and CLI-owned.";
    e "SL-RULEID-01" Diag.Error "mlint"
      "A diagnostic-id-shaped string literal has no entry in the Rules \
       registry (subsumes the old CI grep meta-lint; superflow explain must \
       resolve every id the code can emit).";
    e "SL-TIME-01" Diag.Error "mlint"
      "Sys.time/Unix.gettimeofday/Random.self_init outside the Wallclock \
       module; wall-clock or nondeterministic seeds must never reach stage \
       outputs or cache keys.";
  ]

let find id = List.find_opt (fun r -> r.id = id) all

let explain id =
  match find id with
  | None -> Error (Printf.sprintf "unknown rule id %S" id)
  | Some r ->
      Ok
        (Printf.sprintf "%s (%s, pass %s)\n  %s" r.id
           (Diag.severity_name r.severity)
           r.pass r.doc)

let catalog_markdown () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "| rule | severity | pass | meaning |\n|---|---|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "| `%s` | %s | `%s` | %s |\n" r.id
           (Diag.severity_name r.severity)
           r.pass r.doc))
    all;
  Buffer.contents buf

let self_check () =
  let problems = ref [] in
  let rec scan = function
    | a :: (b :: _ as rest) ->
        if a.id = b.id then
          problems := Printf.sprintf "duplicate rule id %s" a.id :: !problems
        else if a.id > b.id then
          problems :=
            Printf.sprintf "registry unsorted at %s > %s" a.id b.id
            :: !problems;
        scan rest
    | _ -> ()
  in
  scan all;
  List.iter
    (fun r ->
      if String.trim r.doc = "" then
        problems := Printf.sprintf "rule %s has no doc" r.id :: !problems)
    all;
  List.rev !problems
