(* Driver for the AST-based whole-program analysis: load sources,
   build the call graph, run the passes and the syntactic rules, apply
   suppressions, and compare against a committed baseline. Pure —
   printing and exit codes live in bin/rhodos_lint. *)

type report = {
  findings : Finding.t list;
  suppressed : int;
  files : Source.file list;
  timings : (string * float) list;
  race_locations : Racepass.location list;
}

(* [clock] defaults to a constant so the library stays free of host
   clocks (the host-clock-hygiene rule); the CLI passes [Sys.time] to
   get real per-pass wall-time in [--json]. *)
let analyze_files ?(clock = fun () -> 0.) ?profile files =
  let timings = ref [] in
  let timed name f =
    let t0 = clock () in
    let r = f () in
    timings := (name, clock () -. t0) :: !timings;
    r
  in
  let graph = timed "callgraph" (fun () -> Callgraph.build files) in
  let mb = timed "mayblock" (fun () -> Mayblock.compute graph) in
  let lock = timed "lockpass" (fun () -> Lockpass.run graph mb) in
  let proto = timed "protocol" (fun () -> Protocol.run graph) in
  let _exn, exn_findings =
    timed "exnflow" (fun () -> Exnflow.run graph lock)
  in
  let race = timed "racepass" (fun () -> Racepass.run graph mb lock) in
  let ast = timed "ast-rules" (fun () -> Ast_rules.run ?profile files) in
  let all =
    Finding.sort
      (lock.Lockpass.findings @ proto @ exn_findings
      @ race.Racepass.findings @ ast)
  in
  let suppressions_for path =
    match
      List.find_opt (fun (f : Source.file) -> f.Source.path = path) files
    with
    | Some f -> f.Source.suppressions
    | None -> []
  in
  let kept, dropped =
    List.partition
      (fun (f : Finding.t) ->
        not
          (Source.suppressed
             (suppressions_for f.Finding.file)
             ~line:f.Finding.line ~rule:f.Finding.rule))
      all
  in
  (* A file the frontend rejects got no other rule, so its parse error
     is a finding no suppression can hide. *)
  let parse_errors =
    List.filter_map
      (fun (f : Source.file) ->
        Option.map
          (fun (line, msg) ->
            Finding.v ~rule:"parse-error" ~file:f.Source.path ~line
              ~slug:"parse" msg)
          f.Source.parse_error)
      files
  in
  {
    findings = Finding.sort (kept @ parse_errors);
    suppressed = List.length dropped;
    files;
    timings = List.rev !timings;
    race_locations = race.Racepass.locations;
  }

let analyze ?clock ?(profile = Ast_rules.Library) ~dirs () =
  let files = List.concat_map Source.load_dir dirs in
  let report = analyze_files ?clock ~profile files in
  match profile with
  | Bench -> report
  | Library ->
    {
      report with
      findings = Finding.sort (Ast_rules.missing_mli files @ report.findings);
    }

let against_baseline report ~baseline =
  let keys = List.map Finding.key report.findings in
  let fresh =
    List.filter
      (fun f -> not (List.mem (Finding.key f) baseline))
      report.findings
  in
  let stale = List.filter (fun k -> not (List.mem k keys)) baseline in
  (fresh, stale)

(* ------------------------------------------------------------------ *)
(* Fixture self-test                                                   *)
(* ------------------------------------------------------------------ *)

(* Fixtures carry their expectations in comments:
   [(* expect: rule-a rule-b *)] — the findings in this file must be
   exactly that rule set; no directive (or [expect-clean]) — the file
   must be silent. *)

let index_of hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let expected_rules src =
  match index_of src "expect:" with
  | None -> []
  | Some i ->
    let rest = String.sub src (i + 7) (String.length src - i - 7) in
    let stop =
      match index_of rest "*)" with
      | Some j -> String.sub rest 0 j
      | None -> rest
    in
    List.sort_uniq compare
      (List.filter
         (fun w -> w <> "")
         (String.split_on_char ' '
            (String.map (fun c -> if c = '\n' then ' ' else c) stop)))

let self_test ~dir =
  let report = analyze_files (Source.load_dir dir) in
  let ok = ref true in
  let out = ref [] in
  let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  List.iter
    (fun (f : Source.file) ->
      let base = Filename.basename f.Source.path in
      let expected = expected_rules f.Source.src in
      let found =
        List.sort_uniq compare
          (List.filter_map
             (fun (x : Finding.t) ->
               if x.Finding.file = f.Source.path then Some x.Finding.rule
               else None)
             report.findings)
      in
      if found = expected then
        say "fixture %s: ok (%s)" base
          (if expected = [] then "clean"
           else String.concat ", " expected)
      else begin
        ok := false;
        say "fixture %s: FAIL expected [%s] got [%s]" base
          (String.concat ", " expected)
          (String.concat ", " found)
      end)
    report.files;
  (* The headline rules must come with evidence: a finding without a
     witness chain is useless to the reader and a regression here. *)
  let witnessed_rules =
    [
      "may-block-under-lock"; "lock-order-cycle"; "swallowed-control-exn";
      "leak-on-raise"; "ivar-unfilled-on-raise"; "unmapped-wire-error";
      "escaping-raise-into-dispatch"; "static-race";
      "unsynchronized-cell-write"; "unmonitored-shared-state";
    ]
  in
  List.iter
    (fun (x : Finding.t) ->
      if
        List.mem x.Finding.rule witnessed_rules
        && x.Finding.witness = []
      then begin
        ok := false;
        say "finding %s at %s:%d has no witness chain" x.Finding.rule
          x.Finding.file x.Finding.line
      end)
    report.findings;
  (!ok, List.rev !out)
