(* Repo lint: the AST-based whole-program analysis (call graph,
   may-block fixpoint, lock-order graph, wire-protocol coverage,
   exception flow, shared-state races) plus the syntactic rules.

   [rhodos_lint [--json] [--baseline FILE] [--write-baseline FILE]
   [--self-test DIR] [--max-ms N] [DIR...]] sweeps every .ml under the
   given directories (default: lib). A sweep whose directories are all
   named "bench" runs the Bench profile; any other runs the Library
   profile. Exit 0 when clean against the baseline (if any), 1 on new
   findings (a file that does not parse is one), 2 on usage/IO errors.
   Wired to the @lint alias on the tier-1 runtest path. *)

module Ast_rules = Rhodos_static.Ast_rules
module Static = Rhodos_static.Static
module Finding = Rhodos_static.Finding

let profile_of dirs =
  if List.for_all (fun d -> Filename.basename d = "bench") dirs then
    Ast_rules.Bench
  else Ast_rules.Library

let require_dir d =
  if not (Sys.file_exists d && Sys.is_directory d) then begin
    Format.eprintf "lint: no such directory: %s@." d;
    exit 2
  end

let () =
  let json = ref false in
  let baseline = ref None in
  let write_baseline = ref None in
  let self_test = ref None in
  let max_ms = ref None in
  let dirs = ref [] in
  let some r = Arg.String (fun v -> r := Some v) in
  Arg.parse
    [
      ("--json", Arg.Set json, " JSON report (with the race protection map)");
      ("--baseline", some baseline, "FILE accepted findings");
      ("--write-baseline", some write_baseline, "FILE record every finding");
      ("--self-test", some self_test, "DIR check the fixtures' expect: lines");
      ( "--max-ms",
        Arg.Float (fun v -> max_ms := Some v),
        "N fail when the analysis takes longer" );
    ]
    (fun d -> dirs := !dirs @ [ d ])
    "usage: rhodos_lint [OPTION...] [DIR...]";
  match !self_test with
  | Some dir ->
    require_dir dir;
    let ok, lines = Static.self_test ~dir in
    List.iter (fun l -> Format.printf "%s@." l) lines;
    if ok then Format.printf "lint: self-test passed@."
    else begin
      Format.eprintf "lint: self-test FAILED@.";
      exit 1
    end
  | None ->
    let dirs = match !dirs with [] -> [ "lib" ] | ds -> ds in
    List.iter require_dir dirs;
    (* Sys.time here, not in the library: bin/ is outside the
       host-clock-hygiene lint's jurisdiction, and the per-pass cost
       numbers are a CLI concern anyway. *)
    let report =
      Static.analyze ~clock:Sys.time ~profile:(profile_of dirs) ~dirs ()
    in
    let baseline_keys =
      match !baseline with
      | None -> []
      | Some f ->
        if Sys.file_exists f then
          Finding.baseline_of_string
            (In_channel.with_open_bin f In_channel.input_all)
        else begin
          Format.eprintf "lint: no such baseline: %s@." f;
          exit 2
        end
    in
    (match !write_baseline with
    | None -> ()
    | Some f ->
      Out_channel.with_open_bin f (fun oc ->
          output_string oc
            (Finding.baseline_to_string
               (List.map Finding.key report.Static.findings))));
    let fresh, stale = Static.against_baseline report ~baseline:baseline_keys in
    if !json then
      print_string
        (Finding.list_to_json
           ~suppressed:report.Static.suppressed
           ~timings:report.Static.timings
           ~extras:
             [
               ( "protection_map",
                 Rhodos_static.Racepass.locations_to_json
                   report.Static.race_locations );
             ]
           fresh)
    else begin
      List.iter (fun f -> Format.printf "%a@." Finding.pp f) fresh;
      (* A readable added/removed diff against the committed baseline:
         the sweep deviating must say exactly how. *)
      if fresh <> [] || stale <> [] then begin
        Format.eprintf "lint: baseline diff (%d added, %d removed):@."
          (List.length fresh) (List.length stale);
        List.iter
          (fun f ->
            Format.eprintf "  + %s (%s:%d)@." (Finding.key f) f.Finding.file
              f.Finding.line)
          fresh;
        List.iter
          (fun k -> Format.eprintf "  - %s (stale: no longer found)@." k)
          stale
      end
    end;
    (* Wall-time budget: a generous ceiling so a later pass cannot
       silently blow up CI. *)
    let total_ms =
      1000. *. List.fold_left (fun a (_, s) -> a +. s) 0. report.Static.timings
    in
    (match !max_ms with
    | Some budget when total_ms > budget ->
      Format.eprintf
        "lint: static suite took %.0f ms, over the %.0f ms budget \
         (per-pass: %s)@."
        total_ms budget
        (String.concat ", "
           (List.map
              (fun (p, s) -> Printf.sprintf "%s %.0fms" p (1000. *. s))
              report.Static.timings));
      exit 1
    | _ -> ());
    if fresh = [] then begin
      if not !json then
        Format.printf
          "lint: %s clean (%d finding(s) baselined, %d suppressed)@."
          (String.concat " " dirs)
          (List.length baseline_keys)
          report.Static.suppressed
    end
    else begin
      Format.eprintf "lint: %d new finding(s)@." (List.length fresh);
      exit 1
    end
