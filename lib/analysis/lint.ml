type violation = { file : string; line : int; rule : string; message : string }

(* ------------------------------------------------------------------ *)
(* Source preparation                                                  *)
(* ------------------------------------------------------------------ *)

(* Blank out comments (nesting, as OCaml's do), string literals and
   character literals, preserving newlines so line numbers survive.
   Type variables ('a) are distinguished from character literals by
   looking ahead for the closing quote. *)
let strip_comments_and_strings src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let rec skip_string i =
    (* [i] points after the opening quote; returns index after the
       closing quote. *)
    if i >= n then i
    else
      match src.[i] with
      | '\\' ->
        blank i;
        if i + 1 < n then blank (i + 1);
        skip_string (i + 2)
      | '"' ->
        blank i;
        i + 1
      | _ ->
        blank i;
        skip_string (i + 1)
  in
  let rec skip_comment i depth =
    if i >= n then i
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      skip_comment (i + 2) (depth + 1)
    end
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    end
    else if src.[i] = '"' then begin
      blank i;
      skip_comment (skip_string (i + 1)) depth
    end
    else begin
      blank i;
      skip_comment (i + 1) depth
    end
  in
  let is_char_literal i =
    (* src.[i] = '\''; a character literal is 'x' or an escape. *)
    (i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'')
    || (i + 1 < n && src.[i + 1] = '\\')
  in
  let rec go i =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      go (skip_comment (i + 2) 1)
    end
    else if src.[i] = '"' then begin
      blank i;
      go (skip_string (i + 1))
    end
    else if src.[i] = '\'' && is_char_literal i then begin
      (* Blank up to and including the closing quote. *)
      let j = ref (i + 1) in
      if !j < n && src.[!j] = '\\' then incr j;
      while !j < n && src.[!j] <> '\'' do
        incr j
      done;
      for k = i to min !j (n - 1) do
        blank k
      done;
      go (!j + 1)
    end
    else go (i + 1)
  in
  go 0;
  Bytes.to_string out

let line_of src pos =
  let line = ref 1 in
  for i = 0 to min pos (String.length src - 1) - 1 do
    if src.[i] = '\n' then incr line
  done;
  !line

(* ------------------------------------------------------------------ *)
(* Rule: forbidden identifiers (wall clock, ambient randomness)        *)
(* ------------------------------------------------------------------ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Library code must live entirely in simulated time and seeded
   randomness, or runs stop being replayable. *)
let forbidden =
  [
    ("Unix.", "wall-clock/OS access; use Sim time instead");
    ("open Unix", "wall-clock/OS access; use Sim time instead");
    ("Sys.time", "wall clock; use Sim.now instead");
    ("Random.self_init", "unseeded randomness breaks replay; use Rng with a seed");
  ]

let find_forbidden ~file stripped =
  let vs = ref [] in
  List.iter
    (fun (pat, why) ->
      let plen = String.length pat in
      let limit = String.length stripped - plen in
      let i = ref 0 in
      while !i <= limit do
        if
          String.sub stripped !i plen = pat
          && (!i = 0 || not (is_ident_char stripped.[!i - 1]))
        then begin
          vs :=
            {
              file;
              line = line_of stripped !i;
              rule = "no-wall-clock";
              message = Printf.sprintf "%s: %s" (String.trim pat) why;
            }
            :: !vs;
          i := !i + plen
        end
        else incr i
      done)
    forbidden;
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* Rule: host clocks only inside the profiler                          *)
(* ------------------------------------------------------------------ *)

(* Host time is allowed in exactly one library module: the profiler
   ([lib/obs/profiler.ml]), whose readings flow only into its own
   accumulators. Anywhere else a host clock can leak into simulated
   state, digests or event ordering and silently break replay — the
   general [no-wall-clock] rule catches the [Unix.]/[Sys.time] forms,
   but this rule names the hygiene contract explicitly and also
   covers the monotonic clock the profiler itself uses. *)
let host_clock_idents =
  [
    "Unix.gettimeofday"; "Unix.time"; "Unix.times"; "Sys.time";
    "Monotonic_clock.";
  ]

let find_host_clock ~file stripped =
  if Filename.basename file = "profiler.ml" then []
  else begin
    let n = String.length stripped in
    let vs = ref [] in
    List.iter
      (fun pat ->
        let plen = String.length pat in
        let i = ref 0 in
        while !i <= n - plen do
          if
            String.sub stripped !i plen = pat
            && (!i = 0 || not (is_ident_char stripped.[!i - 1]))
            && (pat.[plen - 1] = '.'
               || !i + plen >= n
               || not (is_ident_char stripped.[!i + plen]))
          then begin
            vs :=
              {
                file;
                line = line_of stripped !i;
                rule = "host-clock-hygiene";
                message =
                  Printf.sprintf
                    "%s: host clocks are confined to the profiler \
                     (lib/obs/profiler.ml); anywhere else host time can \
                     leak into simulated state or digests"
                    (String.trim pat);
              }
              :: !vs;
            i := !i + plen
          end
          else incr i
        done)
      host_clock_idents;
    List.rev !vs
  end

(* ------------------------------------------------------------------ *)
(* Rule: no direct printing from library code                          *)
(* ------------------------------------------------------------------ *)

(* Libraries must not write to stdout/stderr directly: output belongs
   to the [Logging] facade or an observability exporter, where the
   harness can capture, rate or silence it. [logging.ml] itself is the
   one sanctioned sink. *)
let print_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "Printf.printf"; "Printf.eprintf";
    "Format.printf"; "Format.eprintf"; "prerr_string"; "prerr_endline";
    "prerr_newline";
  ]

let find_direct_prints ~file stripped =
  if Filename.basename file = "logging.ml" then []
  else begin
    let vs = ref [] in
    List.iter
      (fun pat ->
        let plen = String.length pat in
        let limit = String.length stripped - plen in
        let i = ref 0 in
        while !i <= limit do
          if
            String.sub stripped !i plen = pat
            && (!i = 0 || not (is_ident_char stripped.[!i - 1]))
            && (!i + plen >= String.length stripped
               || not (is_ident_char stripped.[!i + plen]))
          then begin
            vs :=
              {
                file;
                line = line_of stripped !i;
                rule = "no-direct-print";
                message =
                  Printf.sprintf
                    "%s: library code must not print directly; go through \
                     Logging or an obs exporter"
                    pat;
              }
              :: !vs;
            i := !i + plen
          end
          else incr i
        done)
      print_idents;
    List.rev !vs
  end

(* ------------------------------------------------------------------ *)
(* Rule: no unseeded ambient randomness                                *)
(* ------------------------------------------------------------------ *)

(* The global [Random] state is process-wide and unseeded by the
   harness: any [Random.int]/[Random.bits] in library code injects
   nondeterminism the explorer and replay cannot reproduce. Seeded
   [Random.State] values (what [Rng] wraps) are fine. *)
let find_unseeded_random ~file stripped =
  let pat = "Random." in
  let plen = String.length pat in
  let n = String.length stripped in
  let vs = ref [] in
  let i = ref 0 in
  while !i <= n - plen do
    if
      String.sub stripped !i plen = pat
      && (!i = 0 || not (is_ident_char stripped.[!i - 1]))
    then begin
      let start = !i + plen in
      let j = ref start in
      while !j < n && is_ident_char stripped.[!j] do
        incr j
      done;
      let callee = String.sub stripped start (!j - start) in
      (* State is the seeded API; self_init is already flagged by
         no-wall-clock. *)
      if callee <> "State" && callee <> "self_init" && callee <> "" then
        vs :=
          {
            file;
            line = line_of stripped !i;
            rule = "no-unseeded-random";
            message =
              Printf.sprintf
                "Random.%s uses the unseeded global state; draw from a \
                 seeded Random.State (see Rng) so runs stay replayable"
                callee;
          }
          :: !vs;
      i := !j
    end
    else incr i
  done;
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* Rule: Hashtbl iteration order must not feed output                  *)
(* ------------------------------------------------------------------ *)

(* [Hashtbl.iter]/[Hashtbl.fold] enumerate in bucket order, which
   depends on insertion history and the hash function — stable within
   a run but not a contract. A call whose body accumulates a list
   ([::] shortly after) and never sorts it hands that order to
   digests, observations or callers. Heuristic windows: a cons within
   [cons_window] chars of the call marks accumulation; any "sort"
   within [sort_window] chars after the call absolves it. *)
let find_unsorted_hashtbl_iteration ~file stripped =
  let cons_window = 400 and sort_window = 1200 in
  let n = String.length stripped in
  let has_sub lo hi needle =
    let nl = String.length needle in
    let hi = min hi (n - nl) in
    let rec go i = i <= hi && (String.sub stripped i nl = needle || go (i + 1)) in
    go lo
  in
  (* Like [has_sub], but the needle must start an identifier: "sorted"
     and "sort_uniq" absolve, an identifier merely containing "sort"
     ("resort_x") does not. *)
  let has_token_prefix lo hi needle =
    let nl = String.length needle in
    let hi = min hi (n - nl) in
    let rec go i =
      i <= hi
      && (((i = 0 || not (is_ident_char stripped.[i - 1]))
          && String.sub stripped i nl = needle)
         || go (i + 1))
    in
    go lo
  in
  let vs = ref [] in
  List.iter
    (fun pat ->
      let plen = String.length pat in
      let i = ref 0 in
      while !i <= n - plen do
        if
          String.sub stripped !i plen = pat
          && (!i = 0 || not (is_ident_char stripped.[!i - 1]))
          && not (is_ident_char stripped.[!i + plen])
        then begin
          let after = !i + plen in
          if
            has_sub after (after + cons_window) "::"
            (* the sort may also wrap the call — [List.sort compare
               (Hashtbl.fold ...)] — so look a little way back too *)
            && not
                 (has_token_prefix (max 0 (!i - 200)) (after + sort_window)
                    "sort")
          then
            vs :=
              {
                file;
                line = line_of stripped !i;
                rule = "hashtbl-iter-order";
                message =
                  Printf.sprintf
                    "%s accumulates a list in hash-bucket order with no \
                     sort in sight; sort before the result reaches a \
                     digest or caller"
                    pat;
              }
              :: !vs;
          i := after
        end
        else incr i
      done)
    [ "Hashtbl.iter"; "Hashtbl.fold" ];
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* Rule: no catch-all try ... with _ ->                                *)
(* ------------------------------------------------------------------ *)

type marker = Block | Brace | Try | Match

(* A light token scan distinguishing the [with] of a [try] from the
   [with] of a [match] and from record update ([{ e with ... }]): a
   stack tracks open [try]/[match]/brace/block constructs, and a
   [with] resolves against the nearest one. A [try] whose first
   handler pattern is [_] is a catch-all: it swallows [Sim.Killed],
   [Assert_failure] and friends indiscriminately. *)
let find_catch_alls ~file stripped =
  let n = String.length stripped in
  let vs = ref [] in
  let stack = ref [] in
  let pop_until pred =
    let rec go = function
      | [] -> []
      | m :: rest -> if pred m then rest else go rest
    in
    stack := go !stack
  in
  (* Tokenize: identifiers/keywords and single chars. *)
  let i = ref 0 in
  let next_token () =
    while
      !i < n
      && (stripped.[!i] = ' ' || stripped.[!i] = '\n' || stripped.[!i] = '\t'
        || stripped.[!i] = '\r')
    do
      incr i
    done;
    if !i >= n then None
    else if is_ident_char stripped.[!i] then begin
      let start = !i in
      while !i < n && is_ident_char stripped.[!i] do
        incr i
      done;
      Some (`Ident (String.sub stripped start (!i - start), start))
    end
    else begin
      let c = stripped.[!i] in
      incr i;
      Some (`Char (c, !i - 1))
    end
  in
  let peek_handler_is_catch_all () =
    (* After a try's [with]: optional [|], then the pattern; flag when
       it is a lone [_]. *)
    let saved = !i in
    let tok = next_token () in
    let tok =
      match tok with Some (`Char ('|', _)) -> next_token () | t -> t
    in
    let result =
      match tok with
      | Some (`Ident ("_", _)) -> (
        match next_token () with
        | Some (`Char ('-', _)) when !i < n && stripped.[!i] = '>' -> true
        | Some (`Ident ("when", _)) -> true
        | _ -> false)
      | _ -> false
    in
    i := saved;
    result
  in
  let rec loop () =
    match next_token () with
    | None -> ()
    | Some tok ->
      (match tok with
      | `Ident (("begin" | "struct" | "sig" | "object"), _) ->
        stack := Block :: !stack
      | `Ident ("end", _) -> pop_until (fun m -> m = Block)
      | `Char ('(', _) -> stack := Block :: !stack
      | `Char (')', _) -> pop_until (fun m -> m = Block)
      | `Char ('{', _) -> stack := Brace :: !stack
      | `Char ('}', _) -> pop_until (fun m -> m = Brace)
      | `Ident ("try", _) -> stack := Try :: !stack
      | `Ident ("match", _) -> stack := Match :: !stack
      | `Ident ("with", pos) -> (
        match !stack with
        | Brace :: _ -> () (* record update: { e with ... } *)
        | _ ->
          let was_try =
            let rec find = function
              | [] -> None
              | Try :: _ -> Some true
              | Match :: _ -> Some false
              | (Block | Brace) :: rest -> find rest
            in
            find !stack
          in
          pop_until (fun m -> m = Try || m = Match);
          if was_try = Some true && peek_handler_is_catch_all () then
            vs :=
              {
                file;
                line = line_of stripped pos;
                rule = "no-catch-all";
                message =
                  "catch-all `try ... with _ ->` swallows Sim.Killed and \
                   unexpected errors; match the expected exceptions";
              }
              :: !vs)
      | _ -> ());
      loop ()
  in
  loop ();
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* Rule: acquire/release pairing                                       *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* File-granularity pairing: a module that acquires must also contain
   a release path. Coarse, but catches the classic leak where a new
   call site takes a lock and no code can ever give it back. *)
let pairing_rules =
  [
    ("Semaphore.acquire", [ "Semaphore.release" ]);
    ("Mutex.lock", [ "Mutex.unlock" ]);
    ("Lock_manager.acquire", [ "Lock_manager.release_all"; "with_lock" ]);
    ("Lock_manager.try_acquire", [ "Lock_manager.release_all"; "with_lock" ]);
  ]

let find_unpaired ~file stripped =
  List.filter_map
    (fun (acq, rels) ->
      if contains stripped acq && not (List.exists (contains stripped) rels)
      then
        Some
          {
            file;
            line = 1;
            rule = "paired-release";
            message =
              Printf.sprintf "%s with no %s on any path" acq
                (String.concat " / " rels);
          }
      else None)
    pairing_rules

(* ------------------------------------------------------------------ *)
(* Rule: no module-level mutable state                                 *)
(* ------------------------------------------------------------------ *)

(* A module-level [ref]/[Hashtbl]/[Queue]/[Buffer] is state shared by
   every simulation world in the process: it leaks between runs,
   defeats the explorer's world-per-schedule isolation, and is
   invisible to the sanitizer (which only sees [Sim.Cell] accesses).
   State belongs in a record created per world. The allowlist is empty
   since the last two sanctioned globals were restructured away (the
   [Logging] registry now reuses [Logs.Src.list]; [Sim.Local] keys are
   identified by their extensible constructor, not a counter); the
   race pass's [unmonitored-shared-state] now owns this ground with
   real reachability, and this token rule survives only as the
   fallback for files the compiler frontend rejects. *)
let global_state_allowlist : string list = []

let mutable_creators =
  [ "ref "; "Hashtbl.create"; "Queue.create"; "Buffer.create" ]

let find_global_mutable_state ~file stripped =
  if List.mem (Filename.basename file) global_state_allowlist then []
  else begin
    let lines = String.split_on_char '\n' stripped in
    let arr = Array.of_list lines in
    let vs = ref [] in
    let starts_with p s =
      String.length s >= String.length p && String.sub s 0 (String.length p) = p
    in
    (* "in" as a token, not as a substring — else the "int" in a type
       annotation makes a module-level binding look like a local one *)
    let has_in_keyword line =
      let n = String.length line in
      let found = ref false in
      for i = 0 to n - 2 do
        if
          line.[i] = 'i'
          && line.[i + 1] = 'n'
          && (i = 0 || not (is_ident_char line.[i - 1]))
          && (i + 2 >= n || not (is_ident_char line.[i + 2]))
        then found := true
      done;
      !found
    in
    let indent_of line =
      let i = ref 0 in
      while !i < String.length line && line.[!i] = ' ' do
        incr i
      done;
      !i
    in
    (* A binding whose [in] sits on a later line is still local:
       continuation lines (deeper indent) may carry it anywhere, and
       the first line back at the binding's indent closes it when it
       leads with an [in] token. Without this lookahead a multi-line
       [let x =\n  ref 0\nin] inside a function reads like module
       state. *)
    let in_on_later_line idx indent =
      let res = ref false in
      let scanning = ref true in
      let j = ref (idx + 1) in
      while !scanning && !j < Array.length arr do
        let l = arr.(!j) in
        if String.trim l = "" then incr j
        else if indent_of l > indent then
          if has_in_keyword l then begin
            res := true;
            scanning := false
          end
          else incr j
        else begin
          let t = String.trim l in
          if t = "in" || starts_with "in " t then res := true;
          scanning := false
        end
      done;
      !res
    in
    Array.iteri
      (fun idx line ->
        let indent = indent_of line in
        let body = String.trim line in
        if
          indent <= 2
          && starts_with "let " body
          && (not (has_in_keyword line))
          && not (in_on_later_line idx indent)
        then
          match String.index_opt body '=' with
          | Some eq ->
            let binder = String.sub body 4 (eq - 4) in
            let parameterized =
              match
                (String.index_opt binder '(', String.index_opt binder ':')
              with
              | Some p, Some c -> p < c (* "(" before ":" = a parameter *)
              | Some _, None -> true
              | None, _ -> false
            in
            let rhs =
              let r = String.trim (String.sub body (eq + 1)
                                     (String.length body - eq - 1)) in
              if r <> "" then r
              else if idx + 1 < Array.length arr then String.trim arr.(idx + 1)
              else ""
            in
            if (not parameterized)
               && List.exists (fun c -> starts_with c rhs) mutable_creators
            then
              vs :=
                {
                  file;
                  line = idx + 1;
                  rule = "global-mutable-state";
                  message =
                    "module-level mutable state is shared across simulation \
                     worlds and invisible to the sanitizer; move it into a \
                     per-world record (or a Sim.Cell)";
                }
                :: !vs
          | None -> ())
      arr;
    List.rev !vs
  end

(* ------------------------------------------------------------------ *)
(* Rule: no raw access to cell-wrapped shared state                    *)
(* ------------------------------------------------------------------ *)

(* Fields migrated onto [Sim.Cell] must stay behind [Cell.get]/
   [Cell.update]: a raw [Hashtbl.replace t.field ...] or [t.field <-]
   mutates the payload without the access ever reaching the monitor,
   silently blinding the race passes. One entry per instrumented
   field; extend it when migrating more state. *)
let instrumented_fields =
  [
    ("file_agent.ml", [ "inflight"; "prefetched" ]);
    ("buffer_cache.ml", [ "buffers" ]);
    ("lock_manager.ml",
     [ "released"; "record_table"; "page_table"; "file_table" ]);
  ]

let find_raw_shared_cell ~file stripped =
  match List.assoc_opt (Filename.basename file) instrumented_fields with
  | None -> []
  | Some fields ->
    let n = String.length stripped in
    let vs = ref [] in
    List.iter
      (fun fld ->
        let pat = "t." ^ fld in
        let plen = String.length pat in
        let i = ref 0 in
        while !i <= n - plen do
          if
            String.sub stripped !i plen = pat
            && (!i = 0 || not (is_ident_char stripped.[!i - 1]))
            && (!i + plen >= n || not (is_ident_char stripped.[!i + plen]))
          then begin
            (* raw mutation after: "<-" or ":=" *)
            let j = ref (!i + plen) in
            while !j < n && (stripped.[!j] = ' ' || stripped.[!j] = '\n') do
              incr j
            done;
            let mutated_after =
              !j + 1 < n
              && ((stripped.[!j] = '<' && stripped.[!j + 1] = '-')
                 || (stripped.[!j] = ':' && stripped.[!j + 1] = '='))
            in
            (* raw Hashtbl op before: an identifier path ending just
               before the field that starts with "Hashtbl." *)
            let k = ref (!i - 1) in
            while
              !k >= 0 && (stripped.[!k] = ' ' || stripped.[!k] = '\n')
            do
              decr k
            done;
            let e = !k in
            while !k >= 0 && (is_ident_char stripped.[!k] || stripped.[!k] = '.')
            do
              decr k
            done;
            let tok = String.sub stripped (!k + 1) (e - !k) in
            let hashtbl_before =
              String.length tok > 8 && String.sub tok 0 8 = "Hashtbl."
            in
            if mutated_after || hashtbl_before then
              vs :=
                {
                  file;
                  line = line_of stripped !i;
                  rule = "raw-shared-cell";
                  message =
                    Printf.sprintf
                      "raw access to instrumented field %s bypasses the \
                       sanitizer; go through Sim.Cell.get/update (peek for \
                       analysis-only reads)"
                      pat;
                }
                :: !vs;
            i := !i + plen
          end
          else incr i
        done)
      fields;
    List.rev !vs

(* ------------------------------------------------------------------ *)
(* Rule: the event-loop hot path stays allocation-free                 *)
(* ------------------------------------------------------------------ *)

(* The dispatch path earned its flat layout: [Sim.dispatch], [step]
   and [run] must stick to the allocation-free queue accessors
   ([unsafe_min_prio], [pop_into], [is_empty], [length]). The
   option/list-returning API ([pop], [ready], [pop_nth], [drain],
   [ready_count]) allocates or scans per call and
   belongs to the analysis/explorer paths ([controlled_step]), not the
   per-event loop. The rule is a token scan over the top-level
   let-regions of those three functions in sim.ml; a raw source line
   carrying a [static-ok: reason] comment is exempt, for a reviewed
   use that the scan cannot judge. *)
let hot_path_functions = [ "dispatch"; "step"; "run" ]

let hot_path_forbidden =
  [
    "Prio_queue.pop"; "Prio_queue.pop_nth"; "Prio_queue.ready";
    "Prio_queue.ready_count"; "Prio_queue.drain";
  ]

let find_hot_path_alloc ~file ~raw stripped =
  if Filename.basename file <> "sim.ml" then []
  else begin
    let n = String.length stripped in
    let raw_lines = Array.of_list (String.split_on_char '\n' raw) in
    let line_exempt ln =
      ln - 1 >= 0
      && ln - 1 < Array.length raw_lines
      && contains raw_lines.(ln - 1) "static-ok:"
    in
    (* Top-level let-regions: a column-0 [let [rec] <name>]; the region
       runs to the next column-0 [let]. *)
    let is_line_start i = i = 0 || stripped.[i - 1] = '\n' in
    let ident_at i =
      let j = ref i in
      while !j < n && is_ident_char stripped.[!j] do
        incr j
      done;
      (String.sub stripped i (!j - i), !j)
    in
    let region_starts = ref [] in
    let i = ref 0 in
    while !i <= n - 4 do
      (if is_line_start !i && String.sub stripped !i 4 = "let " then begin
         let name, j = ident_at (!i + 4) in
         let name, _ =
           if name = "rec" then
             let k = ref j in
             let () =
               while !k < n && stripped.[!k] = ' ' do
                 incr k
               done
             in
             ident_at !k
           else (name, j)
         in
         region_starts := (!i, name) :: !region_starts
       end);
      incr i
    done;
    let regions = List.rev !region_starts in
    let rec bounds = function
      | [] -> []
      | (start, name) :: rest ->
        let stop = match rest with (s, _) :: _ -> s | [] -> n in
        if List.mem name hot_path_functions then (name, start, stop) :: bounds rest
        else bounds rest
    in
    let vs = ref [] in
    List.iter
      (fun (fname, start, stop) ->
        List.iter
          (fun pat ->
            let plen = String.length pat in
            let i = ref start in
            while !i <= stop - plen do
              if
                String.sub stripped !i plen = pat
                && (!i = 0 || not (is_ident_char stripped.[!i - 1]))
                && (!i + plen >= n || not (is_ident_char stripped.[!i + plen]))
              then begin
                let ln = line_of stripped !i in
                if not (line_exempt ln) then
                  vs :=
                    {
                      file;
                      line = ln;
                      rule = "hot-path-alloc";
                      message =
                        Printf.sprintf
                          "%s in Sim.%s: the event loop must use the \
                           allocation-free queue accessors (unsafe_min_prio, \
                           pop_into, is_empty); annotate the line with \
                           (* static-ok: reason *) if this use is reviewed"
                          pat fname;
                    }
                    :: !vs;
                i := !i + plen
              end
              else incr i
            done)
          hot_path_forbidden)
      (bounds regions);
    List.rev !vs
  end

(* ------------------------------------------------------------------ *)
(* Rule: every bench experiment registers a JSON emitter               *)
(* ------------------------------------------------------------------ *)

(* Experiments feed the committed BENCH_*.json perf record; one that
   never calls [Json_out.register] silently drops out of it, and a
   perf regression there goes unnoticed. *)
let find_unregistered_experiment ~file stripped =
  let base = Filename.basename file in
  if
    String.length base >= 4
    && String.sub base 0 4 = "exp_"
    && not (contains stripped "Json_out.register")
  then
    [
      {
        file;
        line = 1;
        rule = "bench-emitter";
        message =
          "experiment module never calls Json_out.register: its metrics \
           are missing from the BENCH_*.json perf record";
      };
    ]
  else []

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* [Library] is the strict default for lib/. [Bench] covers bench/:
   experiments print their tables directly and are executables (no
   .mli), so those two rules are off; instead every exp_*.ml must
   register with the JSON perf record. *)
type profile = Library | Bench

let lint_source ?(profile = Library) ~file src =
  let stripped = strip_comments_and_strings src in
  find_forbidden ~file stripped
  @ (match profile with
    | Library ->
      find_host_clock ~file stripped
      @ find_direct_prints ~file stripped
      @ find_unseeded_random ~file stripped
      @ find_unsorted_hashtbl_iteration ~file stripped
      @ find_global_mutable_state ~file stripped
      @ find_raw_shared_cell ~file stripped
      @ find_hot_path_alloc ~file ~raw:src stripped
    | Bench -> find_unregistered_experiment ~file stripped)
  @ find_catch_alls ~file stripped
  @ find_unpaired ~file stripped

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec ml_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then
          if entry = "_build" || String.length entry > 0 && entry.[0] = '.'
          then acc
          else acc @ ml_files path
        else if Filename.check_suffix entry ".ml" then acc @ [ path ]
        else acc)
      [] entries
  | exception Sys_error _ -> []

let missing_mli path =
  let mli = path ^ "i" in
  if Sys.file_exists mli then []
  else
    [
      {
        file = path;
        line = 1;
        rule = "missing-mli";
        message = "library module has no .mli interface";
      };
    ]

let lint_dir ?(profile = Library) dir =
  List.concat_map
    (fun path ->
      (match profile with Library -> missing_mli path | Bench -> [])
      @ lint_source ~profile ~file:path (read_file path))
    (ml_files dir)

let pp_violation fmt v =
  Format.fprintf fmt "%s:%d: [%s] %s" v.file v.line v.rule v.message
