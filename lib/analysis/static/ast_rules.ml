open Parsetree

(* The repository's syntactic rules (documented in the .mli) over the
   parsed tree. Being syntax-directed, they never fire inside comments
   or string literals, do not trip over identifiers that merely
   contain a keyword, and see a multi-line [let ... in] as the local
   binding it is. *)

type profile = Library | Bench

let line_of = Callgraph.line_of_loc

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> strip e
  | _ -> e

let ident_path e =
  match (strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Names.flatten txt)
  | _ -> None

let rec ends_with suffix path =
  path = suffix
  || match path with [] -> false | _ :: rest -> ends_with suffix rest

(* The component right after module [m] in [path]. *)
let rec after m = function
  | x :: (y :: _ as rest) -> if x = m then Some y else after m rest
  | _ -> None

let within (outer : Location.t) (inner : Location.t) =
  outer.loc_start.pos_cnum <= inner.loc_start.pos_cnum
  && inner.loc_end.pos_cnum <= outer.loc_end.pos_cnum

let structure items it = List.iter (it.Ast_iterator.structure_item it) items

(* Run [f] on every expression [walk] reaches. *)
let iter_exprs walk f =
  walk
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }

let exists_expr walk pred =
  let found = ref false in
  iter_exprs walk (fun e -> if pred e then found := true);
  !found

(* ------------------------------------------------------------------ *)
(* Identifier occurrences                                              *)
(* ------------------------------------------------------------------ *)

(* Every long identifier in the tree: values, constructors, record
   fields, type and class paths, and module paths ([open], [let open],
   [M.( ... )], [module X = M], [include M]). [modules] are the
   components that name modules: all of a module path, all but the
   last of any other. A leading [Stdlib] is dropped. *)
type occurrence = {
  path : string list;
  modules : string list;
  value : bool;  (** an expression identifier *)
  loc : Location.t;
}

let rec components = function
  | Longident.Lident s -> [ s ]
  | Ldot (p, s) -> components p @ [ s ]
  | Lapply (a, b) -> components a @ components b

let occurrences items =
  let acc = ref [] in
  let add kind { Location.txt; loc } =
    let path =
      match components txt with "Stdlib" :: (_ :: _ as p) -> p | p -> p
    in
    let modules =
      if kind = `Module then path
      else List.filteri (fun i _ -> i < List.length path - 1) path
    in
    acc := { path; modules; value = kind = `Value; loc } :: !acc
  in
  let fields fs = List.iter (fun (l, _) -> add `Other l) fs in
  let open Ast_iterator in
  structure items
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident l -> add `Value l
          | Pexp_construct (l, _)
          | Pexp_field (_, l)
          | Pexp_setfield (_, l, _)
          | Pexp_new l ->
            add `Other l
          | Pexp_record (fs, _) -> fields fs
          | _ -> ());
          default_iterator.expr it e);
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_construct (l, _) | Ppat_type l -> add `Other l
          | Ppat_record (fs, _) -> fields fs
          | Ppat_open (l, _) -> add `Module l
          | _ -> ());
          default_iterator.pat it p);
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr (l, _) | Ptyp_class (l, _) | Ptyp_package (l, _) ->
            add `Other l
          | _ -> ());
          default_iterator.typ it t);
      module_expr =
        (fun it m ->
          (match m.pmod_desc with Pmod_ident l -> add `Module l | _ -> ());
          default_iterator.module_expr it m);
      module_type =
        (fun it m ->
          (match m.pmty_desc with
          | Pmty_ident l -> add `Other l
          | Pmty_alias l -> add `Module l
          | _ -> ());
          default_iterator.module_type it m);
    };
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Rules: each returns its hits, (location, rule, slug, message)       *)
(* ------------------------------------------------------------------ *)

let hit loc rule slug msg = [ (loc, rule, slug, msg) ]

let no_wall_clock o =
  let flag slug why = hit o.loc "no-wall-clock" slug (slug ^ ": " ^ why) in
  if List.mem "Unix" o.modules then
    flag "Unix." "wall-clock/OS access; use Sim time instead"
  else if o.value && ends_with [ "Sys"; "time" ] o.path then
    flag "Sys.time" "wall clock; use Sim.now instead"
  else if o.value && ends_with [ "Random"; "self_init" ] o.path then
    flag "Random.self_init"
      "unseeded randomness breaks replay; use Rng with a seed"
  else []

(* [no-wall-clock] already catches the [Unix]/[Sys.time] forms; this
   rule names the contract and also covers the monotonic clock the
   profiler itself uses. *)
let host_clock_hygiene o =
  let clocks =
    [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Unix"; "times" ];
      [ "Sys"; "time" ] ]
  in
  let clock =
    if List.mem "Monotonic_clock" o.modules then [ "Monotonic_clock." ]
    else if o.value then
      List.map (String.concat ".")
        (List.filter (fun c -> ends_with c o.path) clocks)
    else []
  in
  List.concat_map
    (fun c ->
      hit o.loc "host-clock-hygiene" c
        (c
        ^ ": host clocks are confined to the profiler (lib/obs/profiler.ml); \
           anywhere else host time can leak into simulated state or digests"
        ))
    clock

let no_direct_print o =
  let prints =
    [
      [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ];
      [ "print_char" ]; [ "print_int" ]; [ "print_float" ];
      [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Format"; "printf" ];
      [ "Format"; "eprintf" ]; [ "prerr_string" ]; [ "prerr_endline" ];
      [ "prerr_newline" ];
    ]
  in
  match List.find_opt (fun p -> ends_with p o.path) prints with
  | Some p when o.value ->
    let p = String.concat "." p in
    hit o.loc "no-direct-print" p
      (p
      ^ ": library code must not print directly; go through Logging or an \
         obs exporter")
  | _ -> []

(* [Random.State] (what [Rng] wraps) is the seeded API; [self_init] is
   [no-wall-clock]'s. *)
let no_unseeded_random o =
  match after "Random" o.path with
  | Some callee when callee <> "State" && callee <> "self_init" ->
    hit o.loc "no-unseeded-random" callee
      (Printf.sprintf
         "Random.%s uses the unseeded global state; draw from a seeded \
          Random.State (see Rng) so runs stay replayable"
         callee)
  | _ -> []

(* File-granularity pairing, reported at the first acquire: coarse,
   but catches the classic leak where a new call site takes a lock and
   no code can ever give it back. *)
let paired_release occs =
  let lm_release = [ [ "Lock_manager"; "release_all" ]; [ "with_lock" ] ] in
  let uses p = List.filter (fun o -> o.value && ends_with p o.path) occs in
  List.concat_map
    (fun (acq, rels) ->
      match uses acq with
      | o :: _ when List.for_all (fun r -> uses r = []) rels ->
        let acq = String.concat "." acq in
        hit o.loc "paired-release" acq
          (Printf.sprintf "%s with no %s on any path" acq
             (String.concat " / " (List.map (String.concat ".") rels)))
      | _ -> [])
    [
      ([ "Semaphore"; "acquire" ], [ [ "Semaphore"; "release" ] ]);
      ([ "Mutex"; "lock" ], [ [ "Mutex"; "unlock" ] ]);
      ([ "Lock_manager"; "acquire" ], lm_release);
      ([ "Lock_manager"; "try_acquire" ], lm_release);
    ]

(* The dispatch path must stick to the allocation-free queue accessors
   ([unsafe_min_prio], [pop_into], [is_empty], [length]); the
   option/list-returning API belongs to the explorer paths. *)
let hot_path_alloc items occs =
  let regions =
    List.concat_map
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              match Callgraph.binding_name vb.pvb_pat with
              | Some (("dispatch" | "step" | "run") as fn) ->
                Some (fn, vb.pvb_loc)
              | _ -> None)
            vbs
        | _ -> [])
      items
  in
  List.concat_map
    (fun o ->
      match
        (List.rev o.path, List.find_opt (fun (_, l) -> within l o.loc) regions)
      with
      | (("pop" | "pop_nth" | "ready" | "ready_count" | "drain") as op)
        :: "Prio_queue" :: _,
        Some (fn, _)
        when o.value ->
        let op = "Prio_queue." ^ op in
        hit o.loc "hot-path-alloc" op
          (Printf.sprintf
             "%s in Sim.%s: the event loop must use the allocation-free queue \
              accessors (unsafe_min_prio, pop_into, is_empty); add a \
              static-ok: hot-path-alloc <reason> comment if this use is \
              reviewed"
             op fn)
      | _ -> [])
    occs

(* The tree keeps no location for a [try]'s [with], so a catch-all is
   reported at its [_]. *)
let no_catch_all e =
  match e.pexp_desc with
  | Pexp_try (_, { pc_lhs = { ppat_desc = Ppat_any; ppat_loc; _ }; _ } :: _) ->
    hit ppat_loc "no-catch-all" "_"
      "catch-all `try ... with _ ->` swallows Sim.Killed and unexpected \
       errors; match the expected exceptions"
  | _ -> []

(* Fields migrated onto [Sim.Cell]; extend this when migrating more
   state. *)
let instrumented_fields =
  [
    ("file_agent.ml", [ "inflight"; "prefetched" ]);
    ("buffer_cache.ml", [ "buffers" ]);
    ( "lock_manager.ml",
      [ "released"; "record_table"; "page_table"; "file_table" ] );
  ]

let raw_shared_cell fields e =
  let raw fld what =
    hit e.pexp_loc "raw-shared-cell" fld
      (Printf.sprintf
         "raw %s of instrumented field t.%s bypasses the sanitizer; go \
          through Sim.Cell.get/update (peek for analysis-only reads)"
         what fld)
  in
  let field_of e =
    match (strip e).pexp_desc with
    | Pexp_field (_, { txt; _ }) when List.mem (Names.last txt) fields ->
      Some (Names.last txt)
    | _ -> None
  in
  let is_cell_get e =
    match (strip e).pexp_desc with
    | Pexp_apply (g, _) ->
      Option.fold ~none:false ~some:(ends_with [ "Cell"; "get" ]) (ident_path g)
    | _ -> false
  in
  match e.pexp_desc with
  | Pexp_setfield (_, { txt; _ }, _) when List.mem (Names.last txt) fields ->
    raw (Names.last txt) "mutation"
  | Pexp_apply (g, args) -> (
    let positional =
      List.filter_map
        (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
        args
    in
    match (ident_path g, positional) with
    | Some [ ":=" ], a0 :: _ ->
      Option.fold ~none:[] ~some:(fun fld -> raw fld "mutation") (field_of a0)
    | Some [ "Hashtbl"; op ], a0 :: rest -> (
      let table = if op = "filter_map_inplace" then rest else positional in
      let mutators =
        [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]
      in
      match (field_of a0, table) with
      | Some fld, _ -> raw fld "Hashtbl access"
      | None, tbl :: _ when List.mem op mutators && is_cell_get tbl ->
        hit e.pexp_loc "raw-shared-cell" ("Hashtbl." ^ op)
          (Printf.sprintf
             "Hashtbl.%s mutates the payload Cell.get returned, so the write \
              never reaches the sanitizer; mutate inside Sim.Cell.update"
             op)
      | None, _ -> [])
    | _ -> [])
  | _ -> []

(* A [Hashtbl.iter]/[fold] whose closure conses a list; [check] keeps
   only those in top-level items that never mention a "sort*"
   identifier ([List.sort], [sort_uniq], a local [sorted_keys]; not
   [resort_x]). *)
let unsorted_iteration e =
  let has_cons a =
    exists_expr
      (fun it -> it.Ast_iterator.expr it a)
      (fun e ->
        match e.pexp_desc with
        | Pexp_construct ({ txt; _ }, Some _) -> Names.last txt = "::"
        | _ -> false)
  in
  match e.pexp_desc with
  | Pexp_apply (g, args) -> (
    match ident_path g with
    | Some ([ "Hashtbl"; ("iter" | "fold") ] as p)
      when List.exists (fun (_, a) -> has_cons a) args ->
      let which = String.concat "." p in
      hit e.pexp_loc "hashtbl-iter-order" which
        (which
        ^ " accumulates a list in hash-bucket order with no sort in sight; \
           sort before the result reaches a digest or caller")
    | _ -> [])
  | _ -> []

(* Nested [struct]s count as module level; functor bodies do not. *)
let rec global_mutable_state si =
  let creators =
    [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Queue"; "create" ];
      [ "Buffer"; "create" ] ]
  in
  let creates e =
    match (strip e).pexp_desc with
    | Pexp_apply (g, _) ->
      Option.fold ~none:false
        ~some:(fun p -> List.exists (fun c -> ends_with c p) creators)
        (ident_path g)
    | _ -> false
  in
  let rec module_expr m =
    match m.pmod_desc with
    | Pmod_structure items -> List.concat_map global_mutable_state items
    | Pmod_constraint (m, _) -> module_expr m
    | _ -> []
  in
  match si.pstr_desc with
  | Pstr_value (_, vbs) ->
    List.concat_map
      (fun vb ->
        match Callgraph.binding_name vb.pvb_pat with
        | Some name when creates vb.pvb_expr ->
          hit vb.pvb_loc "global-mutable-state" name
            "module-level mutable state is shared across simulation worlds \
             and invisible to the sanitizer; move it into a per-world record \
             (or a Sim.Cell)"
        | _ -> [])
      vbs
  | Pstr_module mb -> module_expr mb.pmb_expr
  | Pstr_recmodule mbs ->
    List.concat_map (fun mb -> module_expr mb.pmb_expr) mbs
  | _ -> []

let bench_emitter base occs =
  if
    String.starts_with ~prefix:"exp_" base
    && not
         (List.exists
            (fun o -> o.value && ends_with [ "Json_out"; "register" ] o.path)
            occs)
  then
    hit (Location.in_file base) "bench-emitter" base
      "experiment module never calls Json_out.register: its metrics are \
       missing from the BENCH_*.json perf record"
  else []

(* ------------------------------------------------------------------ *)

let check ?(profile = Library) (f : Source.file) items =
  let base = Filename.basename f.Source.path in
  let occs = occurrences items in
  let on_occs rules =
    List.concat_map (fun o -> List.concat_map (fun r -> r o) rules) occs
  in
  let on_exprs rule =
    let acc = ref [] in
    iter_exprs (structure items) (fun e ->
        acc := List.rev_append (rule e) !acc);
    List.rev !acc
  in
  let sorted (loc, _, _, _) =
    List.exists
      (fun si ->
        within si.pstr_loc loc
        && List.exists
             (fun o ->
               o.value
               && within si.pstr_loc o.loc
               && String.starts_with ~prefix:"sort" (List.hd (List.rev o.path)))
             occs)
      items
  in
  let hits =
    on_occs [ no_wall_clock ] @ paired_release occs @ on_exprs no_catch_all
    @
    match profile with
    | Bench -> bench_emitter base occs
    | Library ->
      on_occs
        ((if base = "profiler.ml" then [] else [ host_clock_hygiene ])
        @ (if base = "logging.ml" then [] else [ no_direct_print ])
        @ [ no_unseeded_random ])
      @ List.concat_map global_mutable_state items
      @ on_exprs
          (raw_shared_cell
             (Option.value ~default:[]
                (List.assoc_opt base instrumented_fields)))
      @ List.filter (fun h -> not (sorted h)) (on_exprs unsorted_iteration)
      @ if base = "sim.ml" then hot_path_alloc items occs else []
  in
  List.map
    (fun (loc, rule, slug, msg) ->
      Finding.v ~rule ~file:f.Source.path ~line:(max 1 (line_of loc)) ~slug msg)
    hits

let run ?profile (files : Source.file list) =
  Finding.sort
    (List.concat_map
       (fun (f : Source.file) ->
         Option.fold ~none:[] ~some:(check ?profile f) f.Source.ast)
       files)

let missing_mli files =
  List.filter_map
    (fun (f : Source.file) ->
      if Sys.file_exists (f.Source.path ^ "i") then None
      else
        Some
          (Finding.v ~rule:"missing-mli" ~file:f.Source.path ~line:1
             ~slug:"mli" "library module has no .mli interface"))
    files
