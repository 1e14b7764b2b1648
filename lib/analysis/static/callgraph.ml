open Parsetree

type node = {
  fn : string;
  file : string;
  line : int;
  body : expression option;
  env : Names.env;
  mutable calls : (string * int) list;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  order : string list;  (* node names in definition order *)
  files : Source.file list;
}

let line_of_loc (loc : Location.t) = loc.loc_start.pos_lnum

(* ------------------------------------------------------------------ *)
(* Symbol collection                                                   *)
(* ------------------------------------------------------------------ *)

let rec binding_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> None

let rec collect_aliases acc prefix_done items =
  ignore prefix_done;
  match items with
  | [] -> acc
  | item :: rest ->
    let acc =
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> (name, Names.flatten txt) :: acc
        | _ -> acc)
      | _ -> acc
    in
    collect_aliases acc prefix_done rest

(* Every value binding, at top level or inside a nested
   [module X = struct ... end], becomes a node named by its dotted
   module path. Top-level [let () = ...] initialisation code gets a
   synthetic [_init] node so calls made at module init are not lost. *)
let rec collect_defs ~file ~env ~prefix acc items =
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.fold_left
          (fun acc vb ->
            let line = line_of_loc vb.pvb_loc in
            let name =
              match binding_name vb.pvb_pat with
              | Some n -> prefix ^ "." ^ n
              | None -> Printf.sprintf "%s._init_%d" prefix line
            in
            { fn = name; file; line; body = Some vb.pvb_expr; env; calls = [] }
            :: acc)
          acc vbs
      | Pstr_eval (e, _) ->
        let line = line_of_loc item.pstr_loc in
        {
          fn = Printf.sprintf "%s._init_%d" prefix line;
          file;
          line;
          body = Some e;
          env;
          calls = [];
        }
        :: acc
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
        collect_module ~file ~env ~prefix:(prefix ^ "." ^ name) acc pmb_expr
      | Pstr_recmodule mbs ->
        List.fold_left
          (fun acc mb ->
            match mb.pmb_name.txt with
            | Some name ->
              collect_module ~file ~env ~prefix:(prefix ^ "." ^ name) acc
                mb.pmb_expr
            | None -> acc)
          acc mbs
      | _ -> acc)
    acc items

and collect_module ~file ~env ~prefix acc mexpr =
  match mexpr.pmod_desc with
  | Pmod_structure items -> collect_defs ~file ~env ~prefix acc items
  | Pmod_constraint (m, _) -> collect_module ~file ~env ~prefix acc m
  | _ -> acc

(* ------------------------------------------------------------------ *)
(* Callee classification                                               *)
(* ------------------------------------------------------------------ *)

(* Fields of the Service_conn connection records: a call through one
   of them is a client->server RPC, the canonical remote-blocking
   primitive of the may-block pass. Detection requires the field
   access to be module-qualified ([t.conn.Service_conn.pread]), which
   is how a cross-library record field must be written anyway. *)
let conn_fields =
  [
    "resolve"; "bind"; "unbind"; "mkdir"; "create_file"; "open_file";
    "close_file"; "delete_file"; "pread"; "pread_stream"; "pwrite";
    "get_attributes"; "truncate"; "tbegin"; "tcreate"; "topen"; "tclose";
    "tdelete"; "tread"; "twrite"; "tget_attribute"; "tend"; "tabort";
  ]

let callee_of_expr env ~defined e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Names.resolve_lid env ~defined txt)
  | Pexp_field (_, { txt; _ }) -> (
    match Names.flatten txt with
    | [ _ ] -> None (* unqualified field: not provably a conn field *)
    | path ->
      let c = Names.canonical env path in
      let is_conn =
        List.exists (fun f -> c = "Service_conn." ^ f) conn_fields
      in
      if is_conn then Some c else None)
  | _ -> None

(* Arguments of these run in a fresh process or a deferred callback,
   not on the caller's path: their blocking behaviour must not be
   attributed to the spawning function. [Net.Rpc.serve] belongs here
   because it spawns its handler once per request. *)
let spawn_like =
  [ "Sim.spawn"; "Sim.spawn_at"; "Sim.schedule"; "Sim.schedule_cancellable";
    "Net.Rpc.serve" ]

(* ------------------------------------------------------------------ *)
(* Call extraction                                                     *)
(* ------------------------------------------------------------------ *)

let collect_calls ~env ~defined body =
  let acc = ref [] in
  let add name line =
    if String.contains name '.' || defined name then acc := (name, line) :: !acc
  in
  let iter = ref Ast_iterator.default_iterator in
  let expr it (e : expression) =
    match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      let callee = callee_of_expr env ~defined f in
      (match callee with
      | Some n -> add n (line_of_loc e.pexp_loc)
      | None -> it.Ast_iterator.expr it f);
      match callee with
      | Some n when List.mem n spawn_like ->
        (* Skip the argument subtrees: the closure runs elsewhere. *)
        ()
      | _ -> List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args)
    | Pexp_ident { txt; _ } ->
      (* A bare reference (function passed as a value, e.g. to
         [List.iter] or [Fun.protect ~finally]) counts as a call: the
         typical higher-order wrappers run it on the caller's path. *)
      add (Names.resolve_lid env ~defined txt) (line_of_loc e.pexp_loc)
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  iter := { Ast_iterator.default_iterator with expr };
  !iter.Ast_iterator.expr !iter body;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let build (files : Source.file list) =
  let known_roots = List.map (fun f -> f.Source.module_name) files in
  let all_nodes =
    List.concat_map
      (fun (f : Source.file) ->
        match f.ast with
        | None -> []
        | Some items ->
          let aliases = collect_aliases [] true items in
          let env =
            Names.make_env ~current_module:f.module_name ~aliases ~known_roots
          in
          List.rev
            (collect_defs ~file:f.path ~env ~prefix:f.module_name [] items))
      files
  in
  let nodes = Hashtbl.create 256 in
  let order =
    List.map
      (fun n ->
        let name =
          if Hashtbl.mem nodes n.fn then
            Printf.sprintf "%s#%d" n.fn n.line
          else n.fn
        in
        let n = { n with fn = name } in
        Hashtbl.replace nodes name n;
        name)
      all_nodes
  in
  let defined name = Hashtbl.mem nodes name in
  Hashtbl.iter
    (fun _ n ->
      match n.body with
      | Some body -> n.calls <- collect_calls ~env:n.env ~defined body
      | None -> ())
    nodes;
  { nodes; order; files }

let node t name = Hashtbl.find_opt t.nodes name
let defined t name = Hashtbl.mem t.nodes name
let nodes_in_order t = List.filter_map (node t) t.order

let callee_name t env e =
  callee_of_expr env ~defined:(fun n -> defined t n) e
