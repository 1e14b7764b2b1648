module Sim = Rhodos_sim.Sim
module Fit = Rhodos_file.Fit
module Trace = Rhodos_obs.Trace

type tdesc = int
type desc = int

exception Bad_descriptor of int
exception Bad_transaction of int

type open_state = { file : int; mutable pos : int }

type txn_state = {
  handle : Service_conn.txn_handle;
  descs : (desc, open_state) Hashtbl.t;
  mutable bound_paths : string list;
      (* names bound by tcreate, unbound again if the txn aborts *)
  mutable unbound_paths : (string * int) list;
      (* names removed by tdelete, re-bound if the txn aborts *)
}

type t = {
  sim : Sim.t;
  fs_conn : Service_conn.fs_conn;
  txn_conn : Service_conn.txn_conn;
  on_commit : file:int -> unit;
  txns : (tdesc, txn_state) Hashtbl.t;
  mutable next_tdesc : tdesc;
  mutable next_desc : desc;
  mutable agent_pid : Sim.pid option;
  agent_exit : Sim.Condition.cond;
  mutable spawn_count : int;
  tracer : Trace.t;
}

let create ?(on_commit = fun ~file:_ -> ()) ~sim ~fs_conn ~txn_conn () =
  {
    sim;
    fs_conn;
    txn_conn;
    on_commit;
    txns = Hashtbl.create 8;
    next_tdesc = 1;
    next_desc = 200_001;
    agent_pid = None;
    agent_exit = Sim.Condition.create sim;
    spawn_count = 0;
    tracer = Trace.of_sim sim;
  }

let is_running t =
  match t.agent_pid with Some pid -> Sim.is_alive t.sim pid | None -> false

let spawn_count t = t.spawn_count

let active_transactions t = Hashtbl.length t.txns

(* The agent process itself: exists only while transactions are in
   flight (the paper's configurability goal). It parks on a condition
   and exits once the last transaction completes. *)
let ensure_agent t =
  if not (is_running t) then begin
    t.spawn_count <- t.spawn_count + 1;
    t.agent_pid <-
      Some
        (Sim.spawn ~name:"transaction-agent" t.sim (fun () ->
             while Hashtbl.length t.txns > 0 do
               Sim.Condition.wait t.agent_exit
             done))
  end

let maybe_exit_agent t =
  if Hashtbl.length t.txns = 0 then Sim.Condition.broadcast t.agent_exit

let txn t td =
  match Hashtbl.find_opt t.txns td with
  | Some s -> s
  | None -> raise (Bad_transaction td)

let state t td d =
  match Hashtbl.find_opt (txn t td).descs d with
  | Some s -> s
  | None -> raise (Bad_descriptor d)

let tbegin_impl t =
  let handle = t.txn_conn.Service_conn.tbegin () in
  let td = t.next_tdesc in
  t.next_tdesc <- td + 1;
  Hashtbl.replace t.txns td
    { handle; descs = Hashtbl.create 4; bound_paths = []; unbound_paths = [] };
  (* Register the transaction before starting the agent process, or a
     scheduling point would let it observe an empty table and exit. *)
  ensure_agent t;
  td

let tbegin t =
  Trace.maybe t.tracer ~service:"txn_agent" ~op:"tbegin" (fun () ->
      tbegin_impl t)

let fresh_desc t =
  let d = t.next_desc in
  t.next_desc <- d + 1;
  d

let install t td file =
  let d = fresh_desc t in
  Hashtbl.replace (txn t td).descs d { file; pos = 0 };
  d

let tcreate ?(locking_level = Fit.Page_level) t td ~path =
  let s = txn t td in
  let file = t.txn_conn.Service_conn.tcreate ~locking:locking_level s.handle in
  t.fs_conn.Service_conn.bind ~path ~file_id:file;
  s.bound_paths <- path :: s.bound_paths;
  install t td file

let topen t td ~path =
  let s = txn t td in
  let file = t.fs_conn.Service_conn.resolve [ ("type", "FILE"); ("path", path) ] in
  t.txn_conn.Service_conn.topen s.handle file;
  install t td file

let tclose t td d =
  let s = txn t td in
  let st = state t td d in
  t.txn_conn.Service_conn.tclose s.handle st.file;
  Hashtbl.remove s.descs d

let tdelete t td ~path =
  let s = txn t td in
  let file = t.fs_conn.Service_conn.resolve [ ("type", "FILE"); ("path", path) ] in
  t.txn_conn.Service_conn.tdelete s.handle file;
  t.fs_conn.Service_conn.unbind path;
  s.unbound_paths <- (path, file) :: s.unbound_paths

let tpread t td d ~off ~len =
  Trace.maybe t.tracer ~service:"txn_agent" ~op:"tpread"
    ~attrs:(fun () -> [ ("off", Trace.Int off); ("len", Trace.Int len) ])
    (fun () ->
      let s = txn t td in
      let st = state t td d in
      t.txn_conn.Service_conn.tread s.handle st.file ~off ~len
        ~intent_update:true)

let tread t td d len =
  let st = state t td d in
  let out = tpread t td d ~off:st.pos ~len in
  st.pos <- st.pos + Bytes.length out;
  out

let tpwrite t td d ~off ~data =
  Trace.maybe t.tracer ~service:"txn_agent" ~op:"tpwrite"
    ~attrs:(fun () ->
      [ ("off", Trace.Int off); ("len", Trace.Int (Bytes.length data)) ])
    (fun () ->
      let s = txn t td in
      let st = state t td d in
      t.txn_conn.Service_conn.twrite s.handle st.file ~off ~data)

let twrite t td d data =
  let st = state t td d in
  tpwrite t td d ~off:st.pos ~data;
  st.pos <- st.pos + Bytes.length data

let tget_attribute t td d =
  let s = txn t td in
  let st = state t td d in
  t.txn_conn.Service_conn.tget_attribute s.handle st.file

let tlseek t td d whence =
  let st = state t td d in
  let target =
    match whence with
    | `Set p -> p
    | `Cur delta -> st.pos + delta
    | `End delta -> (tget_attribute t td d).Fit.size + delta
  in
  if target < 0 then invalid_arg "tlseek: negative position";
  st.pos <- target;
  target

let finish t td f =
  let s = txn t td in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.remove t.txns td;
      maybe_exit_agent t)
    (fun () -> f s.handle)

(* An abort (explicit, or discovered when commit raises) must undo the
   naming side effects: unbind the names of aborted creations, re-bind
   the names of aborted deletions. *)
let cleanup_names t s =
  List.iter
    (fun path ->
      try t.fs_conn.Service_conn.unbind path
      with Rhodos_naming.Name_service.Name_not_found _ -> ())
    s.bound_paths;
  List.iter
    (fun (path, file) ->
      try t.fs_conn.Service_conn.bind ~path ~file_id:file
      with Rhodos_naming.Name_service.Already_bound _ -> ())
    s.unbound_paths

let tend_impl t td =
  let s = txn t td in
  (* The files this transaction touched: their blocks may be stale in
     the machine's file-agent cache once the commit lands. *)
  let touched =
    Hashtbl.fold (fun _ st acc -> st.file :: acc) s.descs []
    |> List.sort_uniq compare
  in
  match finish t td t.txn_conn.Service_conn.tend with
  | () -> List.iter (fun file -> t.on_commit ~file) touched
  | exception e ->
    (* The service aborted the transaction (e.g. a lock timeout). *)
    cleanup_names t s;
    raise e

let tend t td =
  Trace.maybe t.tracer ~service:"txn_agent" ~op:"tend" (fun () ->
      tend_impl t td)

let tabort t td =
  let s = txn t td in
  finish t td t.txn_conn.Service_conn.tabort;
  cleanup_names t s
