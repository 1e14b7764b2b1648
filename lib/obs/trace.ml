(* Span tracer on simulated time.

   A span records one timed operation in one service; spans form trees
   via parent ids, and a whole request (client call -> agent -> RPC ->
   service -> block service -> disk) shares a trace id. The ambient
   context rides in process-local storage, so it follows the request
   through nested calls and through [Sim.spawn]ed helpers (extent I/O
   jobs, RPC handler processes) without threading an argument through
   every signature.

   Determinism: span and trace ids are allocation sequence numbers of
   the tracer — the allocation order is fixed by the deterministic
   event order, so two identically configured runs produce identical
   ids. Tracing only reads [Sim.now]; it never schedules events or
   blocks, so an attached subscriber cannot perturb the run digest.

   One tracer per world ([of_sim]); services keep it in their records,
   so the untraced path makes no lookup per call.

   Zero-cost when disabled: [with_span]/[maybe] first check
   [Event_bus.has_subscribers] and run the body directly when nobody is
   listening — no span allocation, no context write. *)

module Sim = Rhodos_sim.Sim

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  trace_id : int;
  id : int;
  parent : int option;
  service : string;
  op : string;
  start_ms : float;
  mutable end_ms : float;
  mutable attrs : (string * value) list;
}

type event = Start of span | Finish of span

type context = { ctx_trace : int; ctx_span : int }

type t = {
  sim : Sim.t;
  bus : event Event_bus.t;
  key : context Sim.Local.key; (* the ambient context *)
  mutable next_trace : int;
  mutable next_span : int;
}

let world_key : t Sim.Local.key = Sim.Local.key ()

let create sim =
  { sim; bus = Event_bus.create (); key = Sim.Local.key ();
    next_trace = 1; next_span = 1 }

let of_sim sim = Sim.Local.world sim world_key create

let sim t = t.sim
let events t = t.bus
let enabled t = Event_bus.has_subscribers t.bus

let current t =
  if enabled t then Sim.Local.get t.sim t.key else None

let context_ids c = (c.ctx_trace, c.ctx_span)

let start ?parent t ~service ~op ~attrs () =
  let parent_ctx = match parent with Some _ -> parent | None -> current t in
  let trace_id, parent_id =
    match parent_ctx with
    | Some c -> (c.ctx_trace, Some c.ctx_span)
    | None ->
      let id = t.next_trace in
      t.next_trace <- id + 1;
      (id, None)
  in
  let id = t.next_span in
  t.next_span <- id + 1;
  let sp =
    { trace_id; id; parent = parent_id; service; op;
      start_ms = Sim.now t.sim; end_ms = Float.nan; attrs }
  in
  Event_bus.publish t.bus (Start sp);
  sp

let finish t sp =
  sp.end_ms <- Sim.now t.sim;
  Event_bus.publish t.bus (Finish sp)

let with_span ?parent ?(attrs = []) t ~service ~op f =
  if not (enabled t) then f ()
  else begin
    let sp = start ?parent t ~service ~op ~attrs () in
    let saved = Sim.Local.get t.sim t.key in
    Sim.Local.set t.sim t.key
      (Some { ctx_trace = sp.trace_id; ctx_span = sp.id });
    Fun.protect
      ~finally:(fun () ->
        Sim.Local.set t.sim t.key saved;
        finish t sp)
      f
  end

let maybe t ~service ~op ?attrs f =
  if not (enabled t) then f ()
  else
    let attrs = match attrs with None -> [] | Some g -> g () in
    with_span ~attrs t ~service ~op f

let with_restored t ctx f =
  match ctx with
  | Some ctx when enabled t ->
    let saved = Sim.Local.get t.sim t.key in
    Sim.Local.set t.sim t.key (Some ctx);
    Fun.protect
      ~finally:(fun () -> Sim.Local.set t.sim t.key saved)
      f
  | _ -> f ()

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

type collector = {
  finished : span list ref; (* newest-first *)
  token : Event_bus.token;
}

let collect t =
  let finished = ref [] in
  let token =
    Event_bus.subscribe t.bus (function
      | Finish sp -> finished := sp :: !finished
      | Start _ -> ())
  in
  { finished; token }

(* Idempotent: unsubscribing a removed token is a no-op. *)
let stop t c = Event_bus.unsubscribe t.bus c.token

let spans c =
  List.sort (fun a b -> compare a.id b.id) (List.rev !(c.finished))
