(** Span-based request tracing on simulated time.

    A {!span} is one timed operation in one service. Spans nest via
    parent ids and a whole request shares a trace id, so a single cold
    read renders as one causal tree: client -> file agent -> RPC ->
    file service -> block service -> disk. The ambient trace context
    lives in {!Rhodos_sim.Sim.Local} storage and is inherited across
    [Sim.spawn], so fan-out work (extent I/O jobs, RPC handler
    processes) lands under the right parent automatically; crossing a
    simulated network hop is explicit — capture {!current} into the
    message and re-install it with {!with_restored} on the far side.

    A world has one tracer, {!of_sim}; every component reads it from
    its own [Sim.t] at construction, so none takes a tracer argument.

    Tracing is zero-cost when no subscriber is attached to {!events}
    ({!with_span} runs the body directly), and it cannot perturb the
    determinism digest: it only reads [Sim.now], never schedules
    events, and span/trace ids are deterministic allocation sequence
    numbers, not [Random] or wall-clock values. *)

module Sim = Rhodos_sim.Sim

(** Attribute values attached to spans. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  trace_id : int;  (** shared by every span of one request *)
  id : int;  (** unique within the tracer, allocation-ordered *)
  parent : int option;  (** enclosing span id, [None] for roots *)
  service : string;  (** e.g. ["file_service"], ["disk"] *)
  op : string;  (** e.g. ["pread"], ["get_block"] *)
  start_ms : float;
  mutable end_ms : float;  (** NaN until the span finishes *)
  mutable attrs : (string * value) list;
}

type event = Start of span | Finish of span
(** [Start] is published with [end_ms] still NaN; [Finish] re-publishes
    the same (mutated) record once the operation completes. *)

type context
(** The wire-friendly part of a span scope: trace id + span id. Carry
    it across simulated network hops. *)

type t
(** A tracer bound to one simulation world. *)

val of_sim : Sim.t -> t
(** The world's tracer, created on first use. Every call on the same
    world returns the same tracer. *)

val sim : t -> Sim.t

val events : t -> event Event_bus.t
(** Subscribe here (e.g. via {!collect}) to receive span events. *)

val enabled : t -> bool
(** [true] iff at least one subscriber is attached. *)

val current : t -> context option
(** Context of the innermost span enclosing the calling process, if
    any; [None] when the tracer is not {!enabled}. Use to stamp
    outgoing messages. *)

val context_ids : context -> int * int
(** [(trace id, span id)] — lets the sanitizer stamp each recorded
    access with the span it happened under, so a race report can be
    cross-referenced against the trace timeline. *)

val with_span :
  ?parent:context ->
  ?attrs:(string * value) list ->
  t ->
  service:string ->
  op:string ->
  (unit -> 'a) ->
  'a
(** [with_span t ~service ~op f] runs [f] inside a new span. The span's
    parent is [?parent] if given, else the ambient context. While [f]
    runs, the new span is the ambient context (restored afterwards,
    also on exception). When {!enabled} is false this is exactly
    [f ()]. *)

val maybe :
  t ->
  service:string ->
  op:string ->
  ?attrs:(unit -> (string * value) list) ->
  (unit -> 'a) ->
  'a
(** Convenience for instrumented services: [with_span] when the tracer
    is enabled, else just the body. [attrs] is a thunk so attribute
    lists cost nothing when tracing is off. *)

val with_restored : t -> context option -> (unit -> 'a) -> 'a
(** Re-install a context captured on the other side of a hop for the
    duration of the callback (the RPC-server half of propagation).
    Plain [f ()] when the context is absent or the tracer disabled. *)

(** {2 Collector}

    A ready-made subscriber that accumulates finished spans. *)

type collector

val collect : t -> collector
(** Attach a collector; it records every span that finishes while
    attached. *)

val stop : t -> collector -> unit
(** Detach. Idempotent. *)

val spans : collector -> span list
(** Finished spans recorded so far, sorted by span id (allocation
    order). *)
