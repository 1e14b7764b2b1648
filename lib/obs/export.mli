(** Exporters: Chrome [trace_event] JSON, plain-text span trees and
    per-layer latency breakdowns.

    All functions render to strings — library code never prints
    (enforced by the lint's no-direct-print rule); [bin]/[bench]
    callers decide where the output goes. *)

val chrome_json :
  ?counters:(string * (float * float) list) list ->
  Trace.span list ->
  string
(** The spans as a Chrome [trace_event] JSON document ("X" complete
    events on simulated-time microsecond timestamps, one thread lane
    per service), loadable in Perfetto / [chrome://tracing]. Output is
    deterministic for a deterministic span list. [counters] are named
    (sim-ms, value) series — e.g. {!Profiler.counter_series} — emitted
    as "C" counter events so metric time-series plot as tracks. *)

val collapsed_stacks : Trace.span list -> string
(** Flamegraph folded format: one
    [service.op;service.op;... weight] line per span with positive
    simulated self time (integer microseconds), frames taken from the
    parent chain. *)

val span_tree : Trace.span list -> string
(** Indented causal tree, one line per span:
    [service.op  duration  \[attrs\]]. Roots are spans whose parent is
    absent from the list. *)

val latency_breakdown : ?title:string -> Trace.span list -> string
(** Per-service table of span count, total inclusive time and total
    self time (inclusive minus direct children), in order of first
    appearance — the EXPERIMENTS.md per-layer cost summary. *)
