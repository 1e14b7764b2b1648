(* What one round of a workload measures, and the arithmetic on it.

   A round is one fresh world: set-up, then a timed phase in which the
   closed-loop clients run their pre-generated operation streams, then
   the correctness checks. The timed phase is the only part whose
   simulated time, host time, allocation and events are counted. *)

module Sim = Rhodos_sim.Sim
module Profiler = Rhodos_obs.Profiler

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* Host time is the CPU time (user + system) of the round's process,
   in seconds: unlike wall time, it does not count the time the process
   waits for a core that a neighbour on a shared host holds. *)
let host_now = Sys.time

(* ------------------------------------------------------------------ *)
(* Per-op accounting shared by every client of a round.                *)

module Recorder = struct
  type t = {
    mutable attempted : int;
    mutable lat : float array;  (* sim ms of successful ops *)
    mutable n : int;
    failures : (string, int) Hashtbl.t;  (* reason -> count *)
    mutable bytes_written : int;  (* user payload bytes of successful writes *)
  }

  let create () =
    {
      attempted = 0;
      lat = Array.make 4096 0.;
      n = 0;
      failures = Hashtbl.create 8;
      bytes_written = 0;
    }

  let success r ms =
    r.attempted <- r.attempted + 1;
    if r.n = Array.length r.lat then begin
      let a = Array.make (2 * r.n) 0. in
      Array.blit r.lat 0 a 0 r.n;
      r.lat <- a
    end;
    r.lat.(r.n) <- ms;
    r.n <- r.n + 1

  let failure r reason =
    r.attempted <- r.attempted + 1;
    Hashtbl.replace r.failures reason
      (1 + Option.value ~default:0 (Hashtbl.find_opt r.failures reason))

  let failed r = Hashtbl.fold (fun _ n acc -> acc + n) r.failures 0

  let failures r =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) r.failures [])

  (* Time [f] on the simulated clock; [f] returning is a success. *)
  let timed r sim f =
    let t0 = Sim.now sim in
    let v = f () in
    success r (Sim.now sim -. t0);
    v
end

(* ------------------------------------------------------------------ *)
(* Order statistics.                                                   *)

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then 0.
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  pct s 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* A round's result.                                                   *)

(* A metric's value and unit, and the base it was computed over
   (printed beside it, e.g. "861/12288 lookups" for a hit ratio). *)
type layer = { value : float; unit_ : string; base : string }

type round = {
  setup_s : float;  (* host CPU seconds *)
  host_s : float;  (* host CPU seconds of the timed phase *)
  wall_s : float;  (* wall seconds of the timed phase *)
  words : float;  (* minor words allocated in the timed phase *)
  events : int;  (* Sim events dispatched in the timed phase *)
  sim_ms : float;  (* simulated length of the timed phase *)
  digest : int;  (* Sim.run_digest after the checks *)
  rec_ : Recorder.t;
  peak_heap_words : int;  (* growth of the major heap of the round's process *)
  layers : (string * layer) list;  (* traced rounds only *)
  prof : Profiler.report option;  (* traced rounds only *)
  failure : string option;  (* the end-state check that failed, if one did *)
}

let ok r = r.rec_.Recorder.n

let host_ops_per_s r = float_of_int (ok r) /. r.host_s

let per_op r x = ratio x (float_of_int r.rec_.Recorder.attempted)

(* Host-side cost of a timed phase, shared by every workload. *)
type host = { h_s : float; h_wall_s : float; h_words : float; h_events : int; h_sim_ms : float }

let host_begin sim =
  (host_now (), Profiler.now_ns (), Gc.minor_words (), Sim.events_dispatched sim, Sim.now sim)

let host_end sim (t0, wall0, w0, e0, s0) =
  let w1 = Gc.minor_words () in
  {
    h_s = host_now () -. t0;
    h_wall_s = float_of_int (Profiler.now_ns () - wall0) /. 1e9;
    h_words = w1 -. w0;
    h_events = Sim.events_dispatched sim - e0;
    h_sim_ms = Sim.now sim -. s0;
  }

let round ?prof ?(layers = []) ?failure ~setup_s ~host ~digest rec_ =
  {
    prof;
    failure;
    setup_s;
    host_s = host.h_s;
    wall_s = host.h_wall_s;
    peak_heap_words = 0;
    words = host.h_words;
    events = host.h_events;
    sim_ms = host.h_sim_ms;
    digest;
    rec_;
    layers;
  }

(* Per-layer metrics every workload reports from its profiler run:
   events and host cost of the event core, and host ns per op for each
   group of profiler buckets (a bucket is a process name's leading
   segment). [untraced] are the probe-free rounds of the profiled
   round's seed: the source of the event counts, allocation and, as
   best-of, host time per event. *)
let profiler_layers =
  [
    ("sim_core", [ "sim-core" ]);  (* the dispatch loop itself *)
    ("client", [ "client" ]);  (* the closed loops, with the agents' inline work *)
    ("agent_fetch", [ "fa" ]);  (* file-agent fetch and read-ahead processes *)
    ("agent_flush", [ "file" ]);  (* file-agent cache flusher *)
    ("server", [ "rhodos" ]);  (* RPC handlers: file, block and disk services *)
    ("callbacks", [ "top" ]);  (* bare timers and message deliveries *)
    ("churn", [ "ping"; "pong" ]);  (* sim_churn's processes *)
  ]

let sim_layers ~(untraced : round list) (rep : Profiler.report) =
  let first = List.hd untraced in
  let per = per_op first and ev = float_of_int first.events in
  let per_event f = ratio (f first) (float_of_int first.events) in
  let best_s = List.fold_left (fun m r -> Float.min m r.host_s) infinity untraced in
  let bucket b =
    if b = "sim-core" then float_of_int rep.Profiler.overhead_ns
    else
      List.fold_left
        (fun acc (a : Profiler.agg) ->
          if a.Profiler.key = b then acc +. float_of_int a.Profiler.host_ns else acc)
        0. rep.Profiler.by_bucket
  in
  [
    ("sim.events_per_op", { value = per ev; unit_ = "events"; base = "ops" });
    ( "sim.host_ns_per_event",
      {
        value = per_event (fun _ -> best_s *. 1e9);
        unit_ = "ns";
        base = "events, host CPU, best untraced round";
      } );
    ( "sim.words_per_event",
      { value = per_event (fun r -> r.words); unit_ = "words"; base = "events, untraced" } );
  ]
  @ List.map
      (fun (layer, buckets) ->
        ( layer ^ ".host_ns_per_op",
          {
            value = per (List.fold_left (fun acc b -> acc +. bucket b) 0. buckets);
            unit_ = "ns";
            base = "ops, profiled";
          } ))
      profiler_layers
