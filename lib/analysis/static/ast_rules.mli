(** The repository's syntactic rules, over the parsed tree. They keep
    library code on simulated time and seeded randomness, so runs stay
    replayable, and enforce a few structural conventions. Rule names
    are the keys of [static-ok] suppressions and baseline entries.

    Both profiles:
    - {b no-wall-clock}: no [Unix] (any identifier, type or module
      path through it, [open Unix] included), [Sys.time] or
      [Random.self_init];
    - {b no-catch-all}: no [try ... with _ ->] whose first handler
      pattern is the wildcard: it swallows [Sim.Killed] and unexpected
      errors ([match ... with _ ->] is fine);
    - {b paired-release}: a file that acquires ([Semaphore.acquire],
      [Mutex.lock], [Lock_manager.acquire]/[try_acquire]) also names a
      matching release ([Semaphore.release], [Mutex.unlock],
      [Lock_manager.release_all] or a [with_lock]).

    [Library] only:
    - {b host-clock-hygiene}: no host clock ([Unix.gettimeofday],
      [Unix.time], [Unix.times], [Sys.time], [Monotonic_clock]) outside
      [profiler.ml], the one sanctioned host-time reader;
    - {b no-direct-print}: no [print_string], [Printf.printf],
      [prerr_endline], ... outside [logging.ml]: output goes through
      [Logging] or an observability exporter;
    - {b no-unseeded-random}: no [Random.int], [Random.bits], ... on the
      unseeded global state; use a seeded [Random.State] (see [Rng]);
    - {b hashtbl-iter-order}: a [Hashtbl.iter]/[fold] whose closure
      conses a list, in a top-level item that never sorts, hands
      hash-bucket order to digests or callers;
    - {b global-mutable-state}: no module-level [ref]/[Hashtbl.create]/
      [Queue.create]/[Buffer.create] binding: it is shared across
      simulation worlds and invisible to the sanitizer;
    - {b raw-shared-cell}: the [Sim.Cell]-instrumented fields (the file
      agent's [inflight]/[prefetched], the cache's [buffers], the lock
      manager's tables and [released] set) are never touched by a raw
      [Hashtbl.* t.field], [t.field <-] or [t.field :=]; and in every
      file, no [Hashtbl] mutator is applied to a [Cell.get] result;
    - {b hot-path-alloc}: in [sim.ml], [dispatch], [step] and [run] use
      only the allocation-free [Prio_queue] accessors (no [pop],
      [pop_nth], [ready], [ready_count], [drain]);
    - {b missing-mli} (directory sweeps only, {!missing_mli}): every
      [.ml] has a matching [.mli].

    [Bench] only:
    - {b bench-emitter}: every [exp_*.ml] calls [Json_out.register], so
      no experiment drops out of the committed BENCH_*.json record. *)

type profile =
  | Library  (** lib/: every rule but bench-emitter *)
  | Bench
      (** bench/: experiments print tables and are executables, so the
          Library-only rules are off; bench-emitter is on *)

val run : ?profile:profile -> Source.file list -> Finding.t list
(** Every syntactic rule of [profile] (default [Library]) over the
    parsed files, except [missing-mli]. *)

val missing_mli : Source.file list -> Finding.t list
(** A [missing-mli] finding per file with no [.mli] beside it on
    disk. *)
