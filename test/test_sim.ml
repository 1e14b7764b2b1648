module Sim = Rhodos_sim.Sim
open Support

let fl = Alcotest.float 1e-9

let test_clock_starts_at_zero () =
  let t = Sim.create () in
  check fl "t=0" 0. (Sim.now t);
  Sim.run t;
  check fl "still 0 with no events" 0. (Sim.now t)

let test_sleep_advances_clock () =
  let t = Sim.create () in
  let woke = ref (-1.) in
  let _ = Sim.spawn t (fun () -> Sim.sleep t 12.5; woke := Sim.now t) in
  Sim.run t;
  check fl "woke at 12.5" 12.5 !woke;
  check fl "clock at 12.5" 12.5 (Sim.now t)

let test_spawn_at () =
  let t = Sim.create () in
  let started = ref (-1.) in
  let _ = Sim.spawn_at t ~at:100. (fun () -> started := Sim.now t) in
  Sim.run t;
  check fl "started at 100" 100. !started

let test_deterministic_ordering () =
  (* Two processes scheduled at the same instant run in spawn order. *)
  let t = Sim.create () in
  let log = ref [] in
  let _ = Sim.spawn t (fun () -> log := "a" :: !log) in
  let _ = Sim.spawn t (fun () -> log := "b" :: !log) in
  Sim.run t;
  check (Alcotest.list Alcotest.string) "spawn order" [ "a"; "b" ] (List.rev !log)

let test_run_until () =
  let t = Sim.create () in
  let fired = ref 0 in
  Sim.schedule t ~at:5. (fun () -> incr fired);
  Sim.schedule t ~at:15. (fun () -> incr fired);
  Sim.run ~until:10. t;
  check int "only first fired" 1 !fired;
  check fl "clock clamped to until" 10. (Sim.now t);
  Sim.run t;
  check int "second fires later" 2 !fired

let test_exception_propagates () =
  let t = Sim.create () in
  let _ = Sim.spawn t (fun () -> failwith "boom") in
  Alcotest.check_raises "process failure re-raised" (Failure "boom") (fun () ->
      Sim.run t)

let test_mailbox_delivery_order () =
  let t = Sim.create () in
  let mb = Sim.Mailbox.create t in
  let got = ref [] in
  let _ = Sim.spawn t (fun () ->
      for _ = 1 to 3 do
        got := Sim.Mailbox.recv mb :: !got
      done) in
  let _ = Sim.spawn t (fun () ->
      Sim.Mailbox.send mb 1;
      Sim.sleep t 1.;
      Sim.Mailbox.send mb 2;
      Sim.Mailbox.send mb 3) in
  Sim.run t;
  check (Alcotest.list int) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_queues_when_no_receiver () =
  let t = Sim.create () in
  let mb = Sim.Mailbox.create t in
  Sim.Mailbox.send mb 7;
  check int "queued" 1 (Sim.Mailbox.length mb);
  check (Alcotest.option int) "try_recv" (Some 7) (Sim.Mailbox.try_recv mb);
  check (Alcotest.option int) "empty now" None (Sim.Mailbox.try_recv mb)

let test_mailbox_timeout () =
  let t = Sim.create () in
  let mb = Sim.Mailbox.create t in
  let result = ref (Some 0) in
  let when_done = ref 0. in
  let _ = Sim.spawn t (fun () ->
      result := Sim.Mailbox.recv_timeout mb 8.;
      when_done := Sim.now t) in
  Sim.run t;
  check (Alcotest.option int) "timed out" None !result;
  check fl "at timeout instant" 8. !when_done

let test_mailbox_timeout_beaten_by_message () =
  let t = Sim.create () in
  let mb = Sim.Mailbox.create t in
  let result = ref None in
  let _ = Sim.spawn t (fun () -> result := Sim.Mailbox.recv_timeout mb 10.) in
  let _ = Sim.spawn t (fun () -> Sim.sleep t 2.; Sim.Mailbox.send mb 99) in
  Sim.run t;
  check (Alcotest.option int) "message wins" (Some 99) !result;
  check fl "clock not dragged to timeout" 2. (Sim.now t)

let test_semaphore_mutual_exclusion () =
  let t = Sim.create () in
  let sem = Sim.Semaphore.create t 1 in
  let inside = ref 0 and max_inside = ref 0 in
  let worker () =
    Sim.Semaphore.acquire sem;
    incr inside;
    if !inside > !max_inside then max_inside := !inside;
    Sim.sleep t 3.;
    decr inside;
    Sim.Semaphore.release sem
  in
  for _ = 1 to 5 do
    ignore (Sim.spawn t worker)
  done;
  Sim.run t;
  check int "never two inside" 1 !max_inside;
  check fl "serialized: 5 * 3ms" 15. (Sim.now t)

let test_semaphore_try_acquire () =
  let t = Sim.create () in
  let sem = Sim.Semaphore.create t 1 in
  check bool "first succeeds" true (Sim.Semaphore.try_acquire sem);
  check bool "second fails" false (Sim.Semaphore.try_acquire sem);
  Sim.Semaphore.release sem;
  check int "available again" 1 (Sim.Semaphore.available sem)

let test_condition_signal () =
  let t = Sim.create () in
  let c = Sim.Condition.create t in
  let woken = ref [] in
  for i = 1 to 3 do
    ignore (Sim.spawn t (fun () ->
        Sim.Condition.wait c;
        woken := i :: !woken))
  done;
  let _ = Sim.spawn t (fun () ->
      Sim.sleep t 1.;
      Sim.Condition.signal c;
      Sim.sleep t 1.;
      Sim.Condition.broadcast c) in
  Sim.run t;
  check int "all woken" 3 (List.length !woken);
  check int "first signalled is first waiter" 1 (List.nth (List.rev !woken) 0)

let test_condition_wait_timeout () =
  let t = Sim.create () in
  let c = Sim.Condition.create t in
  let r1 = ref true and r2 = ref false in
  let _ = Sim.spawn t (fun () -> r1 := Sim.Condition.wait_timeout c 5.) in
  let _ = Sim.spawn t (fun () ->
      Sim.sleep t 10.;
      (* waiter 1 timed out already; this wakes nobody waiting *)
      ignore (Sim.spawn t (fun () -> r2 := Sim.Condition.wait_timeout c 5.));
      Sim.sleep t 1.;
      Sim.Condition.signal c) in
  Sim.run t;
  check bool "first timed out" false !r1;
  check bool "second signalled" true !r2

let test_ivar_fill_before_read () =
  let t = Sim.create () in
  let iv = Sim.Ivar.create t in
  check bool "empty at first" false (Sim.Ivar.is_filled iv);
  let got = ref 0 in
  let _ = Sim.spawn t (fun () ->
      Sim.Ivar.fill iv 42;
      got := Sim.Ivar.read iv) in
  Sim.run t;
  check int "read after fill returns immediately" 42 !got;
  check (Alcotest.option int) "peek" (Some 42) (Sim.Ivar.peek iv)

let test_ivar_wakes_all_readers () =
  let t = Sim.create () in
  let iv = Sim.Ivar.create t in
  let got = ref [] in
  for i = 1 to 3 do
    ignore (Sim.spawn t (fun () ->
        let v = Sim.Ivar.read iv in
        got := (i, v) :: !got))
  done;
  let _ = Sim.spawn t (fun () ->
      Sim.sleep t 5.;
      Sim.Ivar.fill iv 7) in
  Sim.run t;
  check int "all readers woken" 3 (List.length !got);
  check (Alcotest.list (Alcotest.pair int int)) "in wait order, same value"
    [ (1, 7); (2, 7); (3, 7) ] (List.rev !got)

let test_ivar_single_assignment () =
  let t = Sim.create () in
  let iv = Sim.Ivar.create t in
  let _ = Sim.spawn t (fun () ->
      Sim.Ivar.fill iv 1;
      match Sim.Ivar.fill iv 2 with
      | () -> Alcotest.fail "second fill must be rejected"
      | exception Invalid_argument _ -> ()) in
  Sim.run t;
  check (Alcotest.option int) "first value sticks" (Some 1) (Sim.Ivar.peek iv)

let test_kill_blocked_process () =
  let t = Sim.create () in
  let killed_at = ref (-1.) in
  let victim = Sim.spawn t (fun () ->
      try Sim.sleep t 1000. with Sim.Killed as e ->
        killed_at := Sim.now t;
        raise e) in
  let _ = Sim.spawn t (fun () -> Sim.sleep t 3.; Sim.kill t victim) in
  Sim.run t;
  check fl "killed at 3" 3. !killed_at;
  check bool "dead" false (Sim.is_alive t victim);
  check fl "stale timer skipped" 3. (Sim.now t)

let test_kill_while_ready () =
  (* Killing a process that has been woken but not yet resumed: it
     still runs up to its next blocking point (it already owns the
     wakeup value), and dies there. *)
  let t = Sim.create () in
  let mb = Sim.Mailbox.create t in
  let got = ref 0 and died = ref false and after_sleep = ref false in
  let victim = Sim.spawn t (fun () ->
      (try
         got := Sim.Mailbox.recv mb;
         Sim.sleep t 5. (* the next blocking point *);
         after_sleep := true
       with Sim.Killed as e ->
         died := true;
         raise e)) in
  let _ = Sim.spawn t (fun () ->
      Sim.sleep t 1.;
      Sim.Mailbox.send mb 42 (* victim becomes ready... *);
      Sim.kill t victim (* ...and is killed before it resumes *)) in
  Sim.run t;
  check int "delivered value was consumed" 42 !got;
  check bool "killed at the next block" true !died;
  check bool "never passed the sleep" false !after_sleep

let test_kill_before_first_run () =
  let t = Sim.create () in
  let ran = ref false in
  let victim = Sim.spawn_at t ~at:10. (fun () -> ran := true) in
  let _ = Sim.spawn t (fun () -> Sim.kill t victim) in
  Sim.run t;
  check bool "never started" false !ran;
  check bool "dead" false (Sim.is_alive t victim)

let test_kill_is_idempotent () =
  let t = Sim.create () in
  let victim = Sim.spawn t (fun () -> Sim.sleep t 100.) in
  let _ = Sim.spawn t (fun () ->
      Sim.sleep t 1.;
      Sim.kill t victim;
      Sim.kill t victim) in
  Sim.run t;
  check bool "dead" false (Sim.is_alive t victim)

let test_yield_interleaving () =
  let t = Sim.create () in
  let log = ref [] in
  let _ = Sim.spawn t (fun () ->
      log := "a1" :: !log;
      Sim.yield t;
      log := "a2" :: !log) in
  let _ = Sim.spawn t (fun () -> log := "b" :: !log) in
  Sim.run t;
  check (Alcotest.list Alcotest.string) "yield lets b run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_suspend_custom_primitive () =
  (* Build a one-shot future out of [suspend]. *)
  let t = Sim.create () in
  let cell = ref None in
  let value = ref 0 in
  let _ = Sim.spawn t (fun () ->
      value := Sim.suspend t (fun waker -> cell := Some waker)) in
  let _ = Sim.spawn t (fun () ->
      Sim.sleep t 2.;
      match !cell with
      | Some waker ->
        check bool "first wake accepted" true (waker 17);
        check bool "second wake rejected" false (waker 18)
      | None -> Alcotest.fail "waker not registered") in
  Sim.run t;
  check int "value delivered" 17 !value

let test_many_processes () =
  let t = Sim.create () in
  let n = 2000 in
  let done_count = ref 0 in
  for i = 1 to n do
    ignore (Sim.spawn t (fun () ->
        Sim.sleep t (float_of_int (i mod 17));
        incr done_count))
  done;
  Sim.run t;
  check int "all completed" n !done_count

(* Bit-for-bit determinism: the same seeded scenario produces the same
   event trace on every run — the property all experiment
   reproducibility rests on. *)
let determinism_prop =
  QCheck.Test.make ~name:"identical seeds give identical traces" ~count:20
    QCheck.small_int
    (fun seed ->
      let trace () =
        let t = Sim.create () in
        let rng = Rhodos_util.Rng.create seed in
        let log = ref [] in
        let mb = Sim.Mailbox.create t in
        for i = 1 to 8 do
          ignore
            (Sim.spawn t (fun () ->
                 for _ = 1 to 5 do
                   Sim.sleep t (Rhodos_util.Rng.float rng 10.);
                   Sim.Mailbox.send mb i;
                   match Sim.Mailbox.recv_timeout mb 1. with
                   | Some v -> log := (Sim.now t, v) :: !log
                   | None -> log := (Sim.now t, -1) :: !log
                 done))
        done;
        Sim.run t;
        (!log, Sim.now t)
      in
      trace () = trace ())

(* ------------------------------------------------------------------ *)
(* Profiler probe hooks                                                *)
(* ------------------------------------------------------------------ *)

(* A deterministic fake host clock (an incrementing counter): the
   probe contract only needs monotonicity, so the hooks can be tested
   without reading real host time. *)
let fake_probe () =
  let clock = ref 0 in
  let dispatches = ref [] and wakes = ref [] in
  let probe =
    {
      Sim.pr_clock =
        (fun () ->
          incr clock;
          !clock);
      pr_dispatch =
        (fun ~proc ~name ~at:_ ~queue_len ~queued_host_ns ~start_ns ~end_ns ->
          dispatches :=
            (proc, name, queue_len, queued_host_ns, start_ns, end_ns)
            :: !dispatches);
      pr_wake = (fun ~target:_ ~name -> wakes := name :: !wakes);
    }
  in
  (probe, dispatches, wakes)

let probe_workload sim =
  let mb = Sim.Mailbox.create sim in
  let _ =
    Sim.spawn ~name:"ping" sim (fun () ->
        Sim.sleep sim 1.;
        Sim.Mailbox.send mb 1;
        Sim.sleep sim 2.;
        Sim.Mailbox.send mb 2)
  in
  let _ =
    Sim.spawn ~name:"pong" sim (fun () ->
        ignore (Sim.Mailbox.recv mb);
        Sim.yield sim;
        ignore (Sim.Mailbox.recv mb))
  in
  Sim.run sim

let test_probe_dispatch_accounting () =
  let sim = Sim.create () in
  let probe, dispatches, wakes = fake_probe () in
  Sim.set_probe sim (Some probe);
  probe_workload sim;
  let ds = List.rev !dispatches in
  check int "every dispatch observed" (Sim.events_dispatched sim)
    (List.length ds);
  List.iter
    (fun (_, _, queue_len, queued_host_ns, start_ns, end_ns) ->
      check bool "thunk bracketed by clock reads" true (end_ns > start_ns);
      check bool "queue length non-negative" true (queue_len >= 0);
      (* the probe was armed before anything was scheduled, so every
         event carries an enqueue stamp, and it precedes the dispatch *)
      check bool "enqueue stamped" true (queued_host_ns > 0);
      check bool "enqueue precedes dispatch" true (queued_host_ns < start_ns))
    ds;
  check bool "named processes attributed" true
    (List.exists (fun (_, name, _, _, _, _) -> name = "ping") ds);
  check bool "mailbox send woke the receiver" true
    (List.mem "pong" !wakes)

let test_probe_queue_length () =
  let sim = Sim.create () in
  check int "empty queue" 0 (Sim.queue_length sim);
  Sim.schedule sim ~at:5. (fun () -> ());
  Sim.schedule sim ~at:6. (fun () -> ());
  check int "two pending events" 2 (Sim.queue_length sim);
  Sim.run sim;
  check int "drained" 0 (Sim.queue_length sim)

(* The core neutrality claim: an armed probe changes neither the
   digest nor the event count of a run. *)
let test_probe_digest_parity () =
  let run ~probed =
    let sim = Sim.create () in
    if probed then begin
      let probe, _, _ = fake_probe () in
      Sim.set_probe sim (Some probe)
    end;
    probe_workload sim;
    (Sim.run_digest sim, Sim.events_dispatched sim)
  in
  let d_off, n_off = run ~probed:false in
  let d_on, n_on = run ~probed:true in
  check int "same event count" n_off n_on;
  check bool "same digest" true (d_off = d_on)

(* --- event-queue golden digests ------------------------------------ *)

(* A churn-shaped workload: mailbox ping-pong with yields and timers,
   producing large same-time ready bursts — the shape the event
   queue's same-time ring serves. *)
let churn_workload sim =
  for _ = 1 to 50 do
    let a = Sim.Mailbox.create sim and b = Sim.Mailbox.create sim in
    ignore
      (Sim.spawn ~name:"ping" sim (fun () ->
           for r = 1 to 6 do
             Sim.Mailbox.send a r;
             ignore (Sim.Mailbox.recv b);
             if r mod 2 = 0 then Sim.sleep sim 0.01 else Sim.yield sim
           done));
    ignore
      (Sim.spawn ~name:"pong" sim (fun () ->
           for _ = 1 to 6 do
             Sim.Mailbox.send b (Sim.Mailbox.recv a)
           done))
  done;
  Sim.run sim

(* The event queue's internal layout must not change the dispatch
   order: these (run digest, events dispatched) pairs were recorded
   with the heap-only queue, whose order they pin, under each tie
   policy and in controlled mode. A same-time ring that reordered a
   single event would fork the digest. *)
let test_golden_digests () =
  let digest_of create workload =
    let sim = create () in
    workload sim;
    (Sim.run_digest sim, Sim.events_dispatched sim)
  in
  List.iter
    (fun (name, create, workload, golden) ->
      check (Alcotest.pair int int) name golden (digest_of create workload))
    [ ("probe workload", (fun () -> Sim.create ()), probe_workload,
        (1060510104, 10));
      ("churn", (fun () -> Sim.create ()), churn_workload, (575646155, 1250));
      ( "churn, Lifo ties",
        (fun () -> Sim.create ~tie_break:Rhodos_util.Prio_queue.Lifo ()),
        churn_workload,
        (53345891, 1300) );
      ( "churn, controlled FIFO",
        (fun () -> Sim.create ~scheduler:Rhodos_sim.Schedule.fifo ()),
        churn_workload,
        (575646155, 1250) );
      ( "churn, controlled LIFO",
        (fun () -> Sim.create ~scheduler:Rhodos_sim.Schedule.lifo ()),
        churn_workload,
        (53345891, 1300) ) ]

(* The digest fold is a hand-unrolled [Hashtbl.hash] of the
   (digest, id, bits-of-time) triple (see Sim.digest_step) — pin the
   equivalence so a runtime that changed its hash fails here instead
   of silently forking every recorded digest. *)
let digest_step_matches_hashtbl_hash =
  QCheck.Test.make
    ~name:"digest_step equals Hashtbl.hash on the dispatch triple"
    ~count:1000
    QCheck.(triple (int_bound 0x3FFFFFFE) (int_bound 0x3FFFFFFF) (float_range 0. 1e12))
    (fun (digest, id, time) ->
      Sim.digest_step digest id time
      = Hashtbl.hash (digest, id, Int64.bits_of_float time))

let () =
  Alcotest.run "rhodos_sim"
    [
      ( "clock",
        [
          Alcotest.test_case "starts at zero" `Quick test_clock_starts_at_zero;
          Alcotest.test_case "sleep advances" `Quick test_sleep_advances_clock;
          Alcotest.test_case "spawn_at" `Quick test_spawn_at;
          Alcotest.test_case "deterministic order" `Quick test_deterministic_ordering;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "delivery order" `Quick test_mailbox_delivery_order;
          Alcotest.test_case "queues" `Quick test_mailbox_queues_when_no_receiver;
          Alcotest.test_case "timeout" `Quick test_mailbox_timeout;
          Alcotest.test_case "message beats timeout" `Quick
            test_mailbox_timeout_beaten_by_message;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_semaphore_mutual_exclusion;
          Alcotest.test_case "try_acquire" `Quick test_semaphore_try_acquire;
        ] );
      ( "condition",
        [
          Alcotest.test_case "signal/broadcast" `Quick test_condition_signal;
          Alcotest.test_case "wait timeout" `Quick test_condition_wait_timeout;
          Alcotest.test_case "ivar fill then read" `Quick test_ivar_fill_before_read;
          Alcotest.test_case "ivar wakes all readers" `Quick
            test_ivar_wakes_all_readers;
          Alcotest.test_case "ivar single assignment" `Quick
            test_ivar_single_assignment;
        ] );
      ( "processes",
        [
          Alcotest.test_case "kill blocked" `Quick test_kill_blocked_process;
          Alcotest.test_case "kill while ready" `Quick test_kill_while_ready;
          Alcotest.test_case "kill before first run" `Quick test_kill_before_first_run;
          Alcotest.test_case "kill idempotent" `Quick test_kill_is_idempotent;
          Alcotest.test_case "yield" `Quick test_yield_interleaving;
          Alcotest.test_case "suspend primitive" `Quick test_suspend_custom_primitive;
          Alcotest.test_case "many processes" `Quick test_many_processes;
          QCheck_alcotest.to_alcotest determinism_prop;
        ] );
      ( "probe",
        [
          Alcotest.test_case "dispatch accounting" `Quick
            test_probe_dispatch_accounting;
          Alcotest.test_case "queue length" `Quick test_probe_queue_length;
          Alcotest.test_case "digest parity armed vs off" `Quick
            test_probe_digest_parity;
        ] );
      ( "event queue",
        [
          Alcotest.test_case "golden digests" `Quick test_golden_digests;
          QCheck_alcotest.to_alcotest digest_step_matches_hashtbl_hash;
        ] );
    ]
