(* sim_churn: the event core alone. [pairs] mailbox ping-pong pairs on
   a bare Sim beside [timers] pending far-future timers. The pairs run
   the P0 churn shape of bench/exp_p0.ml: an op is one round trip,
   ping sends and waits for the echo, then yields (a same-time handoff)
   or, on every 8th trip, sleeps (a timer). The sleeps are seed-drawn
   from 0.001 to 0.011 ms, around the timing wheel's 0.01 ms bucket, so
   many distinct wake times share a bucket. The standing timer
   population keeps the event queue large, so a queue that only wins
   same-time handoffs cannot hide a loss there. *)

open Measure
module Rng = Rhodos_util.Rng

let pairs = 5_000
let trips = 16  (* round trips per pair: two sleeps each *)
let timers = 100_000
let far = 1e9

let sim_churn ~seed ~traced =
  let t0 = host_now () in
  let rng = Rng.create seed in
  let sleep = Array.init (pairs * trips) (fun _ -> 0.001 +. Rng.float rng 0.01) in
  let sim = Sim.create () in
  for _ = 1 to timers do
    Sim.schedule sim ~at:(far +. Rng.float rng far) (fun () ->
        fail "sim_churn: a far-future timer fired")
  done;
  let rec_ = Recorder.create () and finished = ref 0 in
  for i = 0 to pairs - 1 do
    let a = Sim.Mailbox.create sim and b = Sim.Mailbox.create sim in
    ignore
      (Sim.spawn ~name:(Printf.sprintf "ping%d" i) sim (fun () ->
           for r = 1 to trips do
             Recorder.timed rec_ sim (fun () ->
                 Sim.Mailbox.send a r;
                 let v = Sim.Mailbox.recv b in
                 if v <> r then fail "sim_churn: pair %d got reply %d in round %d" i v r;
                 if r mod 8 = 0 then Sim.sleep sim sleep.((i * trips) + r - 1) else Sim.yield sim)
           done;
           incr finished));
    ignore
      (Sim.spawn ~name:(Printf.sprintf "pong%d" i) sim (fun () ->
           for _ = 1 to trips do
             Sim.Mailbox.send b (Sim.Mailbox.recv a)
           done))
  done;
  let setup_s = host_now () -. t0 in
  let prof = if traced then Some (Profiler.create ()) else None in
  Option.iter (fun p -> Profiler.arm p sim) prof;
  let h0 = host_begin sim in
  while !finished < pairs && Sim.step sim do
    ()
  done;
  let host = host_end sim h0 in
  let prof = Option.map (fun p -> Profiler.disarm p sim) prof in
  if !finished <> pairs then fail "sim_churn: %d of %d pairs finished" !finished pairs;
  if Sim.queue_length sim <> timers then
    fail "sim_churn: %d events pending, expected the %d timers" (Sim.queue_length sim) timers;
  round ?prof ~setup_s ~host ~digest:(Sim.run_digest sim) rec_
