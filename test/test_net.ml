module Sim = Rhodos_sim.Sim
module Net = Rhodos_net.Net
open Support

let run_net ?seed ?latency_ms ?bandwidth_bytes_per_ms f =
  let sim = Sim.create () in
  let net = Net.create ?seed ?latency_ms ?bandwidth_bytes_per_ms sim in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim net)) in
  Sim.run sim;
  !result

let test_send_recv () =
  let r =
    run_net (fun sim net ->
        let a = Net.add_node net "a" and b = Net.add_node net "b" in
        let ep = Net.endpoint net b in
        let got = ref None in
        let _ = Net.spawn_on net b (fun () -> got := Some (Net.recv ep)) in
        Sim.sleep sim 0.1;
        Net.send net ~from:a ep "hello";
        Sim.sleep sim 10.;
        !got)
  in
  check (Alcotest.option (Alcotest.option Alcotest.string)) "delivered"
    (Some (Some "hello")) r

let test_latency_applied () =
  let r =
    run_net ~latency_ms:5. ~bandwidth_bytes_per_ms:1000. (fun sim net ->
        let a = Net.add_node net "a" and b = Net.add_node net "b" in
        let ep = Net.endpoint net b in
        let arrived = ref (-1.) in
        let _ = Net.spawn_on net b (fun () ->
            ignore (Net.recv ep);
            arrived := Sim.now sim) in
        Net.send ~size_bytes:5000 net ~from:a ep ();
        Sim.sleep sim 100.;
        !arrived)
  in
  (* 5 ms latency + 5000/1000 = 5 ms transfer *)
  check (Alcotest.option (Alcotest.float 1e-6)) "latency+transfer" (Some 10.) r

let test_local_send_is_free () =
  let r =
    run_net ~latency_ms:5. (fun sim net ->
        let a = Net.add_node net "a" in
        let ep = Net.endpoint net a in
        Net.send net ~from:a ep 42;
        let t0 = Sim.now sim in
        let v = Net.recv ep in
        (v, Sim.now sim -. t0))
  in
  check (Alcotest.option (Alcotest.pair int (Alcotest.float 1e-9))) "immediate"
    (Some (42, 0.)) r

let test_partition_drops () =
  let r =
    run_net (fun sim net ->
        let a = Net.add_node net "a" and b = Net.add_node net "b" in
        let ep = Net.endpoint net b in
        Net.set_partitioned b true;
        Net.send net ~from:a ep ();
        Sim.sleep sim 50.;
        let got_while_partitioned = Net.recv_timeout ep 1. in
        Net.set_partitioned b false;
        Net.send net ~from:a ep ();
        let got_after_heal = Net.recv_timeout ep 50. in
        (got_while_partitioned = None, got_after_heal <> None))
  in
  check (Alcotest.option (Alcotest.pair bool bool)) "partition semantics"
    (Some (true, true)) r

let test_loss_drops_messages () =
  let r =
    run_net ~seed:7 (fun sim net ->
        let a = Net.add_node net "a" and b = Net.add_node net "b" in
        let ep = Net.endpoint net b in
        Net.set_loss_rate net 1.0;
        for _ = 1 to 10 do
          Net.send net ~from:a ep ()
        done;
        Sim.sleep sim 100.;
        Net.recv_timeout ep 1.)
  in
  check (Alcotest.option (Alcotest.option Alcotest.unit)) "all lost" (Some None) r

let test_crash_node_kills_processes () =
  let r =
    run_net (fun sim net ->
        let a = Net.add_node net "a" in
        let alive = ref true in
        let _ = Net.spawn_on net a (fun () ->
            (try Sim.sleep sim 1000. with Sim.Killed as e ->
               alive := false;
               raise e)) in
        Sim.sleep sim 1.;
        let killed = Net.crash_node net a in
        Sim.sleep sim 1.;
        (killed, !alive))
  in
  check (Alcotest.option (Alcotest.pair int bool)) "killed one" (Some (1, false)) r

(* ------------------------------------------------------------------ *)
(* RPC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rpc_basic () =
  let r =
    run_net (fun _sim net ->
        let client = Net.add_node net "client" and server = Net.add_node net "server" in
        let port = Net.Rpc.serve ~name:"double" net server (fun x -> 2 * x) in
        let a = Net.Rpc.call net ~from:client port 21 in
        let b = Net.Rpc.call net ~from:client port 100 in
        (a, b))
  in
  check (Alcotest.option (Alcotest.pair int int)) "responses" (Some (42, 200)) r

let test_rpc_blocking_handler () =
  (* Handlers run in their own process, so a slow call does not block
     the server loop for others. *)
  let r =
    run_net (fun sim net ->
        let c = Net.add_node net "c" and s = Net.add_node net "s" in
        let port =
          Net.Rpc.serve net s (fun d ->
              Sim.sleep sim d;
              d)
        in
        let done_order = ref [] in
        let _ = Net.spawn_on net c (fun () ->
            ignore (Net.Rpc.call ~timeout_ms:500. net ~from:c port 40.);
            done_order := "slow" :: !done_order) in
        let _ = Net.spawn_on net c (fun () ->
            Sim.sleep sim 1.;
            ignore (Net.Rpc.call ~timeout_ms:500. net ~from:c port 1.);
            done_order := "fast" :: !done_order) in
        Sim.sleep sim 200.;
        List.rev !done_order)
  in
  check (Alcotest.option (Alcotest.list Alcotest.string)) "fast finishes first"
    (Some [ "fast"; "slow" ]) r

let test_rpc_retry_on_loss () =
  let r =
    run_net ~seed:5 (fun sim net ->
        let c = Net.add_node net "c" and s = Net.add_node net "s" in
        let port = Net.Rpc.serve net s (fun x -> x + 1) in
        (* Drop everything briefly, then heal while the client retries. *)
        Net.set_loss_rate net 1.0;
        let _ = Net.spawn_on net c (fun () ->
            Sim.sleep sim 60.;
            Net.set_loss_rate net 0.) in
        Net.Rpc.call ~timeout_ms:30. ~max_retries:10 net ~from:c port 1)
  in
  check (Alcotest.option int) "eventually answered" (Some 2) r

let test_rpc_timeout_raises () =
  let r =
    run_net (fun _sim net ->
        let c = Net.add_node net "c" and s = Net.add_node net "s" in
        let port = Net.Rpc.serve net s (fun x -> x) in
        Net.set_loss_rate net 1.0;
        match Net.Rpc.call ~timeout_ms:5. ~max_retries:2 net ~from:c port 0 with
        | _ -> false
        | exception Net.Rpc.Timeout _ -> true)
  in
  check (Alcotest.option bool) "timeout raised" (Some true) r

let test_rpc_at_most_once_under_duplication () =
  (* The paper's idempotency claim: duplicated messages do not
     re-execute operations. *)
  let r =
    run_net ~seed:3 (fun _sim net ->
        let c = Net.add_node net "c" and s = Net.add_node net "s" in
        let counter = ref 0 in
        let port =
          Net.Rpc.serve net s (fun x ->
              incr counter;
              x)
        in
        Net.set_duplicate_rate net 1.0;
        for i = 1 to 20 do
          ignore (Net.Rpc.call net ~from:c port i)
        done;
        (!counter, Net.Rpc.handler_executions port))
  in
  check (Alcotest.option (Alcotest.pair int int)) "20 executions for 20 calls"
    (Some (20, 20)) r

let test_rpc_duplicate_of_completed_replays_cached () =
  (* With loss making replies vanish, the client retries and the server
     must replay, not re-execute. *)
  let r =
    run_net ~seed:11 (fun sim net ->
        let c = Net.add_node net "c" and s = Net.add_node net "s" in
        let executions = ref 0 in
        let port =
          Net.Rpc.serve net s (fun x ->
              incr executions;
              x * 10)
        in
        (* Lose ~half the messages; retries + dedup must still give
           exactly-once execution per call and correct answers. *)
        Net.set_loss_rate net 0.5;
        let ok = ref true in
        for i = 1 to 15 do
          match Net.Rpc.call ~timeout_ms:20. ~max_retries:50 net ~from:c port i with
          | v -> if v <> i * 10 then ok := false
          | exception Net.Rpc.Timeout _ -> ok := false
        done;
        Net.set_loss_rate net 0.;
        Sim.sleep sim 100.;
        (!ok, !executions))
  in
  match r with
  | Some (ok, execs) ->
    check bool "all answers correct" true ok;
    check int "each call executed exactly once" 15 execs
  | None -> Alcotest.fail "simulation did not finish"

(* Replies expire once no copy of their request can still arrive, so
   the reply cache stays bounded however many calls a port serves. *)
let test_rpc_reply_cache_bounded () =
  let r =
    run_net (fun sim net ->
        let c = Net.add_node net "c" and s = Net.add_node net "s" in
        let port = Net.Rpc.serve net s (fun x -> x) in
        let peak = ref 0 in
        for i = 1 to 200 do
          ignore (Net.Rpc.call net ~from:c port i);
          peak := max !peak (Net.Rpc.cached_replies port);
          Sim.sleep sim 20.
        done;
        (* An idle second expires every entry but the next call's. *)
        Sim.sleep sim 1000.;
        ignore (Net.Rpc.call net ~from:c port 0);
        (!peak, Net.Rpc.cached_replies port))
  in
  match r with
  | Some (peak, after_idle) ->
    (* A reply lives (5 retries + 1) * 50 ms plus two transfers, about
       300 ms, and a call starts every ~21.5 ms. *)
    check bool (Printf.sprintf "peak %d entries <= 16" peak) true (peak <= 16);
    check int "one entry after an idle second" 1 after_idle
  | None -> Alcotest.fail "simulation did not finish"

let test_rpc_expiry_keeps_at_most_once () =
  (* Every message duplicated, with calls spread out so that replies
     expire throughout: duplicates still replay and nothing runs twice.
     (Too short a lifetime is caught by the loss tests above, whose
     retries arrive late in the window.) *)
  let r =
    run_net ~seed:7 (fun sim net ->
        let c = Net.add_node net "c" and s = Net.add_node net "s" in
        let execs = ref 0 in
        let port =
          Net.Rpc.serve net s (fun x ->
              incr execs;
              x * 3)
        in
        Net.set_duplicate_rate net 1.0;
        let ok = ref true and peak = ref 0 in
        for i = 1 to 100 do
          (match Net.Rpc.call ~timeout_ms:20. ~max_retries:50 net ~from:c port i with
          | v -> if v <> i * 3 then ok := false
          | exception Net.Rpc.Timeout _ -> ok := false);
          peak := max !peak (Net.Rpc.cached_replies port);
          Sim.sleep sim 50.
        done;
        (!ok, !execs, Rhodos_util.Stats.Counter.get (Net.stats net) "rpc_replays", !peak))
  in
  match r with
  | Some (ok, execs, replays, peak) ->
    check bool "all answers correct" true ok;
    check int "each call executed exactly once" 100 execs;
    check int "every duplicate replayed" 100 replays;
    check bool (Printf.sprintf "cache bounded (peak %d)" peak) true (peak < 100)
  | None -> Alcotest.fail "simulation did not finish"

let test_rpc_stop () =
  let r =
    run_net (fun _sim net ->
        let c = Net.add_node net "c" and s = Net.add_node net "s" in
        let port = Net.Rpc.serve net s (fun x -> x) in
        ignore (Net.Rpc.call net ~from:c port 1);
        Net.Rpc.stop port;
        match Net.Rpc.call ~timeout_ms:5. ~max_retries:1 net ~from:c port 2 with
        | _ -> false
        | exception Net.Rpc.Timeout _ -> true)
  in
  check (Alcotest.option bool) "stopped server times out" (Some true) r

let rpc_exactly_once_prop =
  QCheck.Test.make ~name:"rpc executes exactly once under any loss/dup mix" ~count:15
    QCheck.(triple (int_range 1 1000) (float_range 0. 0.6) (float_range 0. 1.0))
    (fun (seed, loss, dup) ->
      match
        run_net ~seed (fun _sim net ->
            let c = Net.add_node net "c" and s = Net.add_node net "s" in
            let execs = ref 0 in
            let port =
              Net.Rpc.serve net s (fun x ->
                  incr execs;
                  x)
            in
            Net.set_loss_rate net loss;
            Net.set_duplicate_rate net dup;
            let calls = 10 in
            let answered = ref 0 in
            for i = 1 to calls do
              match Net.Rpc.call ~timeout_ms:20. ~max_retries:100 net ~from:c port i with
              | v when v = i -> incr answered
              | _ -> ()
              | exception Net.Rpc.Timeout _ -> ()
            done;
            !answered = calls && !execs = calls)
      with
      | Some ok -> ok
      | None -> false)

let () =
  Alcotest.run "rhodos_net"
    [
      ( "messaging",
        [
          Alcotest.test_case "send/recv" `Quick test_send_recv;
          Alcotest.test_case "latency" `Quick test_latency_applied;
          Alcotest.test_case "local free" `Quick test_local_send_is_free;
          Alcotest.test_case "partition" `Quick test_partition_drops;
          Alcotest.test_case "loss" `Quick test_loss_drops_messages;
          Alcotest.test_case "crash node" `Quick test_crash_node_kills_processes;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "basic" `Quick test_rpc_basic;
          Alcotest.test_case "concurrent handlers" `Quick test_rpc_blocking_handler;
          Alcotest.test_case "retry on loss" `Quick test_rpc_retry_on_loss;
          Alcotest.test_case "timeout" `Quick test_rpc_timeout_raises;
          Alcotest.test_case "at-most-once under duplication" `Quick
            test_rpc_at_most_once_under_duplication;
          Alcotest.test_case "replay cached replies" `Quick
            test_rpc_duplicate_of_completed_replays_cached;
          Alcotest.test_case "reply cache bounded" `Quick test_rpc_reply_cache_bounded;
          Alcotest.test_case "expiry keeps at-most-once" `Quick
            test_rpc_expiry_keeps_at_most_once;
          Alcotest.test_case "stop" `Quick test_rpc_stop;
          QCheck_alcotest.to_alcotest rpc_exactly_once_prop;
        ] );
    ]
