(* Helpers shared by the test suites, which [open] this module; it
   names other modules by full path so it shadows none of theirs. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let mib n = n * 1024 * 1024

(* Run [f] as a process of a fresh world, drain the world, and return
   what [f] returned. *)
let run_in_sim f =
  let sim = Rhodos_sim.Sim.create () in
  let result = ref None in
  ignore (Rhodos_sim.Sim.spawn sim (fun () -> result := Some (f sim)));
  Rhodos_sim.Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "process did not finish"

(* Like [run_in_sim], but stop as soon as [f] returns: periodic
   background processes (cache flushers, agents) keep the event queue
   non-empty forever. *)
let run_until_done f =
  let sim = Rhodos_sim.Sim.create () in
  let result = ref None in
  ignore (Rhodos_sim.Sim.spawn sim (fun () -> result := Some (f sim)));
  while !result = None && Rhodos_sim.Sim.step sim do
    ()
  done;
  match !result with Some r -> r | None -> Alcotest.fail "simulation stalled"

(* A file service over [ndisks] formatted disk services, each with a
   stable-storage mirror pair when [with_stable]. *)
let make_fs ?(ndisks = 1) ?(capacity = mib 8) ?config ?block_config
    ?(with_stable = false) sim =
  let module Disk = Rhodos_disk.Disk in
  let module Block = Rhodos_block.Block_service in
  let disks =
    Array.init ndisks (fun i ->
        let disk =
          Disk.create ~name:(Printf.sprintf "d%d" i) sim
            (Disk.geometry_with_capacity capacity)
        in
        let stable =
          if with_stable then
            let g = Disk.geometry_with_capacity (capacity * 2) in
            Some
              ( Disk.create ~name:(Printf.sprintf "st%da" i) sim g,
                Disk.create ~name:(Printf.sprintf "st%db" i) sim g )
          else None
        in
        let bs =
          Block.create ~name:(Printf.sprintf "bs%d" i) ?config:block_config ~disk
            ?stable ()
        in
        Block.format bs;
        bs)
  in
  Rhodos_file.File_service.create ?config ~disks ()

(* A delayed-write cache whose batch flush of keys 0 and 1 is
   interrupted by an invalidation of key 1: the entry's [written] thunk
   then runs for an evicted buffer, which the cache publishes as
   [Use_after_evict 1]. [attach] subscribes the readers first. *)
let stale_batch_run attach =
  let module Sim = Rhodos_sim.Sim in
  let module Cache = Rhodos_cache.Buffer_cache in
  let sim = Sim.create () in
  let writeback_batch entries =
    List.iter (fun (_, _, written) -> Sim.sleep sim 1.0; written ()) entries
  in
  let c =
    Cache.create ~writeback_batch ~sim ~capacity:8
      ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
      ~writeback:(fun _ _ -> ())
      ()
  in
  attach sim c;
  ignore
    (Sim.spawn ~name:"flusher" sim (fun () ->
         Cache.write c 0 (Bytes.make 4 'a');
         Cache.write c 1 (Bytes.make 4 'b');
         Cache.flush c));
  ignore (Sim.spawn_at ~name:"invalidator" sim ~at:1.5 (fun () -> Cache.invalidate c 1));
  Sim.run sim
