module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Fs = Rhodos_file.File_service
module Rep = Rhodos_replication.Replication
module Counter = Rhodos_util.Stats.Counter
open Support

let make_fs sim i =
  let disk =
    Disk.create ~name:(Printf.sprintf "r%d" i) sim (Disk.geometry_with_capacity (mib 4))
  in
  let bs = Block.create ~disk () in
  Block.format bs;
  Fs.create ~disks:[| bs |] ()

let with_rep ?(n = 3) f =
  run_in_sim (fun sim ->
      let replicas = Array.init n (make_fs sim) in
      f sim (Rep.create ~replicas))

let payload tag = Bytes.make 5000 (Char.chr (Char.code 'a' + tag))

let test_write_read () =
  with_rep (fun _ rep ->
      let h = Rep.create_file rep in
      Rep.pwrite rep h ~off:0 (payload 0);
      check bool "read back" true (Bytes.equal (payload 0) (Rep.pread rep h ~off:0 ~len:5000));
      check int "size" 5000 (Rep.file_size rep h);
      check bool "replicas consistent" true (Rep.replicas_consistent rep h))

let test_read_survives_primary_failure () =
  with_rep (fun _ rep ->
      let h = Rep.create_file rep in
      Rep.pwrite rep h ~off:0 (payload 1);
      Rep.set_replica_down rep 0;
      check bool "failover read" true
        (Bytes.equal (payload 1) (Rep.pread rep h ~off:0 ~len:5000));
      check bool "failover counted" true
        (Counter.get (Rep.stats rep) "failover_reads" >= 1))

let test_all_down_raises () =
  with_rep ~n:2 (fun _ rep ->
      let h = Rep.create_file rep in
      Rep.pwrite rep h ~off:0 (payload 2);
      Rep.set_replica_down rep 0;
      Rep.set_replica_down rep 1;
      (try
         ignore (Rep.pread rep h ~off:0 ~len:10);
         Alcotest.fail "expected All_replicas_down"
       with Rep.All_replicas_down -> ());
      try
        Rep.pwrite rep h ~off:0 (payload 3);
        Alcotest.fail "expected All_replicas_down"
      with Rep.All_replicas_down -> ())

let test_stale_replica_not_read () =
  with_rep (fun _ rep ->
      let h = Rep.create_file rep in
      Rep.pwrite rep h ~off:0 (payload 0);
      Rep.set_replica_down rep 0;
      Rep.pwrite rep h ~off:0 (payload 4) (* replica 0 misses this *);
      Rep.set_replica_up rep 0;
      check bool "replica 0 stale" true (Rep.is_stale rep h 0);
      (* Reads must come from an in-sync replica. *)
      check bool "read sees latest" true
        (Bytes.equal (payload 4) (Rep.pread rep h ~off:0 ~len:5000)))

let test_resync () =
  with_rep (fun _ rep ->
      let h = Rep.create_file rep in
      Rep.pwrite rep h ~off:0 (payload 0);
      Rep.set_replica_down rep 1;
      Rep.pwrite rep h ~off:1000 (payload 5);
      Rep.set_replica_up rep 1;
      check bool "stale before resync" true (Rep.is_stale rep h 1);
      Rep.resync rep h;
      check bool "in sync after" false (Rep.is_stale rep h 1);
      check bool "replicas consistent" true (Rep.replicas_consistent rep h);
      (* Now the primary can fail and replica 1 serves current data. *)
      Rep.set_replica_down rep 0;
      Rep.set_replica_down rep 2;
      check bool "resynced data" true
        (Bytes.equal (payload 5) (Rep.pread rep h ~off:1000 ~len:5000)))

let test_resync_all () =
  with_rep (fun _ rep ->
      let h1 = Rep.create_file rep in
      let h2 = Rep.create_file rep in
      Rep.pwrite rep h1 ~off:0 (payload 0);
      Rep.pwrite rep h2 ~off:0 (payload 1);
      Rep.set_replica_down rep 2;
      Rep.pwrite rep h1 ~off:0 (payload 2);
      Rep.pwrite rep h2 ~off:0 (payload 3);
      Rep.set_replica_up rep 2;
      Rep.resync_all rep;
      check bool "h1 consistent" true (Rep.replicas_consistent rep h1);
      check bool "h2 consistent" true (Rep.replicas_consistent rep h2);
      check bool "no stale left" true
        (not (Rep.is_stale rep h1 2) && not (Rep.is_stale rep h2 2)))

let test_delete () =
  with_rep (fun _ rep ->
      let h = Rep.create_file rep in
      Rep.pwrite rep h ~off:0 (payload 0);
      Rep.delete rep h;
      try
        ignore (Rep.pread rep h ~off:0 ~len:10);
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let replication_consistency_prop =
  QCheck.Test.make ~name:"random write/fail/resync keeps replicas consistent"
    ~count:20
    QCheck.(pair small_int (list (int_bound 5)))
    (fun (seed, events) ->
      with_rep (fun _ rep ->
          let rng = Rhodos_util.Rng.create seed in
          let h = Rep.create_file rep in
          let up = [| true; true; true |] in
          List.iter
            (fun event ->
              match event with
              | 0 | 1 ->
                (* Write if anyone is up. *)
                if Array.exists Fun.id up then
                  Rep.pwrite rep h
                    ~off:(Rhodos_util.Rng.int rng 4096)
                    (Bytes.make (1 + Rhodos_util.Rng.int rng 2048) 'z')
              | 2 | 3 ->
                let i = Rhodos_util.Rng.int rng 3 in
                (* Keep at least one replica up. *)
                if Array.to_list up |> List.filter Fun.id |> List.length > 1 then begin
                  up.(i) <- false;
                  Rep.set_replica_down rep i
                end
              | 4 | 5 ->
                let i = Rhodos_util.Rng.int rng 3 in
                if not up.(i) then begin
                  up.(i) <- true;
                  Rep.set_replica_up rep i;
                  Rep.resync rep h
                end
              | _ -> ())
            events;
          (* Bring everything up and resync: must converge. *)
          Array.iteri (fun i _ -> Rep.set_replica_up rep i) up;
          Rep.resync rep h;
          Rep.replicas_consistent rep h))

let () =
  Alcotest.run "rhodos_replication"
    [
      ( "replication",
        [
          Alcotest.test_case "write/read" `Quick test_write_read;
          Alcotest.test_case "failover read" `Quick test_read_survives_primary_failure;
          Alcotest.test_case "all down" `Quick test_all_down_raises;
          Alcotest.test_case "stale not read" `Quick test_stale_replica_not_read;
          Alcotest.test_case "resync" `Quick test_resync;
          Alcotest.test_case "resync all" `Quick test_resync_all;
          Alcotest.test_case "delete" `Quick test_delete;
          QCheck_alcotest.to_alcotest replication_consistency_prop;
        ] );
    ]
