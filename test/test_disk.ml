module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
open Support

(* Run [f] inside a fresh simulation with one disk and return its result. *)
let with_disk ?scheduler ?(geometry = Disk.default_geometry) f =
  let sim = Sim.create () in
  let disk = Disk.create ?scheduler ~name:"d0" sim geometry in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim disk)) in
  Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "process did not finish"

let test_capacity () =
  let g = Disk.default_geometry in
  let sim = Sim.create () in
  let d = Disk.create sim g in
  check int "sectors" (256 * 8 * 64) (Disk.capacity_sectors d);
  check int "bytes" (256 * 8 * 64 * 512) (Disk.capacity_bytes d)

let test_geometry_with_capacity () =
  let g = Disk.geometry_with_capacity (128 * 1024 * 1024) in
  let per_cyl = g.heads * g.sectors_per_track * g.sector_bytes in
  check bool "at least requested" true (g.cylinders * per_cyl >= 128 * 1024 * 1024)

let test_write_read_roundtrip () =
  with_disk (fun _sim d ->
      let data = Bytes.create 1024 in
      for i = 0 to 1023 do
        Bytes.set data i (Char.chr (i mod 256))
      done;
      Disk.write d ~sector:10 data;
      let back = Disk.read d ~sector:10 ~count:2 in
      check bool "roundtrip" true (Bytes.equal data back))

let test_io_takes_time () =
  with_disk (fun sim d ->
      let t0 = Sim.now sim in
      ignore (Disk.read d ~sector:0 ~count:1);
      check bool "read cost > 0" true (Sim.now sim > t0))

let test_contiguous_is_one_reference () =
  with_disk (fun _sim d ->
      ignore (Disk.read d ~sector:0 ~count:64);
      let s = Disk.stats d in
      check int "one reference for 64 sectors" 1 s.references;
      check int "64 sectors moved" 64 s.sectors_read)

let test_contiguous_cheaper_than_scattered () =
  (* One 16-sector reference must beat 16 scattered single-sector
     references — the heart of the paper's contiguity argument. *)
  let contiguous =
    with_disk (fun sim d ->
        ignore (Disk.read d ~sector:0 ~count:16);
        ignore sim;
        (Disk.stats d).busy_ms)
  in
  let scattered =
    with_disk (fun sim d ->
        for i = 0 to 15 do
          ignore (Disk.read d ~sector:(i * 1000) ~count:1)
        done;
        ignore sim;
        (Disk.stats d).busy_ms)
  in
  check bool
    (Printf.sprintf "contiguous %.2fms << scattered %.2fms" contiguous scattered)
    true
    (contiguous *. 4. < scattered)

(* Pin the timing model against hand-computed values for the default
   geometry: 5400 rpm -> 11.1111 ms/revolution, 64 sectors/track ->
   0.173611 ms/sector transfer, seek = 3 + 0.05 x cylinders, 1 ms per
   track switch while streaming. *)
let rev_ms = 60_000. /. 5400.
let per_sector = rev_ms /. 64.

let test_timing_sector_zero_from_rest () =
  with_disk (fun sim d ->
      (* t=0, head at cylinder 0, sector 0 under the head: no seek, no
         rotation, one sector of transfer. *)
      ignore (Disk.read d ~sector:0 ~count:1);
      check (Alcotest.float 1e-9) "pure transfer" per_sector (Sim.now sim))

let test_timing_half_revolution () =
  with_disk (fun sim d ->
      (* Sector 32 is half a revolution away at t=0. *)
      ignore (Disk.read d ~sector:32 ~count:1);
      check (Alcotest.float 1e-9) "half rev + transfer"
        ((rev_ms /. 2.) +. per_sector)
        (Sim.now sim))

let test_timing_seek_then_rotation () =
  with_disk (fun sim d ->
      (* Sector 51200 = cylinder 100, sector 0 of its track.
         seek = 3 + 0.05*100 = 8 ms; during those 8 ms the platter
         turns to angle rem(8/rev) = 0.72, so it waits 0.28 rev for
         sector 0 to come around again. *)
      ignore (Disk.read d ~sector:51200 ~count:1);
      let expected = 8. +. (0.28 *. rev_ms) +. per_sector in
      check (Alcotest.float 1e-6) "seek + rotation + transfer" expected (Sim.now sim))

let test_timing_streaming_with_track_switch () =
  with_disk (fun sim d ->
      (* 128 sectors from sector 0: two full tracks, one switch. *)
      ignore (Disk.read d ~sector:0 ~count:128);
      check (Alcotest.float 1e-9) "2 tracks + 1 switch"
        ((128. *. per_sector) +. 1.0)
        (Sim.now sim))

let test_seek_accounting () =
  with_disk (fun _sim d ->
      ignore (Disk.read d ~sector:0 ~count:1);
      let s1 = Disk.stats d in
      check int "no seek from cylinder 0" 0 s1.seeks;
      (* Cylinder = 8 heads * 64 spt = 512 sectors; sector 51200 is cylinder 100. *)
      ignore (Disk.read d ~sector:51200 ~count:1);
      let s2 = Disk.stats d in
      check int "one seek" 1 s2.seeks;
      check bool "seek time recorded" true (s2.seek_ms > 0.))

let test_out_of_range () =
  with_disk (fun _sim d ->
      let cap = Disk.capacity_sectors d in
      (try
         ignore (Disk.read d ~sector:cap ~count:1);
         Alcotest.fail "expected Invalid_argument"
       with Invalid_argument _ -> ());
      try
        ignore (Disk.read d ~sector:(-1) ~count:1);
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let test_media_fault_and_repair () =
  with_disk (fun _sim d ->
      Disk.write d ~sector:5 (Bytes.make 512 'x');
      Disk.inject_media_fault d ~sector:5 ~count:1;
      (try
         ignore (Disk.read d ~sector:5 ~count:1);
         Alcotest.fail "expected Media_failure"
       with Disk.Media_failure { sector; _ } -> check int "sector" 5 sector);
      (* Reads spanning the bad sector fail too. *)
      (try
         ignore (Disk.read d ~sector:0 ~count:10);
         Alcotest.fail "expected Media_failure"
       with Disk.Media_failure _ -> ());
      (* Rewrite repairs. *)
      Disk.write d ~sector:5 (Bytes.make 512 'y');
      let back = Disk.read d ~sector:5 ~count:1 in
      check bool "repaired" true (Bytes.equal back (Bytes.make 512 'y')))

let test_unit_failure () =
  with_disk (fun _sim d ->
      Disk.fail_unit d;
      (try
         ignore (Disk.read d ~sector:0 ~count:1);
         Alcotest.fail "expected Disk_failed"
       with Disk.Disk_failed name -> check Alcotest.string "name" "d0" name);
      Disk.revive_unit d;
      ignore (Disk.read d ~sector:0 ~count:1))

let test_peek_poke_free () =
  with_disk (fun sim d ->
      let t0 = Sim.now sim in
      Disk.poke d ~sector:3 (Bytes.make 512 'q');
      let b = Disk.peek d ~sector:3 ~count:1 in
      check bool "poke visible to peek" true (Bytes.equal b (Bytes.make 512 'q'));
      check (Alcotest.float 1e-9) "no simulated time" t0 (Sim.now sim);
      check int "no references counted" 0 (Disk.stats d).references)

let test_queue_contention () =
  (* Two concurrent requests: the second waits for the first. *)
  with_disk (fun sim d ->
      let finish = ref [] in
      let reader name sector =
        ignore (Sim.spawn sim (fun () ->
            ignore (Disk.read d ~sector ~count:8);
            finish := (name, Sim.now sim) :: !finish))
      in
      reader "a" 0;
      reader "b" 1024;
      (* Wait for both. *)
      Sim.sleep sim 1000.;
      match List.rev !finish with
      | [ ("a", ta); ("b", tb) ] ->
        check bool "b finishes after a" true (tb > ta);
        let s = Disk.stats d in
        check bool "second request waited" true (Rhodos_util.Stats.max_value s.queue_wait > 0.)
      | _ -> Alcotest.fail "both requests should complete, a first")

let test_sstf_reorders () =
  (* Queue far then near: SSTF serves near first. *)
  let order_with scheduler =
    let sim = Sim.create () in
    let d = Disk.create ~scheduler sim Disk.default_geometry in
    let log = ref [] in
    (* Occupy the disk so subsequent requests queue up. *)
    let _ = Sim.spawn sim (fun () -> ignore (Disk.read d ~sector:0 ~count:64)) in
    let submit name sector delay =
      ignore (Sim.spawn sim (fun () ->
          Sim.sleep sim delay;
          ignore (Disk.read d ~sector ~count:1);
          log := name :: !log))
    in
    submit "far" (200 * 512) 0.1;   (* cylinder 200 *)
    submit "near" (10 * 512) 0.2;   (* cylinder 10 *)
    Sim.run sim;
    List.rev !log
  in
  check (Alcotest.list Alcotest.string) "fcfs keeps arrival order" [ "far"; "near" ]
    (order_with Disk.Fcfs);
  check (Alcotest.list Alcotest.string) "sstf serves near first" [ "near"; "far" ]
    (order_with Disk.Sstf)

let test_scan_sweeps () =
  let sim = Sim.create () in
  let d = Disk.create ~scheduler:Disk.Scan sim Disk.default_geometry in
  let log = ref [] in
  let _ = Sim.spawn sim (fun () -> ignore (Disk.read d ~sector:(50 * 512) ~count:64)) in
  let submit name cyl delay =
    ignore (Sim.spawn sim (fun () ->
        Sim.sleep sim delay;
        ignore (Disk.read d ~sector:(cyl * 512) ~count:1);
        log := name :: !log))
  in
  (* Head will be at cylinder 50 moving up: expect 80, 120, then sweep
     back down to 20. *)
  submit "c120" 120 0.1;
  submit "c20" 20 0.2;
  submit "c80" 80 0.3;
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "scan order" [ "c80"; "c120"; "c20" ]
    (List.rev !log)

let test_stats_reset () =
  with_disk (fun _sim d ->
      ignore (Disk.read d ~sector:0 ~count:4);
      Disk.reset_stats d;
      let s = Disk.stats d in
      check int "references" 0 s.references;
      check (Alcotest.float 0.) "busy" 0. s.busy_ms)

let disk_roundtrip_prop =
  QCheck.Test.make ~name:"disk write/read roundtrip at random offsets" ~count:50
    QCheck.(pair (int_bound 1000) (int_range 1 16))
    (fun (sector, count) ->
      with_disk (fun _sim d ->
          let data =
            Bytes.init (count * 512) (fun i -> Char.chr ((sector + i) mod 256))
          in
          Disk.write d ~sector data;
          Bytes.equal data (Disk.read d ~sector ~count)))

let () =
  Alcotest.run "rhodos_disk"
    [
      ( "geometry",
        [
          Alcotest.test_case "capacity" `Quick test_capacity;
          Alcotest.test_case "with_capacity" `Quick test_geometry_with_capacity;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "takes time" `Quick test_io_takes_time;
          Alcotest.test_case "contiguous one ref" `Quick test_contiguous_is_one_reference;
          Alcotest.test_case "contiguous cheaper" `Quick
            test_contiguous_cheaper_than_scattered;
          Alcotest.test_case "timing: transfer only" `Quick
            test_timing_sector_zero_from_rest;
          Alcotest.test_case "timing: rotation" `Quick test_timing_half_revolution;
          Alcotest.test_case "timing: seek+rotation" `Quick
            test_timing_seek_then_rotation;
          Alcotest.test_case "timing: streaming" `Quick
            test_timing_streaming_with_track_switch;
          Alcotest.test_case "seek accounting" `Quick test_seek_accounting;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          QCheck_alcotest.to_alcotest disk_roundtrip_prop;
        ] );
      ( "faults",
        [
          Alcotest.test_case "media fault and repair" `Quick test_media_fault_and_repair;
          Alcotest.test_case "unit failure" `Quick test_unit_failure;
          Alcotest.test_case "peek/poke free" `Quick test_peek_poke_free;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "queue contention" `Quick test_queue_contention;
          Alcotest.test_case "sstf reorders" `Quick test_sstf_reorders;
          Alcotest.test_case "scan sweeps" `Quick test_scan_sweeps;
          Alcotest.test_case "stats reset" `Quick test_stats_reset;
        ] );
    ]
