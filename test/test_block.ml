module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Counter = Rhodos_util.Stats.Counter
open Support

(* A 4 MiB disk keeps tests fast: 2048 fragments, 1 bitmap fragment. *)
let make_service ?(capacity = mib 4) ?(with_stable = true) ?config sim =
  let disk = Disk.create ~name:"main" sim (Disk.geometry_with_capacity capacity) in
  let stable =
    if with_stable then
      let g = Disk.geometry_with_capacity (capacity * 2) in
      Some (Disk.create ~name:"st0" sim g, Disk.create ~name:"st1" sim g)
    else None
  in
  (Block.create ?config ~disk ?stable (), disk)

let with_service ?capacity ?with_stable ?config f =
  run_in_sim (fun sim ->
      let svc, disk = make_service ?capacity ?with_stable ?config sim in
      Block.format svc;
      f sim svc disk)

let frag_payload ?(tag = 0) fragments =
  Bytes.init (fragments * Block.fragment_bytes) (fun i -> Char.chr ((tag + i) mod 256))

(* ------------------------------------------------------------------ *)
(* Constants and formatting                                            *)
(* ------------------------------------------------------------------ *)

let test_unit_sizes () =
  check int "fragment 2K" 2048 Block.fragment_bytes;
  check int "block 8K" 8192 Block.block_bytes;
  check int "4 fragments per block" 4 Block.fragments_per_block

let test_format_reserves_metadata () =
  with_service (fun _ svc _ ->
      check int "total fragments" 2048 (Block.total_fragments svc);
      (* superblock + 1 bitmap fragment *)
      check int "data fragments" 2046 (Block.data_fragments svc);
      check int "free = data" 2046 (Block.free_fragments svc);
      check bool "consistent" true (Block.extent_array_consistent svc))

let test_unformatted_raises () =
  run_in_sim (fun sim ->
      let svc, _ = make_service sim in
      try
        ignore (Block.allocate svc ~fragments:1);
        Alcotest.fail "expected Not_formatted"
      with Block.Not_formatted _ -> ())

(* ------------------------------------------------------------------ *)
(* Allocation and the extent array                                     *)
(* ------------------------------------------------------------------ *)

let test_allocate_and_free () =
  with_service (fun _ svc _ ->
      let a = Block.allocate svc ~fragments:4 in
      check bool "allocated marked" false (Block.is_free svc ~pos:a ~fragments:4);
      check int "free count dropped" 2042 (Block.free_fragments svc);
      Block.free svc ~pos:a ~fragments:4;
      check int "free count restored" 2046 (Block.free_fragments svc);
      check bool "consistent after churn" true (Block.extent_array_consistent svc))

let test_allocate_block_is_four_fragments () =
  with_service (fun _ svc _ ->
      let before = Block.free_fragments svc in
      let a = Block.allocate_block svc ~blocks:2 in
      check int "8 fragments used" (before - 8) (Block.free_fragments svc);
      Block.free_block svc ~pos:a ~blocks:2)

let test_allocations_disjoint () =
  with_service (fun _ svc _ ->
      let seen = Hashtbl.create 64 in
      for _ = 1 to 100 do
        let a = Block.allocate svc ~fragments:3 in
        for f = a to a + 2 do
          if Hashtbl.mem seen f then Alcotest.fail "overlapping allocation";
          Hashtbl.replace seen f ()
        done
      done)

let test_no_space () =
  with_service (fun _ svc _ ->
      (* One fragment short of everything. *)
      let data = Block.data_fragments svc in
      ignore (Block.allocate svc ~fragments:(data - 1));
      ignore (Block.allocate svc ~fragments:1);
      try
        ignore (Block.allocate svc ~fragments:1);
        Alcotest.fail "expected No_space"
      with Block.No_space { wanted_fragments; free_fragments } ->
        check int "wanted" 1 wanted_fragments;
        check int "free" 0 free_fragments)

let test_no_space_fragmented () =
  (* Plenty of free fragments but no contiguous run. *)
  with_service (fun _ svc _ ->
      let keep = ref [] in
      (* Allocate pairs, free every second fragment: free space is all
         single fragments. *)
      (try
         while true do
           let a = Block.allocate svc ~fragments:2 in
           keep := a :: !keep
         done
       with Block.No_space _ -> ());
      List.iter (fun a -> Block.free svc ~pos:a ~fragments:1) !keep;
      check bool "lots free" true (Block.free_fragments svc > 100);
      (try
         ignore (Block.allocate svc ~fragments:2);
         Alcotest.fail "expected No_space for contiguous pair"
       with Block.No_space _ -> ());
      (* Single fragments still allocatable. *)
      ignore (Block.allocate svc ~fragments:1))

let test_exact_fit_preferred () =
  with_service (fun _ svc _ ->
      (* Carve a hole of exactly 5 fragments. *)
      let a = Block.allocate svc ~fragments:5 in
      let _guard = Block.allocate svc ~fragments:1 in
      Block.free svc ~pos:a ~fragments:5;
      let b = Block.allocate svc ~fragments:5 in
      check int "reuses the exact hole" a b)

let test_double_free_rejected () =
  with_service (fun _ svc _ ->
      let a = Block.allocate svc ~fragments:2 in
      Block.free svc ~pos:a ~fragments:2;
      try
        Block.free svc ~pos:a ~fragments:2;
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let test_metadata_protected () =
  with_service (fun _ svc _ ->
      try
        Block.free svc ~pos:0 ~fragments:1;
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let test_coalescing () =
  with_service (fun _ svc _ ->
      let a = Block.allocate svc ~fragments:2 in
      let b = Block.allocate svc ~fragments:2 in
      let c = Block.allocate svc ~fragments:2 in
      (* Adjacent allocations; a,b,c should be contiguous. *)
      check int "b follows a" (a + 2) b;
      check int "c follows b" (b + 2) c;
      let _guard = Block.allocate svc ~fragments:1 in
      Block.free svc ~pos:a ~fragments:2;
      Block.free svc ~pos:c ~fragments:2;
      Block.free svc ~pos:b ~fragments:2;
      (* After coalescing, a 6-run must exist at a. *)
      let d = Block.allocate svc ~fragments:6 in
      check int "coalesced run reused" a d)

let test_allocate_near () =
  with_service (fun _ svc _ ->
      (* Make two distant holes of 4. *)
      let all = Block.allocate svc ~fragments:(Block.data_fragments svc) in
      Block.free svc ~pos:(all + 100) ~fragments:4;
      Block.free svc ~pos:(all + 1500) ~fragments:4;
      let near = Block.allocate_near svc ~hint:(all + 1490) ~fragments:4 in
      check int "picks the closer hole" (all + 1500) near)

let test_allocate_at () =
  with_service (fun _ svc _ ->
      (* Claim a specific free range. *)
      let base = Block.allocate svc ~fragments:1 in
      let target = base + 10 in
      check bool "free range claimed" true
        (Block.allocate_at svc ~pos:target ~fragments:4);
      check bool "now allocated" false (Block.is_free svc ~pos:target ~fragments:4);
      (* Claiming it again fails. *)
      check bool "busy range refused" false
        (Block.allocate_at svc ~pos:target ~fragments:4);
      (* Partial overlap fails too. *)
      check bool "overlap refused" false
        (Block.allocate_at svc ~pos:(target + 2) ~fragments:4);
      (* The metadata region is never claimable. *)
      check bool "metadata refused" false (Block.allocate_at svc ~pos:0 ~fragments:1);
      check bool "array still consistent" true (Block.extent_array_consistent svc);
      (* The clipped pieces around the claim are still allocatable. *)
      check bool "piece before" true
        (Block.allocate_at svc ~pos:(target - 1) ~fragments:1);
      check bool "piece after" true
        (Block.allocate_at svc ~pos:(target + 4) ~fragments:1);
      check bool "array consistent after clips" true
        (Block.extent_array_consistent svc))

let test_allocate_at_enables_extension () =
  (* The file-service pattern: extend a run in place. *)
  with_service (fun _ svc _ ->
      let a = Block.allocate svc ~fragments:4 in
      check bool "tail is free" true (Block.is_free svc ~pos:(a + 4) ~fragments:4);
      check bool "extend in place" true (Block.allocate_at svc ~pos:(a + 4) ~fragments:4);
      Block.free svc ~pos:a ~fragments:8)

let test_rebuild_matches_incremental () =
  with_service (fun _ svc _ ->
      let rng = Rhodos_util.Rng.create 99 in
      let live = ref [] in
      for _ = 1 to 200 do
        if Rhodos_util.Rng.bool rng || !live = [] then begin
          let n = 1 + Rhodos_util.Rng.int rng 6 in
          match Block.allocate svc ~fragments:n with
          | pos -> live := (pos, n) :: !live
          | exception Block.No_space _ -> ()
        end
        else begin
          match !live with
          | (pos, n) :: rest ->
            Block.free svc ~pos ~fragments:n;
            live := rest
          | [] -> ()
        end
      done;
      let incremental = Block.extent_array_entries svc in
      Block.rebuild_extent_array svc;
      let rebuilt = Block.extent_array_entries svc in
      check bool "incremental = rebuild" true (incremental = rebuilt);
      check bool "consistent" true (Block.extent_array_consistent svc))

(* ------------------------------------------------------------------ *)
(* get/put/flush                                                       *)
(* ------------------------------------------------------------------ *)

let test_put_get_roundtrip () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:3 in
      let data = frag_payload ~tag:5 3 in
      Block.put_block svc ~pos data;
      let back = Block.get_block svc ~pos ~fragments:3 in
      check bool "roundtrip" true (Bytes.equal data back))

let test_contiguous_read_one_reference () =
  with_service
    ~config:{ Block.default_config with track_cache_tracks = 0; prefetch = false }
    (fun _ svc disk ->
      let pos = Block.allocate svc ~fragments:8 in
      Block.put_block svc ~pos (frag_payload 8);
      Disk.reset_stats disk;
      ignore (Block.get_block svc ~pos ~fragments:8);
      check int "one disk reference for 8 fragments" 1 (Disk.stats disk).references)

let test_track_cache_hit () =
  with_service (fun sim svc _ ->
      let pos = Block.allocate svc ~fragments:2 in
      Block.put_block svc ~pos (frag_payload 2);
      ignore (Block.get_block svc ~pos ~fragments:2);
      (* Let the prefetch land. *)
      Sim.sleep sim 100.;
      let before_hits = Counter.get (Block.stats svc) "cache_hits" in
      let back = Block.get_block svc ~pos ~fragments:2 in
      check bool "content correct" true (Bytes.equal back (frag_payload 2));
      check int "second read is a cache hit" (before_hits + 1)
        (Counter.get (Block.stats svc) "cache_hits"))

let test_prefetch_serves_track_neighbours () =
  with_service (fun sim svc disk ->
      (* Two fragments on the same track (a track is 32 KiB = 16 fragments). *)
      let pos = Block.allocate svc ~fragments:16 in
      Block.put_block svc ~pos (frag_payload 16);
      Block.flush_block svc ~pos ~fragments:16;
      Disk.reset_stats disk;
      ignore (Block.get_block svc ~pos ~fragments:1);
      Sim.sleep sim 100. (* prefetch lands *);
      let refs_before = (Disk.stats disk).references in
      ignore (Block.get_block svc ~pos:(pos + 8) ~fragments:1);
      check int "neighbour served from prefetched track" refs_before
        (Disk.stats disk).references)

let test_flush_forces_disk_read () =
  with_service (fun sim svc disk ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~pos (frag_payload 1);
      ignore (Block.get_block svc ~pos ~fragments:1);
      Sim.sleep sim 100.;
      Block.flush_block svc ~pos ~fragments:1;
      Disk.reset_stats disk;
      ignore (Block.get_block svc ~pos ~fragments:1);
      check bool "hit the disk after flush" true ((Disk.stats disk).references >= 1))

let test_cache_sees_writes () =
  (* Write-through coherence: a cached track must reflect later puts. *)
  with_service (fun sim svc _ ->
      let pos = Block.allocate svc ~fragments:2 in
      Block.put_block svc ~pos (frag_payload ~tag:1 2);
      ignore (Block.get_block svc ~pos ~fragments:2);
      Sim.sleep sim 100.;
      Block.put_block svc ~pos (frag_payload ~tag:2 2);
      let back = Block.get_block svc ~pos ~fragments:2 in
      check bool "fresh data after write" true (Bytes.equal back (frag_payload ~tag:2 2)))

(* ------------------------------------------------------------------ *)
(* Single-flight track reads                                           *)
(* ------------------------------------------------------------------ *)

(* On the 4 MiB test disk a track is 64 sectors = 16 fragments, and a
   cylinder is 8 tracks. Track 1 is fragments 16..31. *)
let track1 = 16

(* Run each thunk in its own process, all spawned at once, and return
   their results in order once every one has finished. *)
let concurrently sim thunks =
  let ivars =
    List.map
      (fun f ->
        let iv = Sim.Ivar.create sim in
        ignore (Sim.spawn sim (fun () -> Sim.Ivar.fill iv (f ())));
        iv)
      thunks
  in
  List.map Sim.Ivar.read ivars

(* Fill track 1 with known bytes and leave it uncached, stats zeroed. *)
let cold_track svc disk =
  check bool "track 1 free" true (Block.allocate_at svc ~pos:track1 ~fragments:16);
  Block.put_block svc ~pos:track1 (frag_payload ~tag:7 16);
  Block.flush_block svc ~pos:track1 ~fragments:16;
  Disk.reset_stats disk;
  Block.reset_stats svc

let block_of_track1 b =
  Bytes.sub (frag_payload ~tag:7 16) (b * Block.block_bytes) Block.block_bytes

let test_concurrent_misses_share_one_read () =
  with_service (fun sim svc disk ->
      cold_track svc disk;
      let got =
        concurrently sim
          (List.init 4 (fun b () ->
               Block.get_block svc ~pos:(track1 + (4 * b)) ~fragments:4))
      in
      List.iteri
        (fun b data ->
          check bool (Printf.sprintf "block %d bytes" b) true
            (Bytes.equal data (block_of_track1 b)))
        got;
      let c = Block.stats svc in
      check int "one disk reference" 1 (Disk.stats disk).references;
      check int "three reads joined it" 3 (Counter.get c "track_joins");
      check int "joiners served from the cache" 3 (Counter.get c "cache_hits");
      check int "one miss" 1 (Counter.get c "cache_misses"))

let test_media_fault_waiters_get_their_bytes () =
  with_service (fun sim svc disk ->
      cold_track svc disk;
      (* Decay a sector of block 3; blocks 0..2 are still readable. *)
      Disk.inject_media_fault disk ~sector:((track1 + 14) * 4) ~count:1;
      let got =
        concurrently sim
          (List.init 3 (fun b () ->
               Block.get_block svc ~pos:(track1 + (4 * b)) ~fragments:4))
      in
      List.iteri
        (fun b data ->
          check bool (Printf.sprintf "block %d bytes" b) true
            (Bytes.equal data (block_of_track1 b)))
        got;
      check int "two reads joined the failed one" 2
        (Counter.get (Block.stats svc) "track_joins");
      check int "failed track read + 3 exact reads" 4 (Disk.stats disk).references)

let test_killed_reader_strands_no_waiter () =
  with_service (fun sim svc disk ->
      cold_track svc disk;
      let reader = Sim.spawn sim (fun () -> ignore (Block.get_block svc ~pos:track1 ~fragments:4)) in
      let waiters =
        List.init 2 (fun i ->
            let b = i + 1 in
            let iv = Sim.Ivar.create sim in
            ignore
              (Sim.spawn sim (fun () ->
                   Sim.Ivar.fill iv
                     (Block.get_block svc ~pos:(track1 + (4 * b)) ~fragments:4)));
            (b, iv))
      in
      Sim.sleep sim 1.;
      check int "both waiters joined" 2 (Counter.get (Block.stats svc) "track_joins");
      Sim.kill sim reader;
      List.iter
        (fun (b, iv) ->
          check bool (Printf.sprintf "block %d bytes" b) true
            (Bytes.equal (Sim.Ivar.read iv) (block_of_track1 b)))
        waiters;
      (* Nothing is left registered: a new miss reads the disk itself. *)
      let refs = (Disk.stats disk).references in
      ignore (Block.get_block svc ~pos:(track1 + 12) ~fragments:4);
      check int "later read joins nothing" 2 (Counter.get (Block.stats svc) "track_joins");
      check bool "later read went to the disk" true ((Disk.stats disk).references > refs))

(* A read in flight when a write to its track is submitted must not
   cache the pre-write track: the write's bytes would be lost to every
   later read that hits the cache. *)
let test_read_racing_write_caches_no_stale_track () =
  with_service (fun sim svc disk ->
      cold_track svc disk;
      (match
         concurrently sim
           [ (fun () -> Some (Block.get_block svc ~pos:track1 ~fragments:2));
             (fun () ->
               Block.put_block svc ~pos:track1 (frag_payload ~tag:9 2);
               None) ]
       with
      | Some racing :: _ ->
        check bool "the racing read was served first" true
          (Bytes.equal racing (Bytes.sub (block_of_track1 0) 0 (2 * Block.fragment_bytes)))
      | _ -> Alcotest.fail "no read result");
      check bool "read back sees the write" true
        (Bytes.equal (Block.get_block svc ~pos:track1 ~fragments:2) (frag_payload ~tag:9 2)))

(* The same race when the disk reorders: under SSTF a read submitted
   after the write can still be served before it. Tracks 7 and 8 sit
   on cylinders 0 and 1. While the disk serves a read on cylinder 0, a
   write to track 8 queues, then a read of tracks 7-8 that starts on
   cylinder 0; SSTF serves that read first. *)
let test_reordered_read_caches_no_stale_track () =
  run_in_sim (fun sim ->
      let disk =
        Disk.create ~name:"main" ~scheduler:Disk.Sstf sim (Disk.geometry_with_capacity (mib 4))
      in
      let svc = Block.create ~disk () in
      Block.format svc;
      let track7 = 112 and track8 = 128 in
      check bool "tracks 7-8 free" true (Block.allocate_at svc ~pos:track7 ~fragments:32);
      check bool "track 1 free" true (Block.allocate_at svc ~pos:track1 ~fragments:16);
      Block.put_block svc ~pos:track7 (frag_payload ~tag:1 32);
      Block.flush_block svc ~pos:0 ~fragments:(Block.total_fragments svc);
      (match
         concurrently sim
           [ (fun () ->
               ignore (Block.get_block svc ~pos:track1 ~fragments:1);
               None);
             (fun () ->
               Block.put_block svc ~pos:track8 (frag_payload ~tag:2 4);
               None);
             (fun () -> Some (Block.get_block svc ~pos:(track8 - 4) ~fragments:8)) ]
       with
      | [ _; _; Some racing ] ->
        let fb = Block.fragment_bytes in
        check bool "the racing read was served first" true
          (Bytes.equal (Bytes.sub racing (4 * fb) (4 * fb))
             (Bytes.sub (frag_payload ~tag:1 32) (16 * fb) (4 * fb)))
      | _ -> Alcotest.fail "no read result");
      check bool "read back sees the write" true
        (Bytes.equal (Block.get_block svc ~pos:track8 ~fragments:4) (frag_payload ~tag:2 4)))

(* ------------------------------------------------------------------ *)
(* Stable storage destinations                                         *)
(* ------------------------------------------------------------------ *)

let test_stable_only_write () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~pos (frag_payload ~tag:3 1);
      Block.put_block svc ~dest:Block.Stable_only ~pos (frag_payload ~tag:9 1);
      (* Main copy untouched, stable copy has the shadow. *)
      let main = Block.get_block svc ~pos ~fragments:1 in
      let stable = Block.get_block svc ~source:Block.Stable ~pos ~fragments:1 in
      check bool "main keeps original" true (Bytes.equal main (frag_payload ~tag:3 1));
      check bool "stable has shadow" true (Bytes.equal stable (frag_payload ~tag:9 1)))

let test_original_and_stable_write () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~dest:Block.Original_and_stable ~pos (frag_payload ~tag:4 1);
      let main = Block.get_block svc ~pos ~fragments:1 in
      let stable = Block.get_block svc ~source:Block.Stable ~pos ~fragments:1 in
      check bool "both copies" true
        (Bytes.equal main (frag_payload ~tag:4 1) && Bytes.equal stable main))

let test_return_early_completes_by_sync () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~dest:Block.Stable_only ~wait:Block.Return_early ~pos
        (frag_payload ~tag:6 1);
      Block.sync svc;
      let stable = Block.get_block svc ~source:Block.Stable ~pos ~fragments:1 in
      check bool "stable write landed" true (Bytes.equal stable (frag_payload ~tag:6 1)))

let test_return_early_is_faster () =
  let elapsed wait =
    with_service (fun sim svc _ ->
        let pos = Block.allocate svc ~fragments:4 in
        let t0 = Sim.now sim in
        Block.put_block svc ~dest:Block.Original_and_stable ~wait ~pos (frag_payload 4);
        Sim.now sim -. t0)
  in
  check bool "return-early returns sooner" true
    (elapsed Block.Return_early < elapsed Block.Wait_stable)

let test_stable_without_mirror_rejected () =
  with_service ~with_stable:false (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      try
        Block.put_block svc ~dest:Block.Stable_only ~pos (frag_payload 1);
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Crash recovery: format / attach                                     *)
(* ------------------------------------------------------------------ *)

let test_attach_restores_bitmap () =
  run_in_sim (fun sim ->
      let svc, disk = make_service sim in
      Block.format svc;
      let a = Block.allocate svc ~fragments:7 in
      Block.put_block svc ~pos:a (frag_payload ~tag:8 7);
      Block.sync svc;
      let free_before = Block.free_fragments svc in
      (* "Crash": forget all volatile state by building a new server on
         the same disks. A fresh service shares the disk and the
         stable store's backing disks. *)
      let svc2 =
        Block.create ~disk
          ?stable:None (* re-created below via attach path on same disk *)
          ()
      in
      ignore svc2;
      (* The same disk images, a genuinely fresh server. *)
      let svc3 = Block.create ~disk () in
      Block.attach svc3;
      check int "free fragments restored" free_before (Block.free_fragments svc3);
      check bool "allocation survives" false (Block.is_free svc3 ~pos:a ~fragments:7);
      let back = Block.get_block svc3 ~pos:a ~fragments:7 in
      check bool "data survives" true (Bytes.equal back (frag_payload ~tag:8 7));
      check bool "extent array consistent" true (Block.extent_array_consistent svc3))

let test_attach_unformatted_disk_raises () =
  run_in_sim (fun sim ->
      let svc, _ = make_service ~with_stable:false sim in
      try
        Block.attach svc;
        Alcotest.fail "expected Not_formatted"
      with Block.Not_formatted _ -> ())

let test_attach_uses_stable_when_main_bitmap_decays () =
  run_in_sim (fun sim ->
      let disk = Disk.create ~name:"main" sim (Disk.geometry_with_capacity (mib 4)) in
      let g = Disk.geometry_with_capacity (mib 8) in
      let st = (Disk.create ~name:"st0" sim g, Disk.create ~name:"st1" sim g) in
      let svc = Block.create ~disk ~stable:st () in
      Block.format svc;
      let a = Block.allocate svc ~fragments:3 in
      Block.sync svc;
      (* Decay the main-disk bitmap region (fragment 1 = sectors 4..7). *)
      Disk.inject_media_fault disk ~sector:4 ~count:4;
      let svc2 = Block.create ~disk ~stable:st () in
      Block.attach svc2;
      check bool "bitmap restored from stable" false
        (Block.is_free svc2 ~pos:a ~fragments:3))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters_move () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~pos (frag_payload 1);
      ignore (Block.get_block svc ~pos ~fragments:1);
      let c = Block.stats svc in
      check bool "allocs counted" true (Counter.get c "allocs" >= 1);
      check bool "refs counted" true (Counter.get c "foreground_refs" >= 1);
      Block.reset_stats svc;
      check int "reset" 0 (Counter.get (Block.stats svc) "allocs"))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random alloc/free churn keeps the allocator's invariants: extent
   array consistent with bitmap, free count conserved, no overlap. *)
let allocator_churn_prop =
  QCheck.Test.make ~name:"allocator churn preserves invariants" ~count:25
    QCheck.(pair small_int (list (pair bool (int_range 1 9))))
    (fun (seed, ops) ->
      with_service ~with_stable:false
        ~config:
          {
            Rhodos_block.Block_service.track_cache_tracks = 0;
            prefetch = false;
            bitmap_write_through = false;
          }
        (fun _ svc _ ->
          let rng = Rhodos_util.Rng.create seed in
          let live = ref [] in
          let total = Block.data_fragments svc in
          List.iter
            (fun (do_alloc, n) ->
              if do_alloc || !live = [] then (
                match Block.allocate svc ~fragments:n with
                | pos ->
                  (* Freshly allocated space must not overlap a live run. *)
                  List.iter
                    (fun (p, l) ->
                      if pos < p + l && p < pos + n then
                        QCheck.Test.fail_report "overlap")
                    !live;
                  live := (pos, n) :: !live
                | exception Block.No_space _ -> ())
              else
                let idx = Rhodos_util.Rng.int rng (List.length !live) in
                let pos, l = List.nth !live idx in
                Block.free svc ~pos ~fragments:l;
                live := List.filteri (fun i _ -> i <> idx) !live)
            ops;
          let live_frags = List.fold_left (fun acc (_, l) -> acc + l) 0 !live in
          Block.free_fragments svc = total - live_frags
          && Block.extent_array_consistent svc))

let put_get_prop =
  QCheck.Test.make ~name:"put/get roundtrip through cache and disk" ~count:20
    QCheck.(pair (int_range 1 12) bool)
    (fun (fragments, flush) ->
      with_service (fun _ svc _ ->
          let pos = Block.allocate svc ~fragments in
          let data = frag_payload ~tag:fragments fragments in
          Block.put_block svc ~pos data;
          if flush then Block.flush_block svc ~pos ~fragments;
          Bytes.equal data (Block.get_block svc ~pos ~fragments)))

let () =
  Alcotest.run "rhodos_block"
    [
      ( "format",
        [
          Alcotest.test_case "unit sizes" `Quick test_unit_sizes;
          Alcotest.test_case "metadata reserved" `Quick test_format_reserves_metadata;
          Alcotest.test_case "unformatted raises" `Quick test_unformatted_raises;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "allocate/free" `Quick test_allocate_and_free;
          Alcotest.test_case "block = 4 fragments" `Quick
            test_allocate_block_is_four_fragments;
          Alcotest.test_case "disjoint" `Quick test_allocations_disjoint;
          Alcotest.test_case "no space" `Quick test_no_space;
          Alcotest.test_case "no contiguous space" `Quick test_no_space_fragmented;
          Alcotest.test_case "exact fit preferred" `Quick test_exact_fit_preferred;
          Alcotest.test_case "double free" `Quick test_double_free_rejected;
          Alcotest.test_case "metadata protected" `Quick test_metadata_protected;
          Alcotest.test_case "coalescing" `Quick test_coalescing;
          Alcotest.test_case "allocate near" `Quick test_allocate_near;
          Alcotest.test_case "allocate_at" `Quick test_allocate_at;
          Alcotest.test_case "allocate_at extension" `Quick
            test_allocate_at_enables_extension;
          Alcotest.test_case "rebuild = incremental" `Quick
            test_rebuild_matches_incremental;
          QCheck_alcotest.to_alcotest allocator_churn_prop;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "roundtrip" `Quick test_put_get_roundtrip;
          Alcotest.test_case "one reference" `Quick test_contiguous_read_one_reference;
          Alcotest.test_case "track cache hit" `Quick test_track_cache_hit;
          Alcotest.test_case "prefetch neighbours" `Quick
            test_prefetch_serves_track_neighbours;
          Alcotest.test_case "flush" `Quick test_flush_forces_disk_read;
          Alcotest.test_case "cache coherent with writes" `Quick test_cache_sees_writes;
          QCheck_alcotest.to_alcotest put_get_prop;
        ] );
      ( "in-flight",
        [
          Alcotest.test_case "concurrent misses share one read" `Quick
            test_concurrent_misses_share_one_read;
          Alcotest.test_case "media fault: waiters get their bytes" `Quick
            test_media_fault_waiters_get_their_bytes;
          Alcotest.test_case "killed reader strands no waiter" `Quick
            test_killed_reader_strands_no_waiter;
          Alcotest.test_case "read racing a write caches no stale track" `Quick
            test_read_racing_write_caches_no_stale_track;
          Alcotest.test_case "reordered read caches no stale track" `Quick
            test_reordered_read_caches_no_stale_track;
        ] );
      ( "stable",
        [
          Alcotest.test_case "stable only" `Quick test_stable_only_write;
          Alcotest.test_case "original and stable" `Quick test_original_and_stable_write;
          Alcotest.test_case "return early + sync" `Quick
            test_return_early_completes_by_sync;
          Alcotest.test_case "return early faster" `Quick test_return_early_is_faster;
          Alcotest.test_case "no mirror rejected" `Quick
            test_stable_without_mirror_rejected;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "attach restores bitmap" `Quick test_attach_restores_bitmap;
          Alcotest.test_case "attach unformatted" `Quick
            test_attach_unformatted_disk_raises;
          Alcotest.test_case "attach prefers stable bitmap" `Quick
            test_attach_uses_stable_when_main_bitmap_decays;
        ] );
      ("counters", [ Alcotest.test_case "move and reset" `Quick test_counters_move ]);
    ]
