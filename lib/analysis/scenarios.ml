module Sim = Rhodos_sim.Sim
module Lm = Rhodos_txn.Lock_manager
module Fa = Rhodos_agent.File_agent
module Sc = Rhodos_agent.Service_conn
module Cache = Rhodos_cache.Buffer_cache
module Fit = Rhodos_file.Fit

type deadlock_outcome = {
  true_deadlocks : int;
  false_aborts : int;
  cycle : int list option;
  aborted : int list;
}

(* A lock manager whose suspect callback aborts the transaction the
   way the transaction service does: cancel its waits, release its
   grants, remember who died. *)
let lm_with_aborts ?(config = Lm.default_config) sim =
  let aborted = ref [] in
  let holder = ref None in
  let on_suspect ~txn =
    match !holder with
    | None -> ()
    | Some lm ->
      if not (List.mem txn !aborted) then begin
        aborted := txn :: !aborted;
        Lm.cancel_waits lm ~txn;
        Lm.release_all lm ~txn
      end
  in
  let lm = Lm.create ~config ~sim ~on_suspect () in
  holder := Some lm;
  (lm, aborted)

let outcome det aborted =
  {
    true_deadlocks = Deadlock_detector.true_deadlocks det;
    false_aborts = Deadlock_detector.false_aborts det;
    cycle = Deadlock_detector.last_cycle det;
    aborted = List.sort compare !aborted;
  }

(* T1 takes A, T2 takes B; then T1 wants B and T2 wants A. Neither
   can proceed: a genuine 2-cycle. The section 6.4 lease break fires
   on the contested locks, the detector sees the cycle, and the abort
   of either victim unblocks the other. *)
let two_cycle () =
  let sim = Sim.create ~track:true () in
  let lm, aborted = lm_with_aborts sim in
  let det = Deadlock_detector.attach lm in
  let a = Lm.File_item 1 and b = Lm.File_item 2 in
  ignore
    (Sim.spawn ~name:"T1" sim (fun () ->
         Lm.acquire lm ~txn:1 a Lm.Iwrite;
         (* static-ok: leak-on-raise seeded deadlock model: holding the grant across the sleep is the contention under study; the detector's abort path releases via release_all *)
         Sim.sleep sim 10.;
         (match Lm.acquire lm ~txn:1 b Lm.Iwrite with
         | () -> ()
         | exception Lm.Wait_cancelled _ -> ());
         Lm.release_all lm ~txn:1));
  ignore
    (Sim.spawn ~name:"T2" sim (fun () ->
         Lm.acquire lm ~txn:2 b Lm.Iwrite;
         Sim.sleep sim 10.;
         (match Lm.acquire lm ~txn:2 a Lm.Iwrite with
         | () -> ()
         | exception Lm.Wait_cancelled _ -> ());
         Lm.release_all lm ~txn:2));
  Sim.run sim;
  outcome det aborted

(* T1 holds the lock and simply runs long — it waits for nobody. T2
   queues behind it, the lease break suspects T1, and the detector
   finds no cycle: one of the paper's admitted false aborts of a
   long-running transaction. *)
let long_transaction_false_abort () =
  let sim = Sim.create ~track:true () in
  let lm, aborted = lm_with_aborts sim in
  let det = Deadlock_detector.attach lm in
  let a = Lm.File_item 1 in
  ignore
    (Sim.spawn ~name:"long-T1" sim (fun () ->
         Lm.acquire lm ~txn:1 a Lm.Iwrite;
         (* Far longer than the LT lease; the transaction is healthy,
            just slow. *)
         (* static-ok: leak-on-raise seeded lease-break model: the long hold across the sleep is the false-abort trigger under study; release_all runs on the survival path *)
         Sim.sleep sim (Lm.default_config.Lm.lt_ms *. 20.);
         Lm.release_all lm ~txn:1));
  ignore
    (Sim.spawn_at ~name:"T2" sim ~at:10. (fun () ->
         (match Lm.acquire lm ~txn:2 a Lm.Iwrite with
         | () -> ()
         | exception Lm.Wait_cancelled _ -> ());
         Lm.release_all lm ~txn:2));
  Sim.run sim;
  outcome det aborted

(* ------------------------------------------------------------------ *)
(* Explorer seed scenarios                                             *)
(* ------------------------------------------------------------------ *)

exception Injected_crash

let invariant name check = { Explore.inv_name = name; inv_check = check }

(* A fake remote file service behind a [Service_conn.fs_conn]: a
   hashtable of byte buffers, every call costing one simulated RPC.
   The sleeps are what create same-time ready sets — the choice points
   the explorer drives. *)
let fake_fs_server sim =
  let store : (int, bytes ref) Hashtbl.t = Hashtbl.create 8 in
  let names : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let next = ref 0 in
  let pwrites = ref 0 in
  let crash_at = ref None in
  let rpc () = Sim.sleep sim 1.0 in
  let contents id =
    match Hashtbl.find_opt store id with
    | Some r -> r
    | None ->
      let r = ref Bytes.empty in
      Hashtbl.replace store id r;
      r
  in
  let ensure_len r len =
    if Bytes.length !r < len then begin
      let nb = Bytes.make len '\000' in
      Bytes.blit !r 0 nb 0 (Bytes.length !r);
      r := nb
    end
  in
  let fit_of id =
    let f = Fit.fresh ~now:0. Fit.Basic Fit.File_level in
    f.Fit.size <- Bytes.length !(contents id);
    f
  in
  let conn =
    {
      Sc.resolve =
        (fun an ->
          rpc ();
          let path =
            match List.assoc_opt "path" an with
            | Some p -> p
            | None -> invalid_arg "fake_fs_server: no path attribute"
          in
          match Hashtbl.find_opt names path with
          | Some id -> id
          | None -> invalid_arg ("fake_fs_server: unbound " ^ path));
      bind =
        (fun ~path ~file_id ->
          rpc ();
          Hashtbl.replace names path file_id);
      unbind =
        (fun path ->
          rpc ();
          Hashtbl.remove names path);
      mkdir = (fun _ -> rpc ());
      create_file =
        (fun () ->
          rpc ();
          let id = !next in
          incr next;
          Hashtbl.replace store id (ref Bytes.empty);
          id);
      open_file =
        (fun id ->
          rpc ();
          fit_of id);
      close_file = (fun _ -> rpc ());
      delete_file =
        (fun id ->
          rpc ();
          Hashtbl.remove store id);
      pread =
        (fun id ~off ~len ->
          rpc ();
          let r = contents id in
          let n = min len (max 0 (Bytes.length !r - off)) in
          if n <= 0 then Bytes.empty else Bytes.sub !r off n);
      pread_stream = None;
      pwrite =
        (fun id ~off ~data ->
          rpc ();
          (match !crash_at with
          | Some k when !pwrites = k -> raise Injected_crash
          | Some _ | None -> ());
          incr pwrites;
          let r = contents id in
          ensure_len r (off + Bytes.length data);
          Bytes.blit data 0 !r off (Bytes.length data));
      get_attributes =
        (fun id ->
          rpc ();
          fit_of id);
      truncate =
        (fun id ~size ->
          rpc ();
          let r = contents id in
          if Bytes.length !r > size then r := Bytes.sub !r 0 size);
    }
  in
  (conn, store, names, next, pwrites, crash_at)

let bs = Fa.block_size

(* PR-3 data-path race, on the real file agent: a sequential reader
   whose read-ahead prefetches the very blocks a concurrent writer is
   overwriting. Coherence demands that after a final flush the server
   holds the writer's bytes and the agent's cache agrees — the lost
   update the fix in [pwrite_file_impl] (deregister in-flight fetches)
   prevents. *)
let agent_read_write_race () =
  let setup sim =
    let conn, store, names, next, _pwrites, _crash_at = fake_fs_server sim in
    (* Pre-seed one 4-block file, bypassing the agent. *)
    let seed = Bytes.init (4 * bs) (fun i -> Char.chr (65 + (i / bs))) in
    Hashtbl.replace store 0 (ref (Bytes.copy seed));
    Hashtbl.replace names "f" 0;
    next := 1;
    let cfg =
      {
        Fa.cache_blocks = 8;
        flush_interval_ms = 0.;
        name_cache_entries = 8;
        fetch_window = 2;
        max_fetch_blocks = 4;
        read_ahead_blocks = 4;
      }
    in
    let sz = Sanitizer.create sim in
    let agent = Fa.create ~config:cfg ~sim ~conn () in
    Sanitizer.attach_cache sz ~name:"agent-pool"
      ~key_to_string:(fun (f, b) -> Printf.sprintf "%d.%d" f b)
      (Fa.buffer_pool agent);
    let wdata = Bytes.make 256 'W' in
    let woff = (2 * bs) + 512 in
    let expected = Bytes.copy seed in
    Bytes.blit wdata 0 expected woff (Bytes.length wdata);
    ignore
      (Sim.spawn ~name:"reader" sim (fun () ->
           let d = Fa.open_file agent ~path:"f" in
           for _ = 1 to 4 do
             ignore (Fa.read agent d bs)
           done));
    ignore
      (Sim.spawn ~name:"writer" sim (fun () ->
           let d = Fa.open_file agent ~path:"f" in
           Fa.pwrite agent d ~off:woff ~data:wdata));
    let server_check = ref None in
    let agent_check = ref None in
    let validated = ref false in
    ignore
      (Sim.spawn_at ~name:"validator" sim ~at:200. (fun () ->
           Fa.flush agent;
           validated := true;
           let got = !(Hashtbl.find store 0) in
           if not (Bytes.equal got expected) then
             server_check :=
               Some
                 (Printf.sprintf
                    "server bytes diverge after flush (len %d vs %d)"
                    (Bytes.length got) (Bytes.length expected));
           let d = Fa.open_file agent ~path:"f" in
           let view = Fa.pread agent d ~off:woff ~len:(Bytes.length wdata) in
           if not (Bytes.equal view wdata) then
             agent_check := Some "agent cache lost the write"));
    {
      Explore.invariants =
        [
          invariant "validator-ran" (fun () ->
              if !validated then None else Some "validator never ran");
          invariant "cache-coherence" (fun () -> !server_check);
          invariant "no-lost-update" (fun () -> !agent_check);
        ];
      sanitizer = Some sz;
      observe =
        (fun () ->
          let got = !(Hashtbl.find store 0) in
          Printf.sprintf "server=%s agent_ok=%b" (Digest.to_hex (Digest.bytes got))
            (!agent_check = None));
    }
  in
  {
    Explore.sc_name = "agent-read-write-race";
    sc_descr =
      "sequential reader with read-ahead racing a writer on the same \
       blocks; flush must persist the writer's bytes";
    sc_until = None;
    sc_setup = setup;
  }

(* Two transactions co-holding a read-only lock both upgrade to Iwrite:
   an upgrade deadlock in every schedule. The section 6.4 lease break
   must abort at least one; Iwrite exclusivity (Table 1's IW column)
   must hold in every interleaving; all tables drain. *)
let txn_lock_upgrade () =
  let setup sim =
    let sz = Sanitizer.create sim in
    let lm, aborted = lm_with_aborts sim in
    Sanitizer.attach_lock_manager sz lm;
    let det = Deadlock_detector.attach lm in
    let item = Lm.File_item 7 in
    let iw_holder = ref None in
    let mutex_violation = ref None in
    let outcomes = ref [] in
    let proc txn =
      ignore
        (Sim.spawn ~name:(Printf.sprintf "T%d" txn) sim (fun () ->
             match
               Lm.acquire lm ~txn item Lm.Read_only;
               (* static-ok: leak-on-raise seeded upgrade-deadlock model: both readers hold across the sleep on purpose so the RO->IW conversions collide *)
               Sim.sleep sim 10.;
               Lm.acquire lm ~txn item Lm.Iwrite
             with
             | () ->
               (match !iw_holder with
               | Some other ->
                 mutex_violation :=
                   Some
                     (Printf.sprintf
                        "T%d granted Iwrite while T%d still holds it" txn
                        other)
               | None -> ());
               iw_holder := Some txn;
               Sim.sleep sim 5.;
               iw_holder := None;
               Lm.release_all lm ~txn;
               outcomes := (txn, `Upgraded) :: !outcomes
             | exception Lm.Wait_cancelled _ ->
               outcomes := (txn, `Aborted) :: !outcomes))
    in
    proc 1;
    proc 2;
    {
      Explore.invariants =
        [
          invariant "iwrite-exclusive" (fun () -> !mutex_violation);
          invariant "both-terminate" (fun () ->
              if List.length !outcomes = 2 then None
              else Some (Printf.sprintf "%d outcomes" (List.length !outcomes)));
          invariant "lease-break-fired" (fun () ->
              if !aborted <> [] then None
              else Some "upgrade deadlock never broken");
          invariant "true-deadlock-classified" (fun () ->
              if Deadlock_detector.true_deadlocks det >= 1 then None
              else Some "lease break not classified as a true deadlock");
          invariant "tables-drained" (fun () ->
              let w = Lm.waiter_count lm in
              let h1 = Lm.held_count lm ~txn:1
              and h2 = Lm.held_count lm ~txn:2 in
              if w = 0 && h1 = 0 && h2 = 0 then None
              else Some (Printf.sprintf "waiters=%d held=%d/%d" w h1 h2));
          invariant "two-phase" (fun () ->
              let v =
                Rhodos_util.Stats.Counter.get (Lm.stats lm) "2pl_violations"
              in
              if v = 0 then None
              else Some (Printf.sprintf "%d 2PL violations" v));
        ];
      sanitizer = Some sz;
      observe =
        (fun () ->
          let show (txn, o) =
            Printf.sprintf "T%d:%s" txn
              (match o with `Upgraded -> "upgraded" | `Aborted -> "aborted")
          in
          String.concat " " (List.map show (List.sort compare !outcomes)));
    }
  in
  {
    Explore.sc_name = "txn-lock-upgrade";
    sc_descr =
      "two transactions upgrade a shared read-only lock to Iwrite: the \
       lease break must resolve the upgrade deadlock, Iwrite staying \
       exclusive in every interleaving";
    sc_until = None;
    sc_setup = setup;
  }

(* A delayed-write cache crashing mid-batch while a mutator races the
   flusher. Per-entry written-thunk accounting must make the story
   add up in every interleaving: each key's latest bytes are durable,
   or the key is counted in the crash's dirty set, or it is the single
   entry whose thunk ran but whose bytes never went out. *)
let cache_midbatch_crash () =
  let setup sim =
    let sz = Sanitizer.create sim in
    let persisted : (int, bytes) Hashtbl.t = Hashtbl.create 8 in
    let latest : (int, bytes) Hashtbl.t = Hashtbl.create 8 in
    let interrupted = ref None in
    let dirty_at_crash = ref [] in
    let lost_count = ref (-1) in
    let crashed = ref false in
    let cache = ref None in
    let the_cache () =
      match !cache with Some c -> c | None -> assert false
    in
    let writeback_batch entries =
      List.iteri
        (fun idx (k, data, written) ->
          Sim.sleep sim 0.5;
          written ();
          if idx = 2 then begin
            interrupted := Some k;
            raise Injected_crash
          end;
          Hashtbl.replace persisted k (Bytes.copy data))
        entries
    in
    let c =
      Cache.create ~name:"midbatch" ~writeback_batch ~sim ~capacity:16
        ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
        ~writeback:(fun k data -> Hashtbl.replace persisted k (Bytes.copy data))
        ()
    in
    cache := Some c;
    Sanitizer.attach_cache sz ~name:"midbatch" ~key_to_string:string_of_int c;
    let put k tag =
      let data = Bytes.make 8 tag in
      Hashtbl.replace latest k (Bytes.copy data);
      Cache.write (the_cache ()) k data
    in
    ignore
      (Sim.spawn ~name:"writer" sim (fun () ->
           for k = 0 to 3 do
             put k 'a'
           done));
    ignore
      (Sim.spawn_at ~name:"flusher" sim ~at:1. (fun () ->
           (try Cache.flush (the_cache ()) with Injected_crash -> ());
           dirty_at_crash := Cache.dirty_keys (the_cache ());
           lost_count := Cache.crash (the_cache ());
           crashed := true));
    ignore
      (Sim.spawn_at ~name:"mutator" sim ~at:1.5 (fun () ->
           (* Lands mid-batch: either re-dirties key 0 after its
              writeback or replaces its bytes before they go out (the
              thunk's identity check then keeps it dirty). *)
           put 0 'b'));
    {
      Explore.invariants =
        [
          invariant "crash-ran" (fun () ->
              if !crashed then None else Some "flusher never crashed the pool");
          invariant "lost-matches-dirty" (fun () ->
              let n = List.length !dirty_at_crash in
              if !lost_count = n then None
              else
                Some
                  (Printf.sprintf "crash counted %d lost, dirty set had %d"
                     !lost_count n));
          invariant "accounted-or-durable" (fun () ->
              let bad =
                Hashtbl.fold
                  (fun k data acc ->
                    let durable =
                      match Hashtbl.find_opt persisted k with
                      | Some p -> Bytes.equal p data
                      | None -> false
                    in
                    if
                      durable
                      || List.mem k !dirty_at_crash
                      || !interrupted = Some k
                    then acc
                    else k :: acc)
                  latest []
              in
              match List.sort compare bad with
              | [] -> None
              | ks ->
                Some
                  (Printf.sprintf "keys silently lost: %s"
                     (String.concat ","
                        (List.map string_of_int ks))))
        ];
      sanitizer = Some sz;
      observe =
        (fun () ->
          Printf.sprintf "lost=%d dirty=[%s] interrupted=%s" !lost_count
            (String.concat ","
               (List.map string_of_int !dirty_at_crash))
            (match !interrupted with
            | Some k -> string_of_int k
            | None -> "none"));
    }
  in
  {
    Explore.sc_name = "cache-midbatch-crash";
    sc_descr =
      "delayed-write pool crashes mid-batch while a mutator races the \
       flusher: written-thunk accounting must cover every key in every \
       interleaving";
    sc_until = None;
    sc_setup = setup;
  }

(* A deliberately re-introducible model of the PR-3 lost update: a
   block with a prefetch in flight takes a local write; the fetch
   completion then installs the stale server bytes as clean, so the
   flush persists nothing. [fixed] models the shipped fix — the write
   deregisters the in-flight fetch — and must survive exhaustive
   exploration; the unfixed variant is the explorer's negative
   control, caught only under the schedule that runs the write before
   the fetch completion. *)
let lost_update_model ~fixed () =
  let setup sim =
    let server = ref "old" in
    let cache = ref None in
    (* static-ok: static-race seeded lost-update model: the unlocked cross-sleep window on this flag is the bug under study; the explorer must be able to reach it *)
    let inflight = ref false in
    ignore
      (Sim.spawn ~name:"prefetch" sim (fun () ->
           inflight := true;
           Sim.sleep sim 1.0;
           let data = !server in
           if !inflight then begin
             inflight := false;
             (* insert_clean: replaces whatever is there *)
             cache := Some (data, false)
           end));
    ignore
      (Sim.spawn ~name:"writer" sim (fun () ->
           Sim.sleep sim 1.0;
           if fixed then inflight := false;
           cache := Some ("new", true)));
    ignore
      (Sim.spawn_at ~name:"flusher" sim ~at:10. (fun () ->
           match !cache with
           | Some (v, true) ->
             server := v;
             cache := Some (v, false)
           | Some (_, false) | None -> ()));
    {
      Explore.invariants =
        [
          invariant "no-lost-update" (fun () ->
              if !server = "new" then None
              else
                Some
                  (Printf.sprintf "server still has %S after the flush"
                     !server));
        ];
      sanitizer = None;
      observe =
        (fun () ->
          Printf.sprintf "server=%s cache=%s" !server
            (match !cache with
            | Some (v, d) -> Printf.sprintf "(%s,%b)" v d
            | None -> "empty"));
    }
  in
  {
    Explore.sc_name =
      (if fixed then "lost-update-fixed" else "lost-update-bug");
    sc_descr =
      "client-cache prefetch racing a local write (model of the PR-3 \
       data-path bug)";
    sc_until = None;
    sc_setup = setup;
  }

(* The sanitizer's pinned negative control: two workers each do a
   read-modify-write of one shared [Data] cell across a sleep. With no
   lock the RMW windows overlap under {e every} schedule — FIFO
   included: the sanitizer reports a bad {e step} (unordered
   conflicting accesses), not just a bad final state — and both the
   happens-before and the lockset pass must catch it. The [locked]
   variant brackets the RMW in an Iwrite lock; the grant/release
   clock edges order the accesses and the common lock fills the
   candidate lockset, so it must stay clean. *)
let seeded_race_model ~locked () =
  let setup sim =
    let sz = Sanitizer.create sim in
    let lm = Lm.create ~sim ~on_suspect:(fun ~txn:_ -> ()) () in
    Sanitizer.attach_lock_manager sz lm;
    (* static-ok: unsynchronized-cell-write seeded race negative control: the static pass must flag this cell (the differential test asserts it pre-suppression) just as the dynamic sanitizer does; only the sweep is quieted *)
    let counter = Sim.Cell.create ~name:"model:shared-counter" sim 0 in
    let item = Lm.File_item 1 in
    let worker txn name =
      ignore
        (Sim.spawn ~name sim (fun () ->
             if locked then Lm.acquire lm ~txn item Lm.Iwrite;
             let v = Sim.Cell.get counter in
             (* static-ok: leak-on-raise seeded race model: the read-modify-write window across the sleep is the race being demonstrated; release_all follows on every survival path *)
             Sim.sleep sim 1.0;
             Sim.Cell.set counter (v + 1);
             if locked then Lm.release_all lm ~txn))
    in
    worker 1 "worker-a";
    worker 2 "worker-b";
    {
      Explore.invariants =
        (if locked then
           [
             invariant "no-lost-increment" (fun () ->
                 (* [peek]: an after-the-run observer read must not
                    register as an access *)
                 let v = Sim.Cell.peek counter in
                 if v = 2 then None
                 else Some (Printf.sprintf "counter=%d, expected 2" v));
           ]
         else [])
      ;
      sanitizer = Some sz;
      observe = (fun () -> Printf.sprintf "counter=%d" (Sim.Cell.peek counter));
    }
  in
  {
    Explore.sc_name = (if locked then "seeded-race-locked" else "seeded-race-bug");
    sc_descr =
      (if locked then
         "the seeded RMW race with the Iwrite lock held across the window: \
          the sanitizer must stay silent"
       else
         "two lock-free RMWs of a shared cell across a sleep: both sanitizer \
          passes must report it under every schedule");
    sc_until = None;
    sc_setup = setup;
  }

let explorer_scenarios () =
  [
    ( "agent-read-write-race",
      { Explore.max_depth = 3; max_runs = 600; random_walks = 24;
        walk_seed = 0x5eed },
      agent_read_write_race () );
    ( "txn-lock-upgrade",
      { Explore.max_depth = 6; max_runs = 600; random_walks = 16;
        walk_seed = 0x5eed },
      txn_lock_upgrade () );
    ( "cache-midbatch-crash",
      { Explore.max_depth = 8; max_runs = 400; random_walks = 16;
        walk_seed = 0x5eed },
      cache_midbatch_crash () );
  ]

let find_scenario name =
  let all =
    List.map (fun (n, _, sc) -> (n, sc)) (explorer_scenarios ())
    @ [
        ("lost-update-fixed", lost_update_model ~fixed:true ());
        ("lost-update-bug", lost_update_model ~fixed:false ());
        ("seeded-race-bug", seeded_race_model ~locked:false ());
        ("seeded-race-locked", seeded_race_model ~locked:true ());
      ]
  in
  List.assoc_opt name all

(* ------------------------------------------------------------------ *)
(* Crash-point sweeps                                                  *)
(* ------------------------------------------------------------------ *)

(* Cache-level: [m] dirty buffers, a per-entry batch writer, a crash
   before entry [j]: exactly the [m - j] unwritten entries must be
   counted lost. *)
let cache_crash_sweep () =
  let m = 6 in
  let check j =
    let viols = ref [] in
    let sim = Sim.create ~track:true () in
    let persisted = ref 0 in
    let writeback_batch entries =
      List.iteri
        (fun idx (_k, _data, written) ->
          if idx = j then raise Injected_crash;
          Sim.sleep sim 0.5;
          written ();
          incr persisted)
        entries
    in
    let c =
      Cache.create ~name:"sweep" ~writeback_batch ~sim ~capacity:16
        ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
        ~writeback:(fun _ _ -> incr persisted)
        ()
    in
    ignore
      (Sim.spawn ~name:"driver" sim (fun () ->
           for k = 0 to m - 1 do
             Cache.write c k (Bytes.make 8 'x')
           done;
           (try Cache.flush c with Injected_crash -> ());
           let lost = Cache.crash c in
           if lost <> m - j then
             viols :=
               ( "per-entry-accounting",
                 Printf.sprintf
                   "crash before entry %d: %d lost, expected %d" j lost
                   (m - j) )
               :: !viols;
           if !persisted <> j then
             viols :=
               ( "persisted-count",
                 Printf.sprintf "%d entries persisted, expected %d"
                   !persisted j )
               :: !viols));
    Sim.run sim;
    List.rev !viols
  in
  Explore.crash_sweep ~points:(m + 1) ~check

(* Agent-level: dirty blocks coalescing into three range pwrites
   ([a:0-1], [a:3], [b:0]); a crash at pwrite call [k] must leave the
   runs before [k] durable with the written bytes, lose at most the
   single interrupted run uncounted (its thunks ran), and count every
   later block via [crash]. *)
let agent_crash_sweep () =
  (* run sizes in flush order, per the dirty pattern built below *)
  let run_blocks = [| 2; 1; 1 |] in
  let total_blocks = Array.fold_left ( + ) 0 run_blocks in
  let check k =
    let viols = ref [] in
    let sim = Sim.create ~track:true () in
    let conn, store, _names, _next, _pwrites, crash_at = fake_fs_server sim in
    let cfg =
      {
        Fa.cache_blocks = 16;
        flush_interval_ms = 0.;
        name_cache_entries = 8;
        fetch_window = 1;
        max_fetch_blocks = 8;
        read_ahead_blocks = 0;
      }
    in
    let agent = Fa.create ~config:cfg ~sim ~conn () in
    ignore
      (Sim.spawn ~name:"driver" sim (fun () ->
           let da = Fa.create_file agent ~path:"a" in
           let db = Fa.create_file agent ~path:"b" in
           let block tag = Bytes.make bs tag in
           (* file a: blocks 0,1 contiguous, then 3 (hole at 2) *)
           Fa.pwrite agent da ~off:0 ~data:(block 'p');
           Fa.pwrite agent da ~off:bs ~data:(block 'q');
           Fa.pwrite agent da ~off:(3 * bs) ~data:(block 'r');
           Fa.pwrite agent db ~off:0 ~data:(block 's');
           crash_at := Some k;
           (try Fa.flush agent with Injected_crash -> ());
           crash_at := None;
           let lost = Fa.crash agent in
           let durable_blocks =
             let sub = ref 0 in
             for i = 0 to min k (Array.length run_blocks) - 1 do
               sub := !sub + run_blocks.(i)
             done;
             !sub
           in
           let interrupted_blocks =
             if k < Array.length run_blocks then run_blocks.(k) else 0
           in
           let expected_lost =
             total_blocks - durable_blocks - interrupted_blocks
           in
           if lost <> expected_lost then
             viols :=
               ( "written-thunk-accounting",
                 Printf.sprintf
                   "crash at pwrite %d: %d lost, expected %d (durable %d, \
                    interrupted %d)"
                   k lost expected_lost durable_blocks interrupted_blocks )
               :: !viols;
           (* durable runs must carry the written bytes (file ids are
              allocation-ordered: "a" = 0, "b" = 1) *)
           let expect_byte file off tag =
             match Hashtbl.find_opt store file with
             | None ->
               viols :=
                 ("durable-bytes", Printf.sprintf "file %d missing" file)
                 :: !viols
             | Some r ->
               if Bytes.length !r <= off || Bytes.get !r off <> tag then
                 viols :=
                   ( "durable-bytes",
                     Printf.sprintf "file %d byte %d not %c" file off tag )
                   :: !viols
           in
           if k >= 1 then begin
             expect_byte 0 0 'p';
             expect_byte 0 bs 'q'
           end;
           if k >= 2 then expect_byte 0 (3 * bs) 'r';
           if k >= 3 then expect_byte 1 0 's';
           ignore da;
           ignore db));
    Sim.run sim;
    List.rev !viols
  in
  Explore.crash_sweep ~points:(Array.length run_blocks + 1) ~check
