(* One round of a file-stack workload on a fresh cluster, and the
   per-layer metrics its traced variant reads from what the layers
   already publish: spans (Trace.collect), counter tables
   (Metrics.snapshot), Disk.stats, lock-manager events and the
   dispatch-loop profiler. *)

open Measure
module Cluster = Rhodos.Cluster
module Trace = Rhodos_obs.Trace
module Metrics = Rhodos_obs.Metrics
module Disk = Rhodos_disk.Disk
module Lm = Rhodos_txn.Lock_manager
module Txn = Rhodos_txn.Txn_service

(* The benchmark's own span around one call into the public API: the
   root of every request tree in a traced round, free otherwise. *)
let span t op f = Trace.with_span (Cluster.tracer t) ~service:"bench" ~op f

(* Counter totals over every node, by metric name. *)
let totals t =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (s : Metrics.sample) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt h s.Metrics.name) in
      Hashtbl.replace h s.Metrics.name (prev +. s.Metrics.value))
    (Metrics.snapshot (Cluster.metrics t));
  h

(* Sum of the deltas of every counter named [prefix ... suffix]. *)
let delta ~before ~after prefix suffix =
  Hashtbl.fold
    (fun name v acc ->
      if String.starts_with ~prefix name && String.ends_with ~suffix name then
        acc +. v -. Option.value ~default:0. (Hashtbl.find_opt before name)
      else acc)
    after 0.

(* Self time of each span: its duration minus the union of its
   children's intervals clipped to it. Summed by service, sim ms. *)
let self_ms spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      Option.iter
        (fun p -> Hashtbl.add children p (s.Trace.start_ms, s.Trace.end_ms))
        s.Trace.parent)
    spans;
  let by_service = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let lo = s.Trace.start_ms and hi = s.Trace.end_ms in
      let kids =
        List.sort compare
          (List.filter_map
             (fun (a, b) ->
               let a = Float.max a lo and b = Float.min b hi in
               if b > a then Some (a, b) else None)
             (Hashtbl.find_all children s.Trace.id))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., lo) kids
      in
      let prev = Option.value ~default:0. (Hashtbl.find_opt by_service s.Trace.service) in
      Hashtbl.replace by_service s.Trace.service (prev +. (hi -. lo -. covered)))
    spans;
  fun service -> Option.value ~default:0. (Hashtbl.find_opt by_service service)

(* Probes attached for a traced round's timed phase. *)
type probes = {
  collector : Trace.collector;
  prof : Profiler.t;
  lock_token : Rhodos_obs.Event_bus.token;
  waits : float list ref;  (* sim ms from Ev_blocked to grant or cancel *)
  blocks : int ref;
  before : (string, float) Hashtbl.t;
}

let lm t = Txn.lock_manager (Cluster.txn_service t)

let attach sim t =
  let blocked_at = Hashtbl.create 16 and waits = ref [] and blocks = ref 0 in
  let finish txn =
    Option.iter
      (fun t0 ->
        Hashtbl.remove blocked_at txn;
        waits := (Sim.now sim -. t0) :: !waits)
      (Hashtbl.find_opt blocked_at txn)
  in
  let on_lock = function
    | Lm.Ev_blocked { txn; _ } ->
      incr blocks;
      Hashtbl.replace blocked_at txn (Sim.now sim)
    | Lm.Ev_granted { txn; _ } | Lm.Ev_cancelled { txn } -> finish txn
    | Lm.Ev_released _ | Lm.Ev_suspected _ -> ()
  in
  let p =
    {
      collector = Trace.collect (Cluster.tracer t);
      prof = Profiler.create ();
      lock_token = Lm.subscribe (lm t) on_lock;
      waits;
      blocks;
      before = totals t;
    }
  in
  Profiler.arm p.prof sim;
  p

(* What a traced timed phase observed. *)
type obs = {
  spans : Trace.span list;
  d : string -> string -> float;  (* counter delta by name prefix and suffix *)
  disks : Disk.stats array;  (* the data disks, reset before the phase *)
  bytes_written : float;  (* to the data disks *)
  lock_waits : float array;  (* ascending *)
  lock_blocks : int;
  sim_ms : float;  (* length of the phase *)
}

let no_obs =
  {
    spans = [];
    d = (fun _ _ -> 0.);
    disks = [||];
    bytes_written = 0.;
    lock_waits = [||];
    lock_blocks = 0;
    sim_ms = 0.;
  }

let detach sim t p ~sim_ms =
  let report = Profiler.disarm p.prof sim in
  Trace.stop (Cluster.tracer t) p.collector;
  Lm.unsubscribe (lm t) p.lock_token;
  let after = totals t in
  let lock_waits = Array.of_list !(p.waits) in
  Array.sort Float.compare lock_waits;
  let disks = Cluster.disks t in
  let written d =
    float_of_int ((Disk.stats d).Disk.sectors_written * (Disk.geometry d).Disk.sector_bytes)
  in
  ( {
      spans = Trace.spans p.collector;
      d = delta ~before:p.before ~after;
      disks = Array.map Disk.stats disks;
      bytes_written = Array.fold_left (fun acc d -> acc +. written d) 0. disks;
      lock_waits;
      lock_blocks = !(p.blocks);
      sim_ms;
    },
    report )

(* The per-layer metrics of one traced round; [no_obs] gives every
   name with value 0, for a workload that bypasses the file stack. *)
let layers o ~(rec_ : Recorder.t) =
  let d = o.d and spans = o.spans in
  let self = self_ms spans in
  let per x = ratio x (float_of_int rec_.Recorder.attempted) in
  let l ?(base = "ops") unit_ value = { value; unit_; base } in
  let frac what a b = l ~base:(Printf.sprintf "%.0f/%.0f %s" a b what) "ratio" (ratio a b) in
  let hits prefix hit miss =
    let h = d prefix hit and m = d prefix miss in
    frac "lookups" h (h +. m)
  in
  let spans_of service op =
    List.filter
      (fun (s : Trace.span) -> s.Trace.service = service && (op = "" || s.Trace.op = op))
      spans
  in
  let commit_ms =
    Array.of_list
      (List.map
         (fun (s : Trace.span) -> s.Trace.end_ms -. s.Trace.start_ms)
         (spans_of "txn_service" "tend"))
  in
  Array.sort Float.compare commit_ms;
  let dsum f = Array.fold_left (fun acc s -> acc +. float_of_int (f s)) 0. o.disks in
  let refs = dsum (fun s -> s.Disk.references) in
  let busiest = Array.fold_left (fun acc s -> Float.max acc s.Disk.busy_ms) 0. o.disks in
  let queue_p99 =
    Array.fold_left
      (fun acc s -> Float.max acc (Rhodos_util.Stats.percentile s.Disk.queue_wait 99.))
      0. o.disks
  in
  let calls = d "net." ".rpc_calls" in
  let user = float_of_int rec_.Recorder.bytes_written in
  [
    ("agent.cache_hit_ratio", hits "agent.cache." ".hits" ".misses");
    ("agent.name_cache_hit_ratio", hits "agent.names." ".hits" ".misses");
    ( "agent.self_ms_per_op",
      l "sim_ms" (per (self "client" +. self "file_agent" +. self "txn_agent")) );
    ("agent.remote_reads_per_op", l "count" (per (d "agent." ".remote_reads")));
    ( "agent.prefetch_useful_ratio",
      frac "prefetched blocks" (d "agent." ".prefetch_hits") (d "agent." ".prefetch_issued") );
    ("net.rpcs_per_op", l "count" (per calls));
    ("net.retry_ratio", frac "rpc calls" (d "net." ".rpc_retries") calls);
    ("net.self_ms_per_op", l "sim_ms" (per (self "net")));
    ("naming.calls_per_op", l "count" (per (float_of_int (List.length (spans_of "naming" "")))));
    ("naming.self_ms_per_op", l "sim_ms" (per (self "naming")));
    ("file.cache_hit_ratio", hits "fs.cache." ".hits" ".misses");
    ("file.fit_stores_per_op", l "count" (per (d "fs." ".fit_stores")));
    ("file.self_ms_per_op", l "sim_ms" (per (self "file_service")));
    ("block.cache_hit_ratio", hits "block." ".cache_hits" ".cache_misses");
    ("block.stable_writes_per_op", l "count" (per (d "block." ".stable_writes")));
    ("block.self_ms_per_op", l "sim_ms" (per (self "block_service")));
    ("disk.refs_per_op", l "count" (per refs));
    ("disk.seeks_per_ref", frac "refs" (dsum (fun s -> s.Disk.seeks)) refs);
    ("disk.busy_ratio", frac "sim ms, busiest disk" busiest o.sim_ms);
    ("disk.queue_wait_p99_ms", l ~base:(Printf.sprintf "%.0f refs" refs) "sim_ms" queue_p99);
    ("disk.bytes_written_per_user_byte", frac "bytes" o.bytes_written user);
    ("txn.lock_waits_per_txn", l "count" (per (float_of_int o.lock_blocks)));
    ( "txn.lock_wait_p99_ms",
      l
        ~base:(Printf.sprintf "%d waits" (Array.length o.lock_waits))
        "sim_ms" (pct o.lock_waits 0.99) );
    ("txn.renewals_per_txn", l "count" (per (d "locks." ".renewals")));
    ("txn.log_checkpoints", l ~base:"" "count" (d "txn." ".log_checkpoints"));
    ( "txn.commit_p50_ms",
      l ~base:(Printf.sprintf "%d commits" (Array.length commit_ms)) "sim_ms" (pct commit_ms 0.5) );
    ("txn.self_ms_per_op", l "sim_ms" (per (self "txn_service")));
  ]

(* Run one round: [setup] builds the files inside the simulation and
   returns the workload's state; [clients] turns it into one closed
   loop per client; [check] verifies the end state. Every round ends
   with a clean fsck. *)
let round ~config ~traced ~setup ~clients ~check =
  let t0 = host_now () in
  Cluster.run ~config (fun sim t ->
      let env = setup t in
      let setup_s = host_now () -. t0 in
      Array.iter Disk.reset_stats (Cluster.disks t);
      let probes = if traced then Some (attach sim t) else None in
      let rec_ = Recorder.create () in
      let h0 = host_begin sim in
      let done_ = Sim.Mailbox.create sim in
      let loops = clients sim t env rec_ in
      List.iteri
        (fun i loop ->
          ignore
            (Sim.spawn ~name:(Printf.sprintf "client%d" i) sim (fun () ->
                 loop ();
                 Sim.Mailbox.send done_ ())))
        loops;
      List.iter (fun _ -> Sim.Mailbox.recv done_) loops;
      let host = host_end sim h0 in
      let layers, prof =
        match probes with
        | None -> ([], None)
        | Some p ->
          let o, report = detach sim t p ~sim_ms:host.h_sim_ms in
          (layers o ~rec_, Some report)
      in
      (* A failed check names what the round had done, failures by
         reason included, so the report explains itself. The round
         still returns its metrics, so a failing run prints them. *)
      let failure =
        match
          check env;
          let fsck = Cluster.fsck t in
          if not (Rhodos_file.Fsck.is_clean fsck) then
            fail "fsck: %s" (Format.asprintf "%a" Rhodos_file.Fsck.pp_report fsck)
        with
        | () -> None
        | exception Check_failed msg ->
          let failed = Recorder.failed rec_ and attempted = rec_.Recorder.attempted in
          Some
            (Printf.sprintf "%s (after %d ops attempted; fail_ratio %.4f: %s)" msg attempted
               (ratio (float_of_int failed) (float_of_int attempted))
               (String.concat ", "
                  (List.map
                     (fun (why, n) -> Printf.sprintf "%d failed: %s" n why)
                     (Recorder.failures rec_))))
      in
      round ?prof ~layers ?failure ~setup_s ~host ~digest:(Sim.run_digest sim) rec_)
