(* The repository benchmark.

     perf.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   A run draws [subseeds] workload seeds from --seed and runs one round
   (a fresh world: set-up, timed phase, checks) per sub-seed, then goes
   on cycling through them until --seconds have passed. Every repeat of
   a sub-seed must reach the same Sim.run_digest as its first round.
   Simulated metrics pool the first round of each sub-seed, so they are
   exact for a seed; host rates take the fastest round and set-up time
   each sub-seed's fastest set-up. With
   --trace 1 one more round of the first sub-seed runs with spans,
   counters, lock events and the profiler attached and prints the
   per-layer metrics; its digest must equal the untraced one.

   A round whose end-state check fails still reports its metrics: the
   run stops after it, prints what it measured, and then fails. So a
   workload that fails on a program defect (txn_2pl today) still shows
   its fail_ratio and per-layer metrics.

   Prints one line per metric, then a JSON summary as the last line.
   Exits 1 if any correctness check fails, 2 on bad arguments. See
   README.md. *)

open Measure

(* Pooling several seeds' simulated results steadies them: a single
   seed's file sizes and interleaving move them by several percent. *)
let subseeds = 4

let workloads =
  [
    ("cold_scan", Files.cold_scan);
    ("small_files", Files.small_files);
    ("txn_2pl", Bank.txn_2pl);
    ("sim_churn", Churn.sim_churn);
  ]

let usage () =
  prerr_endline
    ("usage: perf.exe --workload <" ^ String.concat "|" (List.map fst workloads)
   ^ "> --seed N --seconds S --trace 0|1");
  exit 2

let args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
    | "--trace" :: t :: rest -> trace := t = "1"; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.assoc_opt !workload workloads with
  | Some run -> (!workload, run, !seed, !seconds, !trace)
  | None -> usage ()

(* One JSON number: finite, with all its digits. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, (l : layer)) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num l.value) l.unit_)
          metrics))

let print_metric (name, (l : layer)) =
  Printf.printf "  %-36s %16.6f %-9s %s\n" name l.value l.unit_
    (if l.base = "" then "" else "(" ^ l.base ^ ")")

(* The end-to-end metrics the JSON summary carries. fail_ratio travels
   as its "attempted" and "failed" fields. sim_p50_ms is printed but
   not gated: on cold_scan the median op sits on the edge between the
   one- and two-rotation latency modes and flips between them with the
   seed (README.md); goodput, by Little's law the mean latency of the
   closed loop, gates the middle of the distribution instead. *)
let gated =
  List.filter (fun (n, _) ->
      n <> "sim_p50_ms" && n <> "fail_ratio" && n <> "host_wall_ops_per_s")

(* Per-layer metrics printed but left out of the JSON summary, because
   no gated workload can move them: the txn layer is reached only by
   txn_2pl, which fails its checks (README.md, standing findings), and
   naming and the file service take no simulated time of their own. *)
let gated_layers =
  List.filter (fun (n, _) ->
      not
        (String.starts_with ~prefix:"txn." n
        || n = "naming.self_ms_per_op" || n = "file.self_ms_per_op"))

(* Run [f] in a child process and return its result. Each round gets
   a fresh process, so no round inherits another's heap: OCaml 5.1
   never returns major heap memory, and a heap grown by earlier rounds
   would make later ones cheaper and the peak depend on how many
   rounds the host managed. *)
let in_child f =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let result = match f () with v -> Ok v | exception Check_failed msg -> Error msg in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (result : (round, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result =
      match (Marshal.from_channel ic : (round, string) result) with
      | r -> r
      | exception End_of_file -> Error "a round's process died without a result"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match result with Ok r -> r | Error msg -> raise (Check_failed msg)

(* Run rounds until [seconds] have passed and every sub-seed has run
   at least once and the first one twice, or until a round fails its
   end-state check. Returns all rounds in order and the traced round
   if asked for. *)
let measure name run seed seconds trace =
  let start = Profiler.now_ns () in
  let seed_of i = Hashtbl.hash (seed, i mod subseeds) in
  (* The peak counts only what the round added to the heap its process
     inherited. Only the pooled rounds send their latencies back, so
     the parent's heap does not grow with the number of rounds. *)
  let go i ~traced =
    in_child (fun () ->
        let inherited = (Gc.quick_stat ()).Gc.heap_words in
        let r = run ~seed:(seed_of i) ~traced in
        let r = if i < subseeds then r else { r with rec_ = { r.rec_ with Recorder.lat = [||] } } in
        { r with peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words - inherited })
  in
  let rec loop acc i =
    let elapsed = float_of_int (Profiler.now_ns () - start) /. 1e9 in
    let failed = match acc with r :: _ -> r.failure <> None | [] -> false in
    if failed || (i > subseeds && elapsed >= seconds) then Array.of_list (List.rev acc)
    else begin
      let r = go i ~traced:false in
      if i >= subseeds then begin
        let first = List.nth (List.rev acc) (i mod subseeds) in
        if r.digest <> first.digest then
          fail "%s: round %d digest %x differs from %x, the first run of its seed" name i
            r.digest first.digest
      end;
      loop (r :: acc) (i + 1)
    end
  in
  let rounds = loop [] 0 in
  let traced = if trace then Some (go 0 ~traced:true) else None in
  Option.iter
    (fun (t : round) ->
      if t.digest <> rounds.(0).digest then
        fail "%s: traced digest %x differs from untraced %x" name t.digest rounds.(0).digest)
    traced;
  (rounds, traced)

let report name seed (rounds : round array) traced =
  let pooled = Array.to_list (Array.sub rounds 0 (min subseeds (Array.length rounds))) in
  let all = Array.to_list rounds in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 in
  let ok = sum ok pooled in
  let attempted = sum (fun r -> r.rec_.Recorder.attempted) pooled in
  let failures = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun (why, n) ->
          Hashtbl.replace failures why (n + Option.value ~default:0 (Hashtbl.find_opt failures why)))
        (Recorder.failures r.rec_))
    pooled;
  let failures = List.sort compare (Hashtbl.fold (fun why n acc -> (why, n) :: acc) failures []) in
  let failed = List.fold_left (fun acc (_, n) -> acc + n) 0 failures in
  let lat =
    Array.concat (List.map (fun r -> Array.sub r.rec_.Recorder.lat 0 (Measure.ok r)) pooled)
  in
  Array.sort Float.compare lat;
  let sim_s = List.fold_left (fun acc r -> acc +. r.sim_ms) 0. pooled /. 1000. in
  (* Host rates are best-of, as in bench/exp_p0.ml: contention from
     other processes on the host only ever slows a round down, so the
     fastest round is the estimate closest to the code's own cost. The
     sub-seeds move a round's rate by a few percent at most, far less
     than the host does, so every round of the run counts. Set-up time
     is best-of too, but per sub-seed, since the seed's file sizes set
     the amount of set-up work: the mean over the sub-seeds of each
     one's least set-up time. *)
  let best rate = List.fold_left (fun m r -> Float.max m (rate r)) 0. all in
  let setup =
    let least k =
      List.fold_left
        (fun m r -> Float.min m r.setup_s)
        infinity
        (List.filteri (fun i _ -> i mod subseeds = k) all)
    in
    List.fold_left ( +. ) 0. (List.init (List.length pooled) least)
    /. float_of_int (List.length pooled)
  in
  let l ?(base = "") unit_ value = { value; unit_; base } in
  let samples = Printf.sprintf "%d ops over %d seeds" ok (List.length pooled) in
  let e2e =
    [
      ("sim_p50_ms", l ~base:samples "sim_ms" (pct lat 0.5));
      ("sim_p99_ms", l ~base:samples "sim_ms" (pct lat 0.99));
      ("goodput_ops_per_sim_s", l ~base:samples "ops/sim_s" (float_of_int ok /. sim_s));
      ( "fail_ratio",
        l ~base:(Printf.sprintf "%d/%d attempted" failed attempted) "ratio"
          (ratio (float_of_int failed) (float_of_int attempted)) );
      ( "host_ops_per_s",
        l
          ~base:(Printf.sprintf "CPU time, best of %d rounds" (List.length all))
          "ops/s" (best host_ops_per_s) );
      ( "host_wall_ops_per_s",
        l
          ~base:(Printf.sprintf "wall time, best of %d rounds" (List.length all))
          "ops/s" (best (fun r -> float_of_int (Measure.ok r) /. r.wall_s)) );
      (* Allocation and heap growth repeat exactly for a seed, so they
         come from the pooled rounds only, like the simulated metrics. *)
      ( "alloc_words_per_op",
        l ~base:"minor words, median over seeds" "words"
          (median (List.map (fun r -> per_op r r.words) pooled)) );
      ( "peak_heap_mb",
        l ~base:"major heap growth of a round, median over seeds" "MiB"
          (median
             (List.map
                (fun r -> float_of_int (r.peak_heap_words * (Sys.word_size / 8)) /. 1048576.)
                pooled)) );
      ( "setup_s",
        l ~base:(Printf.sprintf "CPU time, best per seed of %d set-ups" (List.length all)) "s"
          setup );
    ]
  in
  Printf.printf "workload %s  seed %d  rounds %d\n" name seed (List.length all);
  List.iter print_metric e2e;
  List.iter (fun (why, n) -> Printf.printf "    failed %6d  %s\n" n why) failures;
  let attempted = sum (fun r -> r.rec_.Recorder.attempted) all in
  let failed = sum (fun r -> Recorder.failed r.rec_) all in
  let metrics =
    match traced with
    | None -> gated e2e
    | Some t ->
      (* The traced round replays the first sub-seed. *)
      let untraced = List.filteri (fun i _ -> i mod subseeds = 0) all in
      let untraced_rate = median (List.map host_ops_per_s untraced) in
      (* sim_churn bypasses the file stack: its stack layers read 0. *)
      let stack = if t.layers = [] then Stack.layers Stack.no_obs ~rec_:t.rec_ else t.layers in
      let overhead =
        l
          ~base:
            (Printf.sprintf "%.0f traced / %.0f untraced ops/s, same seed" (host_ops_per_s t)
               untraced_rate)
          "ratio"
          (ratio (host_ops_per_s t) untraced_rate)
      in
      let layers =
        stack
        @ sim_layers ~untraced (Option.get t.prof)
        @ [ ("trace.host_ops_ratio", overhead) ]
      in
      print_endline "per-layer, traced round of the first seed:";
      List.iter print_metric layers;
      gated_layers layers
  in
  match List.find_map (fun r -> r.failure) (all @ Option.to_list traced) with
  | None -> json ~correct:true ~attempted ~failed metrics
  | Some msg ->
    Printf.printf "CHECK FAILED: %s\n" msg;
    json ~correct:false ~attempted ~failed metrics;
    exit 1

let () =
  let name, run, seed, seconds, trace = args () in
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  match measure name run seed seconds trace with
  | exception Check_failed msg ->
    Printf.printf "CHECK FAILED: %s\n" msg;
    json ~correct:false ~attempted:1 ~failed:1 [];
    exit 1
  | rounds, traced -> report name seed rounds traced
