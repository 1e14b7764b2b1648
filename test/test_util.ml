open Rhodos_util
open Support

(* ------------------------------------------------------------------ *)
(* Prio_queue                                                          *)
(* ------------------------------------------------------------------ *)

let test_pq_empty () =
  let q = Prio_queue.create () in
  check bool "empty" true (Prio_queue.is_empty q);
  check int "length" 0 (Prio_queue.length q);
  check (Alcotest.option (Alcotest.pair (Alcotest.float 0.) int)) "pop" None
    (Prio_queue.pop q)

let test_pq_order () =
  let q = Prio_queue.create () in
  List.iter (fun (p, v) -> Prio_queue.add q ~prio:p v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  let order = Prio_queue.drain q |> List.map snd in
  check (Alcotest.list Alcotest.string) "sorted" [ "z"; "a"; "b"; "c" ] order

let test_pq_fifo_ties () =
  let q = Prio_queue.create () in
  List.iter (fun v -> Prio_queue.add q ~prio:1.0 v) [ 1; 2; 3; 4; 5 ];
  let order = Prio_queue.drain q |> List.map snd in
  check (Alcotest.list int) "fifo at equal prio" [ 1; 2; 3; 4; 5 ] order

let test_pq_interleaved () =
  let q = Prio_queue.create () in
  Prio_queue.add q ~prio:5. 50;
  Prio_queue.add q ~prio:1. 10;
  (match Prio_queue.pop q with
  | Some (p, v) ->
    check (Alcotest.float 0.) "first prio" 1. p;
    check int "first value" 10 v
  | None -> Alcotest.fail "expected element");
  Prio_queue.add q ~prio:3. 30;
  Prio_queue.add q ~prio:2. 20;
  let order = Prio_queue.drain q |> List.map snd in
  check (Alcotest.list int) "remaining" [ 20; 30; 50 ] order

let pq_sorted_prop =
  QCheck.Test.make ~name:"prio_queue pops in nondecreasing priority order"
    ~count:300
    QCheck.(list (pair (float_range 0. 1000.) small_int))
    (fun items ->
      let q = Prio_queue.create () in
      List.iter (fun (p, v) -> Prio_queue.add q ~prio:p v) items;
      let prios = Prio_queue.drain q |> List.map fst in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      List.length prios = List.length items && nondecreasing prios)

(* [ready_count] is the event loop's allocation-free fast path (O(1)
   when the minimum is unique); it must always agree with the size of
   the full ready set, ring entries included. *)
let test_pq_ready_count () =
  let q = Prio_queue.create () in
  check int "empty" 0 (Prio_queue.ready_count q);
  Prio_queue.add q ~prio:2. "b";
  check int "singleton" 1 (Prio_queue.ready_count q);
  Prio_queue.add q ~prio:1. "a1";
  Prio_queue.add q ~prio:1. "a2";
  Prio_queue.add q ~prio:1. "a3";
  Prio_queue.add q ~prio:3. "c";
  check int "tied min of three" 3 (Prio_queue.ready_count q);
  check int "agrees with ready set" (List.length (Prio_queue.ready q))
    (Prio_queue.ready_count q);
  ignore (Prio_queue.pop q);
  check int "after pop" (List.length (Prio_queue.ready q))
    (Prio_queue.ready_count q);
  (* adds at the popped priority join the ring, behind a2 and a3 *)
  Prio_queue.add q ~prio:1. "a4";
  Prio_queue.add q ~prio:1. "a5";
  check int "heap and ring" 4 (Prio_queue.ready_count q);
  check (Alcotest.list Alcotest.string) "ready in insertion order"
    [ "a2"; "a3"; "a4"; "a5" ] (List.map snd (Prio_queue.ready q))

let pq_ready_count_prop =
  QCheck.Test.make
    ~name:"ready_count agrees with the ready set, ring included"
    ~count:300
    QCheck.(list (pair (int_bound 5) bool))
    (fun ops ->
      let q = Prio_queue.create () in
      let n = ref 0 in
      List.for_all
        (fun (k, pop) ->
          if pop then ignore (Prio_queue.pop q)
          else begin
            incr n;
            Prio_queue.add q ~prio:(float_of_int k) !n
          end;
          Prio_queue.ready_count q = List.length (Prio_queue.ready q))
        ops)

(* A reference model of the queue: entries [(prio, seq)] in insertion
   order (the value is the seq). The ready set is the entries at the
   minimum priority, in insertion order; a pop takes its first entry
   under [Fifo] and its last under [Lifo]. *)
module Model = struct
  type t = { mutable entries : (float * int) list; mutable next : int }

  let create () = { entries = []; next = 0 }
  let length m = List.length m.entries

  let add m prio =
    let seq = m.next in
    m.next <- seq + 1;
    m.entries <- m.entries @ [ (prio, seq) ];
    seq

  let ready m =
    let p = List.fold_left (fun acc (p, _) -> min acc p) infinity m.entries in
    List.filter (fun (p', _) -> p' = p) m.entries

  let remove m ((_, seq) as e) =
    m.entries <- List.filter (fun (_, s) -> s <> seq) m.entries;
    Some e

  let pop_nth m n =
    match List.nth_opt (ready m) n with Some e -> remove m e | None -> None

  let pop m tie =
    match (ready m, tie) with
    | [], _ -> None
    | e :: _, Prio_queue.Fifo -> remove m e
    | r, Prio_queue.Lifo -> remove m (List.nth r (List.length r - 1))
end

(* The queue against the model: every result and the length after
   every op, then a full drain. An op is [(kind, arg)]; kinds 0-7 add
   at the last popped priority (the ring path), so runs spend most of
   their time with a non-empty ring beside heap entries at, below and
   above its priority. The rest: 8 adds below it, 9-10 a few ticks
   past it, 11 far in the future; 12-14 pop, 15-16 pop_into; 17 ready,
   18 ready_count, 19 pop_nth [arg]. *)
let pq_model_prop tie name =
  QCheck.Test.make ~name ~count:500
    QCheck.(list_of_size Gen.(int_bound 200) (pair (int_bound 19) (int_bound 4)))
    (fun ops ->
      let q = Prio_queue.create ~tie () and m = Model.create () in
      let last = ref 0. and far = ref 1e6 in
      (* the model's pops drive [last], so a wrong queue pop cannot
         steer the op mix *)
      let popped = function
        | Some (p, _) as r ->
          last := p;
          r
        | None -> None
      in
      let add prio =
        Prio_queue.add q ~prio (Model.add m prio);
        true
      in
      let step (kind, arg) =
        let ok =
          if kind <= 7 then add !last
          else if kind = 8 then add (!last -. 0.5)
          else if kind <= 10 then add (!last +. (0.01 *. float_of_int (1 + (arg mod 3))))
          else if kind = 11 then begin
            far := !far +. 1.;
            add !far
          end
          else if kind <= 14 then Prio_queue.pop q = popped (Model.pop m tie)
          else if kind <= 16 then
            match popped (Model.pop m tie) with
            | None -> Prio_queue.is_empty q
            | Some (p, v) ->
              let p' = Prio_queue.unsafe_min_prio q in
              p' = p && Prio_queue.pop_into q = v
          else if kind = 17 then Prio_queue.ready q = Model.ready m
          else if kind = 18 then Prio_queue.ready_count q = List.length (Model.ready m)
          else Prio_queue.pop_nth q arg = popped (Model.pop_nth m arg)
        in
        ok && Prio_queue.length q = Model.length m
      in
      let rec drain_ok () =
        match (Prio_queue.pop q, Model.pop m tie) with
        | None, None -> true
        | Some a, Some b -> a = b && drain_ok ()
        | _ -> false
      in
      List.for_all step ops && drain_ok ())

let pq_model_fifo =
  pq_model_prop Prio_queue.Fifo "queue matches the reference model (Fifo)"

let pq_model_lifo =
  pq_model_prop Prio_queue.Lifo "queue matches the reference model (Lifo)"

(* Removing the n-th ready entry replaces it with the last heap slot,
   which may belong *above* the removal point — the sift must go both
   ways. Model-based: [pop_nth] against a sorted-list model, under
   both tie policies. *)
let pq_pop_nth_model_prop =
  QCheck.Test.make
    ~name:"pop_nth matches a sorted-list model under Fifo and Lifo"
    ~count:300
    QCheck.(pair bool (list (pair (int_bound 3) (int_bound 4))))
    (fun (lifo, ops) ->
      let tie = if lifo then Prio_queue.Lifo else Prio_queue.Fifo in
      let q = Prio_queue.create ~tie () and m = Model.create () in
      let ok = ref true in
      List.iter
        (fun (k, nth) ->
          if k = 3 && Model.length m > 0 then begin
            let n = nth mod List.length (Model.ready m) in
            if Prio_queue.pop_nth q n <> Model.pop_nth m n then ok := false
          end
          else begin
            let p = float_of_int (k mod 3) in
            Prio_queue.add q ~prio:p (Model.add m p)
          end)
        ops;
      let rec drain_model acc =
        match Model.pop m tie with
        | None -> List.rev acc
        | Some e -> drain_model (e :: acc)
      in
      !ok && Prio_queue.drain q = drain_model [])

(* Crafted regression: the replacement slot for a removed tied-minimum
   entry must sift *up* past its parent when the tie policy orders it
   earlier. Shape: a deep heap of tied minima where the last array
   slot was inserted late (Lifo orders it first). *)
let test_pq_pop_nth_sift_up () =
  List.iter
    (fun tie ->
      let q = Prio_queue.create ~tie () in
      (* seven tied entries building a 3-level heap, then remove deep
         indices so the last slot replaces an interior one *)
      for v = 0 to 6 do
        Prio_queue.add q ~prio:1. v
      done;
      (* remove seq 2, then the 4th remaining in insertion order
         (0,1,3,4,[5],6), i.e. seq 5 *)
      ignore (Prio_queue.pop_nth q 2);
      ignore (Prio_queue.pop_nth q 4);
      let got = Prio_queue.drain q |> List.map snd in
      let expect =
        match tie with
        | Prio_queue.Fifo -> [ 0; 1; 3; 4; 6 ]
        | Prio_queue.Lifo -> [ 6; 4; 3; 1; 0 ]
      in
      check (Alcotest.list int) "drain after pop_nth" expect got)
    [ Prio_queue.Fifo; Prio_queue.Lifo ]

(* Steady-state [add]/[pop_into] allocate nothing, on the ring path
   (adds at the last popped priority) and on the heap path (adds past
   it, each at a new priority so none joins the ring). The priorities
   are already boxed, so the loops box nothing themselves;
   [unsafe_min_prio] stays out, because a float returned across a
   module boundary is boxed. *)
let minor_words_of f =
  let m0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. m0

let test_pq_no_alloc () =
  let v = ref 0 in
  let ring = Prio_queue.create () in
  Prio_queue.add ring ~prio:1. v;
  ignore (Prio_queue.pop_into ring);
  let same_time () =
    for _ = 1 to 10_000 do
      Prio_queue.add ring ~prio:1. v;
      Prio_queue.add ring ~prio:1. v;
      ignore (Prio_queue.pop_into ring);
      ignore (Prio_queue.pop_into ring)
    done
  in
  let heap = Prio_queue.create () in
  for _ = 1 to 1_000 do
    Prio_queue.add heap ~prio:5. v
  done;
  let far = Array.init 10_000 (fun i -> ref (1e9 +. float_of_int i)) in
  let far_future () =
    for i = 0 to Array.length far - 1 do
      Prio_queue.add heap ~prio:!(far.(i)) (Prio_queue.pop_into heap)
    done
  in
  let baseline = minor_words_of (fun () -> ()) in
  (* warm-up: grow the ring and the heap to their steady capacity *)
  same_time ();
  far_future ();
  check (Alcotest.float 0.) "same-time add/pop_into" baseline
    (minor_words_of same_time);
  check (Alcotest.float 0.) "far-future add/pop_into" baseline
    (minor_words_of far_future)

(* A popped value is not kept alive by its old ring or heap slot. *)
let[@inline never] add_tracked q ~prio weak =
  let v = ref 42 in
  Weak.set weak 0 (Some v);
  Prio_queue.add q ~prio v

let test_pq_popped_collectable () =
  List.iter
    (fun (name, prime) ->
      let q = Prio_queue.create () in
      prime q;
      let weak = Weak.create 1 in
      add_tracked q ~prio:1. weak;
      ignore (Sys.opaque_identity (Prio_queue.pop_into q));
      Gc.full_major ();
      check bool (name ^ ": collected") false (Weak.check weak 0);
      check int (name ^ ": queue still live") 0 (Prio_queue.length q))
    [ ("ring",
       fun q ->
         (* a pop at 1. makes the next add at 1. a ring add *)
         Prio_queue.add q ~prio:1. (ref 0);
         ignore (Prio_queue.pop_into q));
      ("heap", fun _ -> ()) ]

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check bool "initially clear" false (Bitset.get b 50);
  Bitset.set b 50;
  check bool "set" true (Bitset.get b 50);
  check bool "neighbours untouched" false (Bitset.get b 49 || Bitset.get b 51);
  Bitset.clear b 50;
  check bool "cleared" false (Bitset.get b 50);
  check int "count" 0 (Bitset.count_set b)

let test_bitset_ranges () =
  let b = Bitset.create 64 in
  Bitset.set_range b ~pos:10 ~len:20;
  check int "count after set_range" 20 (Bitset.count_set b);
  check bool "range_all_set" true (Bitset.range_all_set b ~pos:10 ~len:20);
  check bool "wider range not all set" false (Bitset.range_all_set b ~pos:9 ~len:21);
  Bitset.clear_range b ~pos:15 ~len:5;
  check int "count after clear_range" 15 (Bitset.count_set b);
  check bool "hole all clear" true (Bitset.range_all_clear b ~pos:15 ~len:5)

let test_bitset_runs () =
  let b = Bitset.create 32 in
  Bitset.set_range b ~pos:0 ~len:4;
  Bitset.set_range b ~pos:10 ~len:2;
  (* free runs: [4,10) len 6, [12,32) len 20 *)
  check (Alcotest.option int) "find run of 6" (Some 4)
    (Bitset.find_clear_run b ~start:0 ~len:6);
  check (Alcotest.option int) "find run of 7" (Some 12)
    (Bitset.find_clear_run b ~start:0 ~len:7);
  check (Alcotest.option int) "find run of 21" None
    (Bitset.find_clear_run b ~start:0 ~len:21);
  check int "run at 4" 6 (Bitset.clear_run_at b 4);
  check int "run at 0 (set)" 0 (Bitset.clear_run_at b 0);
  let runs = ref [] in
  Bitset.iter_clear_runs b (fun ~pos ~len -> runs := (pos, len) :: !runs);
  check
    (Alcotest.list (Alcotest.pair int int))
    "all runs" [ (4, 6); (12, 20) ] (List.rev !runs)

let test_bitset_serialization () =
  let b = Bitset.create 77 in
  List.iter (Bitset.set b) [ 0; 1; 13; 76 ];
  let restored = Bitset.of_bytes 77 (Bitset.to_bytes b) in
  check bool "roundtrip equal" true (Bitset.equal b restored)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "get out of range" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.get b 8))

let bitset_count_prop =
  QCheck.Test.make ~name:"bitset count_set equals number of distinct set indices"
    ~count:300
    QCheck.(list (int_bound 199))
    (fun indices ->
      let b = Bitset.create 200 in
      List.iter (Bitset.set b) indices;
      let distinct = List.sort_uniq compare indices in
      Bitset.count_set b = List.length distinct
      && Bitset.count_clear b = 200 - List.length distinct)

let bitset_runs_cover_prop =
  QCheck.Test.make ~name:"bitset iter_clear_runs covers exactly the clear bits"
    ~count:300
    QCheck.(list (int_bound 99))
    (fun indices ->
      let b = Bitset.create 100 in
      List.iter (Bitset.set b) indices;
      let covered = Array.make 100 false in
      Bitset.iter_clear_runs b (fun ~pos ~len ->
          for i = pos to pos + len - 1 do
            covered.(i) <- true
          done);
      let ok = ref true in
      for i = 0 to 99 do
        if covered.(i) = Bitset.get b i then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check bool "int in range" true (v >= 0 && v < 10);
    let f = Rng.float r 5.0 in
    check bool "float in range" true (f >= 0. && f < 5.0);
    let z = Rng.zipf r ~n:20 ~theta:1.0 in
    check bool "zipf in range" true (z >= 0 && z < 20);
    let g = Rng.int_range r ~lo:5 ~hi:9 in
    check bool "int_range inclusive" true (g >= 5 && g <= 9)
  done

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child and p1 = Rng.bits64 parent in
  check bool "split produces distinct streams" true (c1 <> p1)

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  check bool "exponential mean ~10" true (mean > 9.0 && mean < 11.0)

let test_rng_zipf_skew () =
  let r = Rng.create 3 in
  let hits = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Rng.zipf r ~n:10 ~theta:2.0 in
    hits.(i) <- hits.(i) + 1
  done;
  check bool "zipf favours low indices" true (hits.(0) > hits.(9))

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool "shuffle is a permutation" true (sorted = Array.init 50 Fun.id)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  check int "count" 5 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "sum" 15.0 (Stats.sum s);
  check (Alcotest.float 1e-9) "variance" 2.5 (Stats.variance s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max_value s)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.) "mean of empty" 0. (Stats.mean s);
  check (Alcotest.float 0.) "percentile of empty" 0. (Stats.percentile s 50.)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile s 50.);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.percentile s 99.);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile s 100.)

let test_stats_clear () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Stats.clear s;
  check int "count back to zero" 0 (Stats.count s);
  check (Alcotest.float 0.) "mean of cleared" 0. (Stats.mean s);
  check (Alcotest.float 0.) "sum of cleared" 0. (Stats.sum s);
  check (Alcotest.float 0.) "percentile of cleared" 0. (Stats.percentile s 50.);
  (* a second measurement cycle counts from scratch *)
  List.iter (Stats.add s) [ 10.; 20. ];
  check int "recounts" 2 (Stats.count s);
  check (Alcotest.float 1e-9) "fresh mean" 15. (Stats.mean s);
  check (Alcotest.float 1e-9) "fresh min" 10. (Stats.min_value s);
  check (Alcotest.float 1e-9) "fresh p50" 10. (Stats.percentile s 50.)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.; 2. ];
  List.iter (Stats.add b) [ 3.; 4. ];
  let m = Stats.merge a b in
  check int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m)

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "hits";
  Stats.Counter.add c "hits" 4;
  Stats.Counter.incr c "misses";
  check int "hits" 5 (Stats.Counter.get c "hits");
  check int "misses" 1 (Stats.Counter.get c "misses");
  check int "absent" 0 (Stats.Counter.get c "nope");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "to_list sorted"
    [ ("hits", 5); ("misses", 1) ]
    (Stats.Counter.to_list c);
  Stats.Counter.reset c;
  check int "reset" 0 (Stats.Counter.get c "hits")

let stats_mean_prop =
  QCheck.Test.make ~name:"stats mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc_known_value () =
  (* Standard test vector: CRC-32("123456789") = 0xCBF43926. *)
  check Alcotest.int32 "crc of 123456789" 0xCBF43926l (Crc32.string "123456789")

let test_crc_detects_change () =
  let b = Bytes.of_string "hello stable storage" in
  let c1 = Crc32.bytes b in
  Bytes.set b 3 'X';
  check bool "changed byte changes crc" true (c1 <> Crc32.bytes b)

let test_crc_sub () =
  let b = Bytes.of_string "xxabcyy" in
  check Alcotest.int32 "sub matches standalone" (Crc32.string "abc")
    (Crc32.sub b ~pos:2 ~len:3)

(* ------------------------------------------------------------------ *)
(* Text_table                                                          *)
(* ------------------------------------------------------------------ *)

let test_text_table () =
  let t = Text_table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Text_table.add_row t [ "1"; "2" ];
  Text_table.add_rowf t "%d | %s" 10 "x";
  let s = Text_table.render t in
  check bool "has title" true (String.length s > 0 && s.[0] = 'T');
  check bool "mentions cell" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Text_table.add_row: width mismatch") (fun () ->
      Text_table.add_row t [ "only-one" ])

let () =
  Alcotest.run "rhodos_util"
    [
      ( "prio_queue",
        [
          Alcotest.test_case "empty" `Quick test_pq_empty;
          Alcotest.test_case "ordering" `Quick test_pq_order;
          Alcotest.test_case "fifo ties" `Quick test_pq_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_pq_interleaved;
          Alcotest.test_case "ready count" `Quick test_pq_ready_count;
          Alcotest.test_case "pop_nth sift-up" `Quick test_pq_pop_nth_sift_up;
          QCheck_alcotest.to_alcotest pq_sorted_prop;
          QCheck_alcotest.to_alcotest pq_ready_count_prop;
          QCheck_alcotest.to_alcotest pq_pop_nth_model_prop;
          QCheck_alcotest.to_alcotest pq_model_fifo;
          QCheck_alcotest.to_alcotest pq_model_lifo;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_pq_no_alloc;
          Alcotest.test_case "popped values are collectable" `Quick
            test_pq_popped_collectable;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "ranges" `Quick test_bitset_ranges;
          Alcotest.test_case "runs" `Quick test_bitset_runs;
          Alcotest.test_case "serialization" `Quick test_bitset_serialization;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          QCheck_alcotest.to_alcotest bitset_count_prop;
          QCheck_alcotest.to_alcotest bitset_runs_cover_prop;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "clear" `Quick test_stats_clear;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "counter" `Quick test_counter;
          QCheck_alcotest.to_alcotest stats_mean_prop;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known value" `Quick test_crc_known_value;
          Alcotest.test_case "detects change" `Quick test_crc_detects_change;
          Alcotest.test_case "sub" `Quick test_crc_sub;
        ] );
      ("text_table", [ Alcotest.test_case "render" `Quick test_text_table ]);
    ]
