(* Event queue: a binary min-heap over parallel unboxed arrays
   (priorities, tie-break seqs, values: no per-entry allocation), plus
   a power-of-two FIFO ring of values that all share one priority, the
   ring priority. In the simulator, yields, wakeups and mailbox
   handoffs land at exactly the last popped priority (the current
   time); the ring takes them in O(1) whatever the heap holds.

   An add goes to the ring if the ring is non-empty and [prio] equals
   the ring priority, or if the ring is empty and [prio] equals the
   last popped priority (the ring then takes that priority); anything
   else goes to the heap.

   The order stays exact: while the ring is non-empty every add at its
   priority goes to the ring, so every heap entry at the ring priority
   has a smaller seq than every ring entry, and the ring is in seq
   order. Popping the heap while its minimum is <= the ring priority,
   then the ring, is the (prio, seq) order, so ring entries need no
   seqs. [Lifo] (the determinism sanitizer's mode) bypasses the ring.

   Popped slots are overwritten with [hole], an immediate placeholder,
   so the queue keeps no popped value alive. Value arrays are created
   filled with [hole], never with a real value, so none is a flat
   float array and storing [hole] is sound for any ['a]. *)

type tie = Fifo | Lifo

type 'a t = {
  fifo : bool;
  mutable next_seq : int;
  (* heap *)
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  (* ring: [rlen] values from [rhead], capacity a power of two *)
  mutable ring : 'a array;
  mutable rhead : int;
  mutable rlen : int;
  (* [| last popped priority; ring priority |]: a float array keeps
     both unboxed, where mutable float fields of this polymorphic
     record would box on every write *)
  fl : float array;
}

let last = 0
let ring_prio = 1

let[@inline] hole () : 'a = Obj.magic 0

let create ?(tie = Fifo) () =
  { fifo = (tie = Fifo); next_seq = 0; prios = [||]; seqs = [||]; vals = [||];
    size = 0; ring = [||]; rhead = 0; rlen = 0; fl = [| nan; nan |] }

let length q = q.size + q.rlen

let is_empty q = q.size = 0 && q.rlen = 0

(* True when the next pop comes from the ring: its entries at the ring
   priority follow every heap entry at or below that priority. *)
let[@inline] ring_first q =
  q.rlen > 0 && (q.size = 0 || q.prios.(0) > q.fl.(ring_prio))

(* Heap order: [(p1, s1)] before [(p2, s2)] iff [p1 < p2], or [p1 =
   p2] and [s1] precedes [s2] under the tie policy. The comparison is
   written out at each use: without flambda, float arguments to a
   non-inlined helper would be boxed at every sift level. *)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let grow_heap q =
  let old = Array.length q.prios in
  let cap = if old = 0 then 8 else 2 * old in
  let prios = Array.make cap 0. and seqs = Array.make cap 0 in
  let vals = Array.make cap (hole ()) in
  Array.blit q.prios 0 prios 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.prios <- prios;
  q.seqs <- seqs;
  q.vals <- vals

(* Hole-based sifts: carry the moving entry in locals and shift the
   entries it passes. [sift_down], on the pop path, reads the moving
   entry from its slot, since passing a float would box it; [sift_up]
   takes [add]'s already-boxed [prio] as it is. *)

(* Move [(prio, seq, v)] from hole [i0] up to its place. *)
let sift_up q i0 prio seq v =
  let prios = q.prios and seqs = q.seqs and vals = q.vals in
  let fifo = q.fifo in
  let i = ref i0 in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = prios.(parent) in
    if
      prio < pp
      || (prio = pp
         &&
         let ps = seqs.(parent) in
         if fifo then seq < ps else seq > ps)
    then begin
      prios.(!i) <- pp;
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else stop := true
  done;
  prios.(!i) <- prio;
  seqs.(!i) <- seq;
  vals.(!i) <- v

let heap_add q prio v =
  if q.size >= Array.length q.prios then grow_heap q;
  let i = q.size and seq = q.next_seq in
  q.size <- i + 1;
  q.next_seq <- seq + 1;
  sift_up q i prio seq v

(* Move the entry at [src] into hole [i0] and down to its place among
   the [q.size] live entries; [src] is the slot just vacated at the
   end ([q.size] has already been decremented). *)
let sift_down q i0 src =
  let prios = q.prios and seqs = q.seqs and vals = q.vals in
  let fifo = q.fifo in
  let prio = prios.(src) and seq = seqs.(src) and v = vals.(src) in
  let n = q.size in
  let i = ref i0 in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    if l >= n then stop := true
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          &&
          let pr = prios.(r) and pl = prios.(l) in
          pr < pl
          || (pr = pl && if fifo then seqs.(r) < seqs.(l) else seqs.(r) > seqs.(l))
        then r
        else l
      in
      let pc = prios.(c) in
      if
        pc < prio
        || (pc = prio
           &&
           let sc = seqs.(c) in
           if fifo then sc < seq else sc > seq)
      then begin
        prios.(!i) <- pc;
        seqs.(!i) <- seqs.(c);
        vals.(!i) <- vals.(c);
        i := c
      end
      else stop := true
    end
  done;
  prios.(!i) <- prio;
  seqs.(!i) <- seq;
  vals.(!i) <- v

let heap_pop q =
  let v = q.vals.(0) in
  q.fl.(last) <- q.prios.(0);
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then sift_down q 0 n;
  q.vals.(n) <- hole ();
  v

(* Remove the entry at heap index [i]. The last entry that refills the
   hole may belong above [i]'s parent or below its children, so sift
   both ways: if sift-down moves it, the entry now at [i] is a
   promoted descendant, which the heap property already orders after
   [i]'s ancestors, and the sift-up stops at once. *)
let heap_remove q i =
  let prio = q.prios.(i) and v = q.vals.(i) in
  q.fl.(last) <- prio;
  let n = q.size - 1 in
  q.size <- n;
  if i < n then begin
    sift_down q i n;
    sift_up q i q.prios.(i) q.seqs.(i) q.vals.(i)
  end;
  q.vals.(n) <- hole ();
  (prio, v)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)

let grow_ring q =
  let old = Array.length q.ring in
  let ring = Array.make (if old = 0 then 16 else 2 * old) (hole ()) in
  for k = 0 to q.rlen - 1 do
    ring.(k) <- q.ring.((q.rhead + k) land (old - 1))
  done;
  q.ring <- ring;
  q.rhead <- 0

let ring_push q v =
  if q.rlen = Array.length q.ring then grow_ring q;
  q.ring.((q.rhead + q.rlen) land (Array.length q.ring - 1)) <- v;
  q.rlen <- q.rlen + 1

let ring_pop q =
  let ring = q.ring in
  let h = q.rhead in
  let v = ring.(h) in
  ring.(h) <- hole ();
  q.rhead <- (h + 1) land (Array.length ring - 1);
  q.rlen <- q.rlen - 1;
  q.fl.(last) <- q.fl.(ring_prio);
  v

(* Remove the [k]-th ring entry, closing the gap from the tail. *)
let ring_remove q k =
  let ring = q.ring in
  let mask = Array.length ring - 1 in
  let slot j = (q.rhead + j) land mask in
  let v = ring.(slot k) in
  for j = k to q.rlen - 2 do
    ring.(slot j) <- ring.(slot (j + 1))
  done;
  ring.(slot (q.rlen - 1)) <- hole ();
  q.rlen <- q.rlen - 1;
  q.fl.(last) <- q.fl.(ring_prio);
  (q.fl.(ring_prio), v)

(* ------------------------------------------------------------------ *)
(* Interface                                                           *)

let add q ~prio v =
  let fl = q.fl in
  if q.rlen > 0 then
    if prio = fl.(ring_prio) then ring_push q v else heap_add q prio v
  else if q.fifo && prio = fl.(last) then begin
    fl.(ring_prio) <- prio;
    ring_push q v
  end
  else heap_add q prio v

(* Hot-loop accessors: undefined on an empty queue (the caller checks
   [is_empty]); allocation-free, unlike [pop]. *)
let[@inline] unsafe_min_prio q =
  if ring_first q then q.fl.(ring_prio) else q.prios.(0)

let pop_into q =
  if ring_first q then ring_pop q
  else if q.size > 0 then heap_pop q
  else invalid_arg "Prio_queue.pop_into: empty queue"

let pop q =
  if is_empty q then None
  else begin
    let prio = unsafe_min_prio q in
    Some (prio, pop_into q)
  end

(* ------------------------------------------------------------------ *)
(* Ready-set access (controlled scheduling)                            *)
(* ------------------------------------------------------------------ *)

(* The ready set is the heap entries at the heap minimum, when that is
   <= the ring priority, followed by the ring entries, when the ring
   priority is <= the heap minimum: seq order, by the argument at the
   top of this file. *)
let heap_ready q = q.size > 0 && (q.rlen = 0 || q.prios.(0) <= q.fl.(ring_prio))

let ring_ready q = q.rlen > 0 && (q.size = 0 || q.prios.(0) >= q.fl.(ring_prio))

(* Heap indices of every entry at the heap minimum, sorted by seq.
   O(size) scan: only the analysis explorer uses these, never the
   default event loop. *)
let heap_ready_indices q =
  if not (heap_ready q) then [||]
  else begin
    let min_prio = q.prios.(0) in
    let idxs = ref [] in
    for i = q.size - 1 downto 0 do
      if q.prios.(i) = min_prio then idxs := i :: !idxs
    done;
    let arr = Array.of_list !idxs in
    Array.sort (fun a b -> compare q.seqs.(a) q.seqs.(b)) arr;
    arr
  end

(* Allocation-free. Fast path: the root's priority is minimal and
   every ancestor of a min-priority node is min-priority, so if
   neither root child ties with the root the heap's share is exactly
   the root. *)
let ready_count q =
  let from_heap =
    if not (heap_ready q) then 0
    else begin
      let prios = q.prios in
      let p = prios.(0) in
      let n = q.size in
      if (1 >= n || prios.(1) <> p) && (2 >= n || prios.(2) <> p) then 1
      else begin
        let count = ref 0 in
        for i = 0 to n - 1 do
          if prios.(i) = p then incr count
        done;
        !count
      end
    end
  in
  if ring_ready q then from_heap + q.rlen else from_heap

let ready q =
  let from_ring =
    if ring_ready q then
      List.init q.rlen (fun k ->
          ( q.fl.(ring_prio),
            q.ring.((q.rhead + k) land (Array.length q.ring - 1)) ))
    else []
  in
  Array.fold_right
    (fun i acc -> (q.prios.(i), q.vals.(i)) :: acc)
    (heap_ready_indices q) from_ring

let pop_nth q n =
  let idxs = heap_ready_indices q in
  let from_heap = Array.length idxs in
  if n < 0 then None
  else if n < from_heap then Some (heap_remove q idxs.(n))
  else if ring_ready q && n - from_heap < q.rlen then
    Some (ring_remove q (n - from_heap))
  else None

let drain q =
  let rec loop acc =
    match pop q with None -> List.rev acc | Some x -> loop (x :: acc)
  in
  loop []
