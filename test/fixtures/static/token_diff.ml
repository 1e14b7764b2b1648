(* Syntactic-rule fixture. [table] is module-level mutable state:
   global-mutable-state flags it even though no concurrency root
   reaches it (so the race pass's unmonitored-shared-state stays
   silent). [pick] draws from the unseeded global Random and [keys]
   hands hash-bucket order to its caller. The baits at the bottom must
   stay silent: a multi-line [let ... in] local binding (not module
   state) and an identifier that merely contains "sort" (must not
   absolve the fold). *)
(* expect: global-mutable-state hashtbl-iter-order no-unseeded-random *)

let table = Hashtbl.create 16

let pick () = Random.int 10

let keys () = Hashtbl.fold (fun k _ acc -> k :: acc) table []

let resort_marker = 0

let local_state () =
  let state =
    ref 0
  in
  incr state;
  !state
