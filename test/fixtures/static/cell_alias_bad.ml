(* Negative control for raw-shared-cell: the table inside a Sim.Cell
   is mutated through the alias Cell.get returns, so the write never
   reaches the sanitizer, which sees only a read. *)
(* expect: raw-shared-cell *)

let forget inflight key = Hashtbl.remove (Sim.Cell.get inflight) key

let drop_all inflight =
  Hashtbl.filter_map_inplace (fun _ v -> Some v) (Cell.get inflight)
