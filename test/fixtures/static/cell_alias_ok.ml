(* Corrected variant of cell_alias_bad: the mutation runs inside
   Sim.Cell.update, which reports it as a write; a lookup through the
   alias Cell.get returns is only a read. *)
(* expect-clean *)

let forget inflight key =
  Sim.Cell.update inflight (fun tbl ->
      Hashtbl.remove tbl key;
      tbl)

let pending inflight key = Hashtbl.mem (Sim.Cell.get inflight) key
