(* A module-level ref written from two spawned workers. Each
   increment is atomic under the cooperative scheduler (no blocking
   call splits the read from the write, so no static-race), but the
   state is shared across simulation worlds and invisible to the
   sanitizer — it must move into a per-world Sim.Cell. The race pass
   reports it as reached by concurrent roots, global-mutable-state as
   module-level state. *)
(* expect: global-mutable-state unmonitored-shared-state *)

let minted = ref 0

let next () =
  minted := !minted + 1;
  !minted

let main sim =
  ignore (Sim.spawn sim (fun () -> ignore (next ())));
  ignore (Sim.spawn sim (fun () -> ignore (next ())))
