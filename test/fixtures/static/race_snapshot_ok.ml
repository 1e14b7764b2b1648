(* A measurement reads a device's snapshot before and after a
   blocking wait while two workers keep serving. The snapshot field
   shares its name with the live mutable field, but reading it is not
   a torn read-modify-write of the live counter: no static-race. *)
(* expect-clean *)

let worker sim d =
  for _ = 1 to 3 do
    Snapshot_dev.serve d;
    Sim.sleep sim 1.0
  done

let measure sim =
  let d = Snapshot_dev.create () in
  ignore (Sim.spawn sim (fun () -> worker sim d));
  ignore (Sim.spawn sim (fun () -> worker sim d));
  let before = (Snapshot_dev.stats d).Snapshot_dev.served in
  Sim.sleep sim 10.0;
  (Snapshot_dev.stats d).Snapshot_dev.served - before
