(* Negative control: a catch-all handler over a blocking call. The
   blocking primitive is one hop down, so Sim.Killed arrives here via
   the interprocedural raise set — and the catch-all absorbs it
   without re-raising, letting a killed process survive its kill
   point. The wildcard handler is also what no-catch-all forbids. *)
(* expect: no-catch-all swallowed-control-exn *)

let slow_probe sim = Sim.sleep sim 5.0

let swallow_probe sim = try slow_probe sim with _ -> ()
