(* Helper for race_snapshot_ok: a live mutable counter and an
   immutable snapshot record with the same field name, the shape of
   [Disk.t] and [Disk.stats]. *)
(* expect-clean *)

type t = { mutable served : int }

type stats = { served : int }

let create () : t = { served = 0 }

let serve (d : t) = d.served <- d.served + 1

let stats (d : t) : stats = { served = d.served }
