module Lm = Rhodos_txn.Lock_manager
module Counter = Rhodos_util.Stats.Counter

type t = {
  lm : Lm.t;
  counters : Counter.t;
  last_cycle : int list option ref;
  token : Rhodos_util.Event_bus.token;
}

let classify_suspect lm counters last_cycle txn =
  Counter.incr counters "suspects";
  let graph = Waits_for.of_edges (Lm.waits_for_edges lm) in
  match Waits_for.cycle_through graph txn with
  | Some cycle ->
    last_cycle := Some cycle;
    Counter.incr counters "true_deadlocks"
  | None -> Counter.incr counters "false_aborts"

let attach lm =
  let counters = Counter.create () and last_cycle = ref None in
  let token =
    Lm.subscribe lm (function
      | Lm.Ev_blocked _ -> Counter.incr counters "blocks_observed"
      | Lm.Ev_granted _ -> Counter.incr counters "grants_observed"
      | Lm.Ev_cancelled _ -> Counter.incr counters "cancels_observed"
      | Lm.Ev_released _ -> ()
      | Lm.Ev_suspected { txn } -> classify_suspect lm counters last_cycle txn)
  in
  { lm; counters; last_cycle; token }

(* Idempotent: unsubscribing a removed token is a no-op. *)
let detach t = Lm.unsubscribe t.lm t.token

let stats t = t.counters

let last_cycle t = !(t.last_cycle)

let true_deadlocks t = Counter.get t.counters "true_deadlocks"

let false_aborts t = Counter.get t.counters "false_aborts"

let pp_stats fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%-18s %d@ " name v)
    (Counter.to_list t.counters);
  Format.fprintf fmt "@]"
