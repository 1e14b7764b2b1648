(** Waits-for-graph deadlock detection over a live [Lock_manager].

    The paper's section 6.4 resolves deadlock by suspicion alone: a
    contested lease break aborts the holder whether or not a deadlock
    exists, and the paper admits the scheme "may abort long
    transactions falsely". Attaching a detector makes that admission
    measurable: every lease-break suspicion is classified against the
    actual waits-for graph as a {e true deadlock} (the suspected
    transaction lies on a cycle) or a {e false abort} (it does not),
    with counters exported for the experiment harness. *)

type t

val attach : Rhodos_txn.Lock_manager.t -> t
(** Subscribe the detector to the lock manager's event bus. Other
    subscribers (e.g. the sanitizer) are unaffected — the detector
    holds its own unsubscribe token. The lock manager's behaviour is
    unchanged: the detector only observes. *)

val detach : t -> unit
(** Unsubscribe this detector (idempotent); other subscribers keep
    receiving events. *)

val last_cycle : t -> int list option
(** The cycle found by the most recent true-deadlock
    classification. *)

val true_deadlocks : t -> int

val false_aborts : t -> int

val stats : t -> Rhodos_util.Stats.Counter.t
(** Counters: ["suspects"], ["true_deadlocks"], ["false_aborts"],
    ["blocks_observed"], ["grants_observed"], ["cancels_observed"]. *)

val pp_stats : Format.formatter -> t -> unit
