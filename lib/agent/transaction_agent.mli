(** The RHODOS transaction agent (paper sections 3 and 6).

    The client-machine interface to the transaction service. It is
    {e event driven and highly dynamic}: "the first request to
    initiate a transaction in a client's machine brings this process
    into existence and it ceases to exist as soon as the last
    transaction in the client's machine either completes successfully
    or aborts" — observable here through [is_running] and
    [spawn_count].

    It offers the paper's separate transaction operation set (tbegin,
    tcreate, topen, tdelete, tread, tpread, twrite, tpwrite,
    tget-attribute, tlseek, tclose, tend, tabort), keeps the
    per-descriptor seek pointers, and hands out object descriptors
    greater than 100 000 like the file agent.

    Tentative data lives at the transaction service (where locks are
    checked); the agent's state is descriptors and names only. *)

type t

type tdesc = int
(** Transaction descriptor. *)

type desc = int
(** Object descriptor for a file opened under a transaction. *)

exception Bad_descriptor of int
exception Bad_transaction of int

val create :
  ?on_commit:(file:int -> unit) ->
  sim:Rhodos_sim.Sim.t ->
  fs_conn:Service_conn.fs_conn ->
  txn_conn:Service_conn.txn_conn ->
  unit ->
  t
(** [on_commit] is invoked after a successful [tend], once per file
    the transaction touched — the facade wires it to
    [File_agent.invalidate_file] so the machine's basic-file cache
    does not serve pre-transaction data. The transaction operations
    run in ["txn_agent"] spans on the world's tracer
    ([Rhodos_obs.Trace.of_sim]). *)

val is_running : t -> bool
(** Whether the agent process currently exists. *)

val spawn_count : t -> int
(** How many times the agent has been brought into existence. *)

val active_transactions : t -> int

(** {1 Transaction operations} *)

val tbegin : t -> tdesc
(** Brings the agent process into existence if it was not running. *)

val tcreate :
  ?locking_level:Rhodos_file.Fit.locking_level ->
  t ->
  tdesc ->
  path:string ->
  desc
(** Create a transaction file and bind its name. *)

val topen : t -> tdesc -> path:string -> desc

val tclose : t -> tdesc -> desc -> unit

val tdelete : t -> tdesc -> path:string -> unit

val tread : t -> tdesc -> desc -> int -> bytes
(** Read at the descriptor's seek pointer (Iread locks: a
    transactional read is presumed to be read-for-update). *)

val tpread : t -> tdesc -> desc -> off:int -> len:int -> bytes

val twrite : t -> tdesc -> desc -> bytes -> unit

val tpwrite : t -> tdesc -> desc -> off:int -> data:bytes -> unit

val tlseek : t -> tdesc -> desc -> [ `Set of int | `Cur of int | `End of int ] -> int

val tget_attribute : t -> tdesc -> desc -> Rhodos_file.Fit.t

val tend : t -> tdesc -> unit
(** Commit; the agent process exits if this was the last
    transaction. *)

val tabort : t -> tdesc -> unit
