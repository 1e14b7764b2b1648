(** Simulated network for the RHODOS client-server interface
    (paper section 3).

    Nodes are workstations/servers; messages between distinct nodes
    pay latency plus a bandwidth-proportional transfer time, and can
    be lost or duplicated under fault injection. Messages within a
    node are free and reliable.

    The paper's reliability story is built on idempotent message
    semantics ("their repetition in RHODOS does not produce any
    uncertain effect"); the {!Rpc} module implements exactly that:
    clients retry on timeout, servers deduplicate by request id and
    replay the recorded reply, so every operation executes at most
    once no matter how often the network duplicates or drops it. *)

type t

type node

val create :
  ?seed:int ->
  ?latency_ms:float ->
  ?bandwidth_bytes_per_ms:float ->
  Rhodos_sim.Sim.t ->
  t
(** Defaults: 0.5 ms latency (a 1994 LAN round trip is ~1 ms),
    1000 bytes/ms (~ 8 Mbit/s effective). Each [Rpc.call] runs in a
    ["net"] span on the world's tracer ([Rhodos_obs.Trace.of_sim]),
    and the caller's trace context rides to the server-side handler,
    so one request renders as one causal tree across the hop. *)

val sim : t -> Rhodos_sim.Sim.t

val stats : t -> Rhodos_util.Stats.Counter.t
(** Counters: ["sends"], ["drops"] (loss + partitions), ["dups"],
    ["wire_enqueued"] / ["deliveries"] (messages put on / taken off
    the wire), ["rpc_calls"], ["rpc_retries"], ["rpc_replays"]
    (deduplicated reply replays), ["rpc_timeouts"],
    ["handler_execs"]. *)

val in_flight : t -> int
(** Inter-node messages currently on the wire (enqueued for delivery
    and not yet delivered; lost or partition-dropped sends never
    count). A queue-depth gauge for profiler counter tracks. *)

val add_node : t -> string -> node

val node_name : node -> string

val nodes : t -> node list

(** {1 Fault injection} *)

val set_loss_rate : t -> float -> unit
(** Probability in [0,1] that any inter-node message is dropped. *)

val set_duplicate_rate : t -> float -> unit
(** Probability that an inter-node message is delivered twice. *)

val set_partitioned : node -> bool -> unit
(** A partitioned node neither sends nor receives inter-node
    messages. *)

val is_partitioned : node -> bool

val crash_node : t -> node -> int
(** Kill every process spawned on the node via [spawn_on]; returns
    how many were killed. The node can keep being used afterwards
    (model of a reboot) — services must be re-created and recovered
    by the caller. *)

(** {1 Processes and messaging} *)

type 'a endpoint
(** A typed receive port bound to a node. *)

val spawn_on : ?name:string -> t -> node -> (unit -> unit) -> Rhodos_sim.Sim.pid
(** Spawn a process owned by the node: [crash_node] will kill it. *)

val send : ?size_bytes:int -> t -> from:node -> 'a endpoint -> 'a -> unit
(** One-way message: pays latency/transfer, subject to loss,
    duplication and partitions. Never blocks the sender beyond the
    local send cost. *)

val endpoint : t -> node -> 'a endpoint
(** A fresh receive port owned by [node]. *)

val recv : 'a endpoint -> 'a
(** Block until a message arrives (must run on the owning node's
    process). *)

val recv_timeout : 'a endpoint -> float -> 'a option

module Rpc : sig
  type ('req, 'resp) port

  exception Timeout of string
  (** Raised by [call] after all retries are exhausted. *)

  val serve :
    ?name:string ->
    t ->
    node ->
    ('req -> 'resp) ->
    ('req, 'resp) port
  (** Start serving: each unique request spawns the handler in its own
      process on the server node. Replies to duplicate request ids are
      replayed from the reply cache without re-executing the handler —
      the "nearly stateless" idempotent server of the paper. A reply
      is kept only until no copy of its request can still arrive: the
      call's last retry plus the network's worst duplicate delay. *)

  val stop : ('req, 'resp) port -> unit

  val call :
    ?timeout_ms:float ->
    ?max_retries:int ->
    ?size_bytes:int ->
    ?resp_size_bytes:int ->
    ?op:string ->
    t ->
    from:node ->
    ('req, 'resp) port ->
    'req ->
    'resp
  (** At-most-once RPC with retries (defaults: 50 ms timeout, 5
      retries). [size_bytes]/[resp_size_bytes] (default 256) model the
      payload sizes for transfer-time purposes. [op] labels the RPC's
      trace span (default ["rpc:<server name>"]).
      @raise Timeout when every attempt is lost. *)

  val handler_executions : ('req, 'resp) port -> int
  (** How many times the handler actually ran — compare with the
      number of [call]s under duplication to verify at-most-once
      execution. *)

  val cached_replies : ('req, 'resp) port -> int
  (** Requests the reply cache currently remembers, running or
      completed. *)
end
