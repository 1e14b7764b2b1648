(** Physical disk model.

    This is the substitution for the paper's real drives: a disk with
    explicit geometry whose every request costs simulated time computed
    from seek distance, rotational position and transfer length, and
    which counts exactly the quantities the paper's performance
    arguments are stated in — disk references, seeks, sectors moved.

    A request for [count] contiguous sectors is served as ONE disk
    reference (one seek + one rotational wait + a streaming transfer),
    which is precisely the property the RHODOS disk service exploits
    ("any operation on a set of contiguous blocks/fragments can be
    accomplished in one single reference to the disk", section 4).

    Requests from concurrent processes queue at the disk and are
    dispatched by a pluggable scheduler (FCFS, SSTF or elevator/SCAN).
    All operations must be called from within a [Sim] process. *)

type geometry = {
  cylinders : int;
  heads : int;                 (** tracks per cylinder *)
  sectors_per_track : int;
  sector_bytes : int;
  seek_start_ms : float;       (** fixed cost of any head movement *)
  seek_per_cyl_ms : float;     (** additional cost per cylinder crossed *)
  rpm : float;                 (** rotational speed *)
  track_switch_ms : float;     (** head/track switch during streaming *)
}

val default_geometry : geometry
(** A 1994-plausible drive: 512-byte sectors, 64 sectors/track, 8
    heads, 256 cylinders (64 MiB), 5400 rpm, ~3-16 ms seeks. *)

val geometry_with_capacity : ?base:geometry -> int -> geometry
(** [geometry_with_capacity bytes] scales the cylinder count of [base]
    (default [default_geometry]) to reach at least [bytes] capacity. *)

type scheduler = Fcfs | Sstf | Scan

type t

exception Media_failure of { disk : string; sector : int }
(** A decayed sector was read. *)

exception Disk_failed of string
(** The whole unit is dead. *)

val create :
  ?name:string ->
  ?scheduler:scheduler ->
  Rhodos_sim.Sim.t ->
  geometry ->
  t
(** Every physical reference emits a ["disk"] span (covering queueing
    plus service time) on the world's tracer ([Rhodos_obs.Trace.of_sim])
    under the caller's ambient trace context; free when no subscriber
    is attached. *)

val name : t -> string

val sim : t -> Rhodos_sim.Sim.t

val geometry : t -> geometry

val capacity_sectors : t -> int

val capacity_bytes : t -> int

val read : t -> sector:int -> count:int -> bytes
(** Read [count] contiguous sectors starting at [sector] as one disk
    reference. Blocks for the simulated service time.
    @raise Media_failure if any requested sector has decayed.
    @raise Disk_failed if the unit has failed.
    @raise Invalid_argument on an out-of-range request. *)

val write : t -> sector:int -> bytes -> unit
(** Write whole sectors ([Bytes.length] must be a multiple of the
    sector size) as one disk reference. Writing a decayed sector
    repairs it (the model of sector rewrite/remap). *)

(** {1 Fault injection} *)

val inject_media_fault : t -> sector:int -> count:int -> unit

val clear_media_faults : t -> unit

val fail_unit : t -> unit

val revive_unit : t -> unit
(** Bring a failed unit back (its data survives — the model of a
    transient controller/power failure; media faults persist). *)

val peek : t -> sector:int -> count:int -> bytes
(** Read the platter image without simulated time, bypassing fault
    checks. For tests and integrity checkers only. *)

val poke : t -> sector:int -> bytes -> unit
(** Write the image without simulated time. For tests only. *)

(** {1 Statistics} *)

type stats = {
  references : int;        (** completed requests *)
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
  seeks : int;             (** requests that moved the head *)
  seek_ms : float;
  rotation_ms : float;
  transfer_ms : float;
  busy_ms : float;
  queue_wait : Rhodos_util.Stats.t;  (** per-request wait before service *)
}

val stats : t -> stats

val reset_stats : t -> unit

val pp_stats : Format.formatter -> stats -> unit
