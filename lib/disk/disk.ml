module Sim = Rhodos_sim.Sim
module Stats = Rhodos_util.Stats
module Trace = Rhodos_obs.Trace

type geometry = {
  cylinders : int;
  heads : int;
  sectors_per_track : int;
  sector_bytes : int;
  seek_start_ms : float;
  seek_per_cyl_ms : float;
  rpm : float;
  track_switch_ms : float;
}

let default_geometry =
  {
    cylinders = 256;
    heads = 8;
    sectors_per_track = 64;
    sector_bytes = 512;
    seek_start_ms = 3.0;
    seek_per_cyl_ms = 0.05;
    rpm = 5400.;
    track_switch_ms = 1.0;
  }

let geometry_with_capacity ?(base = default_geometry) bytes =
  let per_cylinder = base.heads * base.sectors_per_track * base.sector_bytes in
  let cylinders = max 1 ((bytes + per_cylinder - 1) / per_cylinder) in
  { base with cylinders }

type scheduler = Fcfs | Sstf | Scan

exception Media_failure of { disk : string; sector : int }
exception Disk_failed of string

type result = Done of bytes | Failed of exn

type request = {
  sector : int;
  count : int;
  payload : bytes option; (* Some = write *)
  enqueued_at : float;
  seq : int;
  waker : result -> bool;
}

type stats = {
  references : int;
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
  seeks : int;
  seek_ms : float;
  rotation_ms : float;
  transfer_ms : float;
  busy_ms : float;
  queue_wait : Stats.t;
}

type t = {
  name : string;
  sim : Sim.t;
  tracer : Trace.t;
  geometry : geometry;
  image : bytes;
  faults : (int, unit) Hashtbl.t;
  mutable failed : bool;
  scheduler : scheduler;
  mutable queue : request list; (* pending, in arrival order *)
  mutable next_seq : int;
  mutable busy : bool;
  mutable head_cylinder : int;
  mutable scan_up : bool;
  (* statistics *)
  mutable references : int;
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable seeks : int;
  mutable seek_ms : float;
  mutable rotation_ms : float;
  mutable transfer_ms : float;
  mutable busy_ms : float;
  mutable queue_wait : Stats.t;
}

let capacity_sectors_of g = g.cylinders * g.heads * g.sectors_per_track

let create ?(name = "disk") ?(scheduler = Fcfs) sim geometry =
  let sectors = capacity_sectors_of geometry in
  {
    name;
    sim;
    tracer = Trace.of_sim sim;
    geometry;
    image = Bytes.make (sectors * geometry.sector_bytes) '\000';
    faults = Hashtbl.create 16;
    failed = false;
    scheduler;
    queue = [];
    next_seq = 0;
    busy = false;
    head_cylinder = 0;
    scan_up = true;
    references = 0;
    reads = 0;
    writes = 0;
    sectors_read = 0;
    sectors_written = 0;
    seeks = 0;
    seek_ms = 0.;
    rotation_ms = 0.;
    transfer_ms = 0.;
    busy_ms = 0.;
    queue_wait = Stats.create ();
  }

let name t = t.name
let sim t = t.sim
let geometry t = t.geometry
let capacity_sectors t = capacity_sectors_of t.geometry
let capacity_bytes t = capacity_sectors t * t.geometry.sector_bytes

let cylinder_of t sector = sector / (t.geometry.heads * t.geometry.sectors_per_track)

let revolution_ms t = 60_000. /. t.geometry.rpm

(* Rotational delay until [sector]'s angular position passes under the
   head, given the platter's deterministic angular position at [at]. *)
let rotation_delay t ~at ~sector =
  let g = t.geometry in
  let rev = revolution_ms t in
  let angle_now = Float.rem (at /. rev) 1.0 in
  let target = float_of_int (sector mod g.sectors_per_track) /. float_of_int g.sectors_per_track in
  let delta = target -. angle_now in
  let delta = if delta < 0. then delta +. 1.0 else delta in
  delta *. rev

(* Service-time decomposition for one request: seek to the starting
   cylinder, rotate to the starting sector, then stream, paying a
   track-switch penalty at each track boundary crossed. *)
let service_time t ~at ~sector ~count =
  let g = t.geometry in
  let target_cyl = cylinder_of t sector in
  let distance = abs (target_cyl - t.head_cylinder) in
  let seek =
    if distance = 0 then 0.
    else g.seek_start_ms +. (g.seek_per_cyl_ms *. float_of_int distance)
  in
  let rotation = rotation_delay t ~at:(at +. seek) ~sector in
  let per_sector = revolution_ms t /. float_of_int g.sectors_per_track in
  let first_track_room = g.sectors_per_track - (sector mod g.sectors_per_track) in
  let switches =
    if count <= first_track_room then 0
    else 1 + ((count - first_track_room - 1) / g.sectors_per_track)
  in
  let transfer =
    (float_of_int count *. per_sector)
    +. (float_of_int switches *. g.track_switch_ms)
  in
  (seek, rotation, transfer, target_cyl, distance > 0)

let check_range t ~sector ~count =
  if sector < 0 || count <= 0 || sector + count > capacity_sectors t then
    invalid_arg
      (Printf.sprintf "%s: request [%d,+%d) outside 0..%d" t.name sector count
         (capacity_sectors t))

let first_fault t ~sector ~count =
  let rec loop i =
    if i >= sector + count then None
    else if Hashtbl.mem t.faults i then Some i
    else loop (i + 1)
  in
  loop sector

let perform_io t req =
  let g = t.geometry in
  match req.payload with
  | None -> (
    match first_fault t ~sector:req.sector ~count:req.count with
    | Some s -> Failed (Media_failure { disk = t.name; sector = s })
    | None ->
      t.reads <- t.reads + 1;
      t.sectors_read <- t.sectors_read + req.count;
      Done (Bytes.sub t.image (req.sector * g.sector_bytes) (req.count * g.sector_bytes)))
  | Some data ->
    Bytes.blit data 0 t.image (req.sector * g.sector_bytes) (Bytes.length data);
    (* Rewriting a decayed sector repairs it. *)
    for s = req.sector to req.sector + req.count - 1 do
      Hashtbl.remove t.faults s
    done;
    t.writes <- t.writes + 1;
    t.sectors_written <- t.sectors_written + req.count;
    Done Bytes.empty

(* Pick the next request according to the scheduling policy and remove
   it from the queue. The queue is kept in arrival order, so FCFS is
   the head; SSTF minimises seek distance; SCAN sweeps the cylinders
   in the current direction, reversing at the extremes. *)
let pick_next t =
  match t.queue with
  | [] -> None
  | first :: _ ->
    let chosen =
      match t.scheduler with
      | Fcfs -> first
      | Sstf ->
        let dist r = abs (cylinder_of t r.sector - t.head_cylinder) in
        List.fold_left
          (fun best r ->
            let d = dist r and db = dist best in
            if d < db || (d = db && r.seq < best.seq) then r else best)
          first (List.tl t.queue)
      | Scan ->
        let cyl r = cylinder_of t r.sector in
        let ahead, behind =
          List.partition
            (fun r ->
              if t.scan_up then cyl r >= t.head_cylinder
              else cyl r <= t.head_cylinder)
            t.queue
        in
        let nearest rs =
          match rs with
          | [] -> None
          | r0 :: rest ->
            Some
              (List.fold_left
                 (fun best r ->
                   let d = abs (cyl r - t.head_cylinder)
                   and db = abs (cyl best - t.head_cylinder) in
                   if d < db || (d = db && r.seq < best.seq) then r else best)
                 r0 rest)
        in
        (match nearest ahead with
        | Some r -> r
        | None ->
          t.scan_up <- not t.scan_up;
          (match nearest behind with Some r -> r | None -> first))
    in
    t.queue <- List.filter (fun r -> r.seq <> chosen.seq) t.queue;
    Some chosen

(* The per-disk server: runs as a chain of scheduled closures so it
   needs no dedicated process. [pump] is called whenever the disk goes
   idle or a request arrives while idle. *)
let rec pump t =
  if not t.busy then
    match pick_next t with
    | None -> ()
    | Some req ->
      t.busy <- true;
      Stats.add t.queue_wait (Sim.now t.sim -. req.enqueued_at);
      if t.failed then begin
        ignore (req.waker (Failed (Disk_failed t.name)));
        t.busy <- false;
        pump t
      end
      else begin
        let at = Sim.now t.sim in
        let seek, rotation, transfer, target_cyl, moved =
          service_time t ~at ~sector:req.sector ~count:req.count
        in
        let total = seek +. rotation +. transfer in
        t.references <- t.references + 1;
        if moved then t.seeks <- t.seeks + 1;
        t.seek_ms <- t.seek_ms +. seek;
        t.rotation_ms <- t.rotation_ms +. rotation;
        t.transfer_ms <- t.transfer_ms +. transfer;
        t.busy_ms <- t.busy_ms +. total;
        t.head_cylinder <- target_cyl;
        Sim.schedule t.sim ~at:(at +. total) (fun () ->
            let result = perform_io t req in
            ignore (req.waker result);
            t.busy <- false;
            pump t)
      end

(* One span per physical disk reference, covering queueing plus
   service time; it runs in the submitting process, so it nests under
   whatever request span fanned out this I/O. *)
let submit t ~sector ~count ~payload =
  Trace.maybe t.tracer ~service:"disk"
    ~op:(match payload with None -> "read" | Some _ -> "write")
    ~attrs:(fun () ->
      [ ("disk", Trace.Str t.name); ("sector", Trace.Int sector);
        ("sectors", Trace.Int count) ])
    (fun () ->
      check_range t ~sector ~count;
      if t.failed then raise (Disk_failed t.name);
      let result =
        Sim.suspend t.sim (fun waker ->
            let req =
              { sector; count; payload; enqueued_at = Sim.now t.sim;
                seq = t.next_seq; waker }
            in
            t.next_seq <- t.next_seq + 1;
            t.queue <- t.queue @ [ req ];
            pump t)
      in
      match result with Done data -> data | Failed e -> raise e)

let read t ~sector ~count = submit t ~sector ~count ~payload:None

let write t ~sector data =
  let g = t.geometry in
  if Bytes.length data = 0 || Bytes.length data mod g.sector_bytes <> 0 then
    invalid_arg "Disk.write: data must be a positive multiple of the sector size";
  let count = Bytes.length data / g.sector_bytes in
  ignore (submit t ~sector ~count ~payload:(Some data))

let inject_media_fault t ~sector ~count =
  for s = sector to sector + count - 1 do
    Hashtbl.replace t.faults s ()
  done

let clear_media_faults t = Hashtbl.reset t.faults

let fail_unit t = t.failed <- true

let revive_unit t = t.failed <- false

let peek t ~sector ~count =
  check_range t ~sector ~count;
  Bytes.sub t.image (sector * t.geometry.sector_bytes) (count * t.geometry.sector_bytes)

let poke t ~sector data =
  let g = t.geometry in
  if Bytes.length data mod g.sector_bytes <> 0 then
    invalid_arg "Disk.poke: data must be a multiple of the sector size";
  check_range t ~sector ~count:(Bytes.length data / g.sector_bytes);
  Bytes.blit data 0 t.image (sector * g.sector_bytes) (Bytes.length data)

let stats t =
  {
    references = t.references;
    reads = t.reads;
    writes = t.writes;
    sectors_read = t.sectors_read;
    sectors_written = t.sectors_written;
    seeks = t.seeks;
    seek_ms = t.seek_ms;
    rotation_ms = t.rotation_ms;
    transfer_ms = t.transfer_ms;
    busy_ms = t.busy_ms;
    queue_wait = t.queue_wait;
  }

let reset_stats t =
  t.references <- 0;
  t.reads <- 0;
  t.writes <- 0;
  t.sectors_read <- 0;
  t.sectors_written <- 0;
  t.seeks <- 0;
  t.seek_ms <- 0.;
  t.rotation_ms <- 0.;
  t.transfer_ms <- 0.;
  t.busy_ms <- 0.;
  t.queue_wait <- Stats.create ()

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "refs=%d (r=%d w=%d) sectors=(r=%d w=%d) seeks=%d seek=%.2fms rot=%.2fms xfer=%.2fms busy=%.2fms"
    s.references s.reads s.writes s.sectors_read s.sectors_written s.seeks
    s.seek_ms s.rotation_ms s.transfer_ms s.busy_ms
