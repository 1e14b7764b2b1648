(* The two basic-file workloads: cold_scan and small_files.

   Both run four closed-loop clients, each issuing its next operation
   as soon as the previous one returns, with no think time. Every read
   is compared byte for byte with the benchmark's own model of the
   file, which each client owns alone so the model is exact. *)

open Measure
module Cluster = Rhodos.Cluster
module Rng = Rhodos_util.Rng
module Workload = Rhodos_workload.Workload
module Ns = Rhodos_naming.Name_service
module Net = Rhodos_net.Net

let kib n = n * 1024
let mib n = n * 1024 * 1024
let nclients = 4

let random_bytes rng n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Rng.int rng 256))
  done;
  b

(* [got] equals [model] from [off] on. *)
let check_read ~what model off got =
  let n = Bytes.length got in
  if off + n > Bytes.length model then fail "%s: read of %d at %d past the model" what n off;
  for i = 0 to n - 1 do
    if Bytes.unsafe_get got i <> Bytes.unsafe_get model (off + i) then
      fail "%s: byte %d differs from the model" what (off + i)
  done

(* Populate [path] through client [c] in 8 KiB appends, each flushed
   to the file service, and leave it closed: the timed phase starts
   with nothing dirty. The flush is needed for correctness, not speed:
   without it the agent's delayed-write cache loses blocks once a
   client writes more than its cache holds (README.md, standing
   findings). *)
let populate c path data =
  let d = Cluster.create_file c path in
  let n = Bytes.length data in
  let rec go off =
    if off < n then begin
      Cluster.write c d (Bytes.sub data off (min (kib 8) (n - off)));
      Rhodos_agent.File_agent.flush (Cluster.file_agent c);
      go (off + kib 8)
    end
  in
  go 0;
  Cluster.close c d

(* Failure accounting for the basic-file ops: naming errors are failed
   ops, and so is an RPC timeout in an op that changes nothing. A
   timeout in a write, create or delete leaves its outcome unknown to
   the model, so it fails the run. Anything else aborts the run. *)
let attempt ?(mutates = false) rec_ sim f =
  match Recorder.timed rec_ sim f with
  | () -> ()
  | exception Ns.Name_not_found _ -> Recorder.failure rec_ "naming: not found"
  | exception Ns.Already_bound _ -> Recorder.failure rec_ "naming: already bound"
  | exception Ns.Unresolvable _ -> Recorder.failure rec_ "naming: unresolvable"
  | exception Net.Rpc.Timeout _ when not mutates -> Recorder.failure rec_ "net: timeout"
  | exception Net.Rpc.Timeout _ -> fail "RPC timeout in a write leaves its outcome unknown"

(* ------------------------------------------------------------------ *)
(* cold_scan: each client scans its own 2 MiB file in 8 KiB reads, for
   [scan_passes] passes. 8 MiB in all: larger than one client's 512 KiB
   cache and the server's 1 MiB cache, so every pass misses.          *)

let scan_bytes = mib 2
let scan_chunk = kib 8
let scan_passes = 12

type scanner = { s_client : Cluster.client; s_model : bytes; s_start : int; s_delay : float }

let cold_scan ~seed ~traced =
  Stack.round
    ~config:{ Cluster.default_config with Cluster.seed; disk_capacity_bytes = mib 16 }
    ~traced
    ~setup:(fun t ->
      let rng = Rng.create seed in
      Array.init nclients (fun i ->
          let c = Cluster.add_client t ~name:(Printf.sprintf "scan%d" i) in
          let model = random_bytes rng scan_bytes in
          populate c (Printf.sprintf "/scan%d" i) model;
          (* Each client starts its passes at its own block and after
             its own short delay, so the four scans interleave
             differently for every seed. *)
          {
            s_client = c;
            s_model = model;
            s_start = Rng.int rng (scan_bytes / scan_chunk);
            s_delay = Rng.float rng 5.;
          }))
    ~clients:(fun sim t scanners rec_ ->
      Array.to_list
        (Array.mapi
           (fun i s ->
             fun () ->
               let c = s.s_client in
               let d = Cluster.open_file c (Printf.sprintf "/scan%d" i) in
               Sim.sleep sim s.s_delay;
               let blocks = scan_bytes / scan_chunk in
               for _ = 1 to scan_passes do
                 for k = 0 to blocks - 1 do
                   let off = (s.s_start + k) mod blocks * scan_chunk in
                   attempt rec_ sim (fun () ->
                       let got =
                         Stack.span t "pread" (fun () -> Cluster.pread c d ~off ~len:scan_chunk)
                       in
                       check_read ~what:"cold_scan" s.s_model off got)
                 done
               done;
               Cluster.close c d)
           scanners))
    ~check:(fun _ -> ())

(* ------------------------------------------------------------------ *)
(* small_files: ~200 files sized by Workload.file_size_distribution,
   50 per client. Each client runs a Zipf-skewed mix of
   open/pread-or-pwrite/close over its own files (ordered smallest
   first, so the hot set fits its cache), and one op in [churn_every]
   creates or deletes a small temporary file.                          *)

let sf_files = 200
let sf_ops_per_client = 1500
let sf_chunk = kib 4
let sf_read_fraction = 0.8
let sf_theta = 0.9
let churn_every = 10

type sf_op =
  | Access of { file : int; off : int; len : int; data : bytes option }
  | Create of { path : string; data : bytes }
  | Delete of string

type sf_client = {
  f_client : Cluster.client;
  f_paths : string array;
  f_models : bytes array;
  f_ops : sf_op array;
  f_temps : (string, bytes) Hashtbl.t;  (* temporary files alive *)
}

let sf_path c f = Printf.sprintf "/sf%d/f%03d" c f

(* The op stream of client [c], generated before the timed phase. *)
let sf_gen rng c sizes =
  let files = Array.mapi (fun i size -> (i, size)) sizes in
  let accesses =
    Array.of_list
      (Workload.hotspot_ops ~rng ~files ~count:sf_ops_per_client ~chunk:sf_chunk
         ~read_fraction:sf_read_fraction ~theta:sf_theta)
  in
  let live = Queue.create () and next = ref 0 in
  Array.mapi
    (fun k op ->
      if k mod churn_every = churn_every - 1 then
        if Queue.length live < 4 || Rng.bool rng then begin
          let path = Printf.sprintf "/sf%d/tmp%d" c !next in
          incr next;
          Queue.push path live;
          Create { path; data = random_bytes rng (512 + Rng.int rng (kib 4)) }
        end
        else Delete (Queue.pop live)
      else
        match op with
        | Workload.Read { file; off; len } -> Access { file; off; len; data = None }
        | Workload.Write { file; off; len } ->
          Access { file; off; len; data = Some (random_bytes rng len) })
    accesses

let sf_op rec_ sim t s = function
  | Access { file; off; len; data } ->
    attempt ~mutates:(data <> None) rec_ sim (fun () ->
        let c = s.f_client in
        let d = Stack.span t "open" (fun () -> Cluster.open_file c s.f_paths.(file)) in
        (match data with
        | None ->
          let got = Stack.span t "pread" (fun () -> Cluster.pread c d ~off ~len) in
          check_read ~what:s.f_paths.(file) s.f_models.(file) off got
        | Some data ->
          Stack.span t "pwrite" (fun () -> Cluster.pwrite c d ~off ~data);
          Bytes.blit data 0 s.f_models.(file) off len;
          rec_.Recorder.bytes_written <- rec_.Recorder.bytes_written + len);
        Stack.span t "close" (fun () -> Cluster.close c d))
  | Create { path; data } ->
    attempt ~mutates:true rec_ sim (fun () ->
        Stack.span t "create" (fun () -> populate s.f_client path data);
        Hashtbl.replace s.f_temps path data;
        rec_.Recorder.bytes_written <- rec_.Recorder.bytes_written + Bytes.length data)
  | Delete path ->
    attempt ~mutates:true rec_ sim (fun () ->
        Stack.span t "delete" (fun () -> Cluster.delete s.f_client path);
        Hashtbl.remove s.f_temps path)

(* Read every file back whole and compare it with the model. *)
let sf_check s =
  let c = s.f_client in
  let verify path model =
    let d = Cluster.open_file c path in
    check_read ~what:path model 0 (Cluster.pread c d ~off:0 ~len:(Bytes.length model));
    Cluster.close c d
  in
  Array.iteri (fun i p -> verify p s.f_models.(i)) s.f_paths;
  Hashtbl.iter verify s.f_temps

let small_files ~seed ~traced =
  Stack.round
    ~config:{ Cluster.default_config with Cluster.seed }
    ~traced
    ~setup:(fun t ->
      let rng = Rng.create seed in
      let sizes = Array.of_list (Workload.file_size_distribution ~rng ~n:sf_files) in
      Array.init nclients (fun c ->
          let client = Cluster.add_client t ~name:(Printf.sprintf "files%d" c) in
          Cluster.mkdir client (Printf.sprintf "/sf%d" c);
          let own = Array.of_list (List.filteri (fun i _ -> i mod nclients = c) (Array.to_list sizes)) in
          Array.sort compare own;
          let models = Array.map (random_bytes rng) own in
          let paths = Array.mapi (fun f _ -> sf_path c f) own in
          Array.iteri (fun f p -> populate client p models.(f)) paths;
          {
            f_client = client;
            f_paths = paths;
            f_models = models;
            f_ops = sf_gen rng c own;
            f_temps = Hashtbl.create 8;
          }))
    ~clients:(fun sim t clients rec_ ->
      Array.to_list
        (Array.map (fun s () -> Array.iter (sf_op rec_ sim t s) s.f_ops) clients))
    ~check:(Array.iter sf_check)
