(* Model-checked soak test: several clients run long random operation
   sequences (create/write/read/truncate/delete, transactions, client
   crashes, one server crash+recovery) against the full remote
   cluster, while a byte-for-byte reference model tracks what each
   file must contain. At every synchronisation point the facility must
   agree with the model, and at the end the storage books must
   balance (fsck clean).

   Each file has a single writer (the paper does not promise coherence
   for cross-machine write sharing of basic files), so the model is
   exact. *)

module Sim = Rhodos_sim.Sim
module Cluster = Rhodos.Cluster
module Fa = Rhodos_agent.File_agent
module Ta = Rhodos_agent.Transaction_agent
module Fsck = Rhodos_file.Fsck
module Rng = Rhodos_util.Rng
open Support

type model_file = {
  path : string;
  mutable content : bytes; (* flushed/committed state only *)
  mutable desc : Fa.desc option;
}

let max_file = 60_000

let grow_to m size =
  if Bytes.length m.content < size then begin
    let bigger = Bytes.make size '\000' in
    Bytes.blit m.content 0 bigger 0 (Bytes.length m.content);
    m.content <- bigger
  end

(* One client's random session; returns the number of ops executed. *)
let client_session t c rng files ~ops =
  let executed = ref 0 in
  let ensure_open m =
    match m.desc with
    | Some d -> d
    | None ->
      let d = Cluster.open_file c m.path in
      m.desc <- Some d;
      d
  in
  for _ = 1 to ops do
    incr executed;
    let m = files.(Rng.int rng (Array.length files)) in
    match Rng.int rng 10 with
    | 0 | 1 | 2 ->
      (* write a random range, then flush so the model can record it *)
      let off = Rng.int rng (max 1 (Bytes.length m.content + 1)) in
      let len = 1 + Rng.int rng 4096 in
      if off + len <= max_file then begin
        let d = ensure_open m in
        let data = Bytes.make len (Char.chr (33 + Rng.int rng 90)) in
        Cluster.pwrite c d ~off ~data;
        Fa.flush (Cluster.file_agent c);
        grow_to m (off + len);
        Bytes.blit data 0 m.content off len
      end
    | 3 | 4 | 5 ->
      (* read a range and compare with the model *)
      let size = Bytes.length m.content in
      if size > 0 then begin
        let d = ensure_open m in
        let off = Rng.int rng size in
        let len = 1 + Rng.int rng (size - off) in
        let got = Cluster.pread c d ~off ~len in
        let expected = Bytes.sub m.content off (min len (size - off)) in
        if not (Bytes.equal got expected) then
          Alcotest.fail
            (Printf.sprintf "divergence on %s at %d+%d" m.path off len)
      end
    | 6 ->
      (* transactional overwrite at offset 0 *)
      let len = 1 + Rng.int rng 512 in
      let data = Bytes.make len (Char.chr (33 + Rng.int rng 90)) in
      (match
         Cluster.with_transaction c (fun ta td ->
             let fd = Ta.topen ta td ~path:m.path in
             Ta.tpwrite ta td fd ~off:0 ~data)
       with
      | () ->
        grow_to m len;
        Bytes.blit data 0 m.content 0 len
      | exception _ -> () (* aborted: model unchanged *))
    | 7 ->
      (* truncate to a random smaller size *)
      let size = Bytes.length m.content in
      if size > 1 then begin
        let target = Rng.int rng size in
        (* Truncate through the routed connection (the file may live
           on any server), then drop the agent's cached view. *)
        let gid = Fa.descriptor_file (Cluster.file_agent c) (ensure_open m) in
        (Cluster.fs_conn c).Rhodos_agent.Service_conn.truncate gid ~size:target;
        Fa.invalidate_file (Cluster.file_agent c) ~file:gid;
        m.content <- Bytes.sub m.content 0 target
      end
    | 8 ->
      (* reopen: close and reopen by name *)
      (match m.desc with
      | Some d ->
        Cluster.close c d;
        m.desc <- None
      | None -> ())
    | _ ->
      (* client crash: volatile state gone; everything the model
         knows was flushed, so nothing is lost from its viewpoint *)
      ignore (Cluster.crash_client t c);
      Array.iter (fun m -> m.desc <- None) files
  done;
  !executed

let full_audit () c files =
  Array.iter
    (fun m ->
      (match m.desc with Some d -> (try Cluster.close c d with _ -> ()) | None -> ());
      m.desc <- None;
      let d = Cluster.open_file c m.path in
      let size = Fa.size (Cluster.file_agent c) d in
      check bool (m.path ^ ": size agrees") true (size = Bytes.length m.content);
      if size > 0 then begin
        let got = Cluster.pread c d ~off:0 ~len:size in
        check bool (m.path ^ ": content agrees") true (Bytes.equal got m.content)
      end;
      Cluster.close c d)
    files

let test_soak () =
  Cluster.run
    ~config:{ Cluster.default_config with Cluster.nservers = 2 }
    (fun sim t ->
      let rng = Rng.create 2026 in
      let nclients = 3 and files_per_client = 4 in
      Cluster.mkdir (Cluster.add_client t ~name:"setup") "/stress";
      let sessions =
        List.init nclients (fun ci ->
            let c = Cluster.add_client t ~name:(Printf.sprintf "cl%d" ci) in
            let files =
              Array.init files_per_client (fun fi ->
                  let path = Printf.sprintf "/stress/c%d-f%d" ci fi in
                  let d = Cluster.create_file c path in
                  Cluster.close c d;
                  { path; content = Bytes.empty; desc = None })
            in
            (c, files, Rng.split rng))
      in
      (* Phase 1: concurrent random sessions. *)
      let done_count = ref 0 in
      List.iter
        (fun (c, files, rng) ->
          ignore
            (Sim.spawn sim (fun () ->
                 ignore (client_session t c rng files ~ops:40);
                 incr done_count)))
        sessions;
      while !done_count < nclients do
        Sim.sleep sim 200.
      done;
      List.iter (fun (c, files, _) -> full_audit () c files) sessions;
      (* Phase 2: server crash in the middle of more activity, then
         recovery; flushed state must survive. *)
      ignore (Cluster.crash_server t);
      ignore (Cluster.recover_server t);
      List.iter (fun (c, files, _) -> full_audit () c files) sessions;
      (* Phase 3: more work after recovery, then the final audit and
         the storage books. *)
      let done_count = ref 0 in
      List.iter
        (fun (c, files, rng) ->
          ignore
            (Sim.spawn sim (fun () ->
                 ignore (client_session t c rng files ~ops:25);
                 incr done_count)))
        sessions;
      while !done_count < nclients do
        Sim.sleep sim 200.
      done;
      List.iter (fun (c, files, _) -> full_audit () c files) sessions;
      let report = Cluster.fsck t in
      check bool
        (Format.asprintf "storage balanced: %a" Fsck.pp_report report)
        true (Fsck.is_clean report))

let () =
  Alcotest.run "rhodos_stress"
    [ ("soak", [ Alcotest.test_case "model-checked soak" `Slow test_soak ]) ]
