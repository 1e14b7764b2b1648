(* TPC-B-shaped debit-credit through Cluster.with_transaction.

   A record-locked ledger file holds account, teller and branch
   records. Each transaction reads and rewrites one account, one teller
   and one branch: the account and the teller gain [delta], the branch
   pays [2 * delta], so the sum over the ledger never changes. The four
   clients share the ledger, so its few branch records are contended.

   An op is one transaction attempt. An aborted attempt is a failed op,
   counted by its abort reason; the client moves on to its next
   transfer. *)

open Measure
module Cluster = Rhodos.Cluster
module Rng = Rhodos_util.Rng
module Ta = Rhodos_agent.Transaction_agent
module Txn = Rhodos_txn.Txn_service
module Fit = Rhodos_file.Fit
module Net = Rhodos_net.Net

let accounts = 64
let tellers = 8
let branches = 4
let records = accounts + tellers + branches
let rec_bytes = 16
let initial = 1_000_000
let txns_per_client = 2000

let encode v = Bytes.of_string (Printf.sprintf "%015d\n" v)

let decode b =
  match int_of_string_opt (String.trim (Bytes.to_string b)) with
  | Some v -> v
  | None -> fail "ledger: unreadable record %S" (Bytes.to_string b)

type transfer = { account : int; teller : int; branch : int; delta : int }

(* Records [account], [accounts + teller], [accounts + tellers + branch]. *)
let slots x = [ (x.account, x.delta); (accounts + x.teller, x.delta); (accounts + tellers + x.branch, -2 * x.delta) ]

let nclients = 4
let ledger = "/bank/ledger"

let gen rng =
  Array.init txns_per_client (fun _ ->
      let account = Rng.int rng accounts in
      let teller = Rng.int rng tellers in
      let branch = Rng.int rng branches in
      { account; teller; branch; delta = 1 + Rng.int rng 999 })

let transfer ta td path x =
  let fd = Ta.topen ta td ~path in
  List.iter
    (fun (r, d) ->
      let off = r * rec_bytes in
      let v = decode (Ta.tpread ta td fd ~off ~len:rec_bytes) in
      Ta.tpwrite ta td fd ~off ~data:(encode (v + d)))
    (slots x)

(* Every record equals the model: the initial balance plus every
   committed transfer, and nothing from an aborted one. *)
let audit c model =
  Cluster.with_transaction c (fun ta td ->
      let fd = Ta.topen ta td ~path:ledger in
      let got = Ta.tpread ta td fd ~off:0 ~len:(records * rec_bytes) in
      let sum = ref 0 in
      for r = 0 to records - 1 do
        let v = decode (Bytes.sub got (r * rec_bytes) rec_bytes) in
        if v <> model.(r) then fail "%s: record %d is %d, model says %d" ledger r v model.(r);
        sum := !sum + v
      done;
      if !sum <> records * initial then fail "%s: balance sum %d, expected %d" ledger !sum (records * initial))

type teller = { client : Cluster.client; ops : transfer array }

let txn_2pl ~seed ~traced =
  let model = Array.make records initial in
  Stack.round
    ~config:{ Cluster.default_config with Cluster.seed; disk_capacity_bytes = 8 * 1024 * 1024 }
    ~traced
    ~setup:(fun t ->
      let rng = Rng.create seed in
      let clients = Array.init nclients (fun i -> Cluster.add_client t ~name:(Printf.sprintf "teller%d" i)) in
      Cluster.mkdir clients.(0) "/bank";
      Cluster.with_transaction clients.(0) (fun ta td ->
          let fd = Ta.tcreate ~locking_level:Fit.Record_level ta td ~path:ledger in
          Ta.tpwrite ta td fd ~off:0
            ~data:(Bytes.concat Bytes.empty (List.init records (fun _ -> encode initial))));
      Array.map (fun client -> { client; ops = gen (Rng.split rng) }) clients)
    ~clients:(fun sim t tellers rec_ ->
      Array.to_list
        (Array.map
           (fun tl () ->
             Array.iter
               (fun x ->
                 let t0 = Sim.now sim and committing = ref false in
                 match
                   Stack.span t "transaction" (fun () ->
                       Cluster.with_transaction tl.client (fun ta td ->
                           transfer ta td ledger x;
                           committing := true))
                 with
                 | () ->
                   Recorder.success rec_ (Sim.now sim -. t0);
                   rec_.Recorder.bytes_written <- rec_.Recorder.bytes_written + (3 * rec_bytes);
                   List.iter (fun (r, d) -> model.(r) <- model.(r) + d) (slots x)
                 | exception Txn.Aborted { reason; _ } -> Recorder.failure rec_ ("aborted: " ^ reason)
                 | exception Net.Rpc.Timeout _ when not !committing -> Recorder.failure rec_ "net: timeout"
                 | exception Net.Rpc.Timeout _ ->
                   (* Timed out in tend: the model cannot know whether
                      the transfer committed. *)
                   fail "%s: RPC timeout in commit leaves a transfer's outcome unknown" ledger)
               tl.ops)
           tellers))
    ~check:(fun tellers -> audit tellers.(0).client model)

