(* A request handler returns with its transaction's grant held (2PL
   keeps it until commit) and is handed to [Net.Rpc.serve], which runs
   it later in a process of its own per request. Starting the server
   holds no grant, so the RPC after it is not under a lock. *)
(* expect-clean *)

let handle lm txn = Lock_manager.acquire lm ~txn (Record_item 51) Iwrite

let commit lm txn = Lock_manager.release_all lm ~txn

let start_then_call net node lm port txn =
  let _ = Net.Rpc.serve net node (handle lm) in
  Net.Rpc.call net ~from:node port txn
