(* Negative control for rpc_handler_ok: the same handler called in
   line (the co-located path) leaves its grant held on the caller's
   path, so the RPC that follows blocks under the lock. *)
(* expect: may-block-under-lock *)

let handle lm txn = Lock_manager.acquire lm ~txn (Record_item 61) Iwrite

let commit lm txn = Lock_manager.release_all lm ~txn

let call_in_line_then_rpc net node lm port txn =
  handle lm txn;
  Net.Rpc.call net ~from:node port txn
