module Sim = Rhodos_sim.Sim
module Rng = Rhodos_util.Rng
module Counter = Rhodos_util.Stats.Counter
module Trace = Rhodos_obs.Trace

type node = {
  name : string;
  mutable partitioned : bool;
  mutable procs : Sim.pid list;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  latency_ms : float;
  bandwidth_bytes_per_ms : float;
  mutable loss_rate : float;
  mutable duplicate_rate : float;
  mutable node_list : node list;
  mutable next_call_id : int;
  counters : Counter.t;
  tracer : Trace.t;
}

let create ?(seed = 1) ?(latency_ms = 0.5) ?(bandwidth_bytes_per_ms = 1000.)
    sim =
  {
    sim;
    rng = Rng.create seed;
    latency_ms;
    bandwidth_bytes_per_ms;
    loss_rate = 0.;
    duplicate_rate = 0.;
    node_list = [];
    next_call_id = 0;
    counters = Counter.create ();
    tracer = Trace.of_sim sim;
  }

let sim t = t.sim
let stats t = t.counters

let add_node t name =
  let node = { name; partitioned = false; procs = [] } in
  t.node_list <- t.node_list @ [ node ];
  node

let node_name node = node.name
let nodes t = t.node_list
let set_loss_rate t r = t.loss_rate <- r
let set_duplicate_rate t r = t.duplicate_rate <- r
let set_partitioned node b = node.partitioned <- b
let is_partitioned node = node.partitioned

let crash_node t node =
  let killed = List.length (List.filter (Sim.is_alive t.sim) node.procs) in
  List.iter (fun pid -> Sim.kill t.sim pid) node.procs;
  node.procs <- [];
  killed

let spawn_on ?name t node f =
  let pid = Sim.spawn ?name t.sim f in
  node.procs <- pid :: node.procs;
  pid

type 'a endpoint = { owner : node; mb : 'a Sim.Mailbox.mb }

let endpoint t node = { owner = node; mb = Sim.Mailbox.create t.sim }

let transfer_ms t ~size_bytes =
  t.latency_ms +. (float_of_int size_bytes /. t.bandwidth_bytes_per_ms)

let send ?(size_bytes = 256) t ~from ep v =
  if from == ep.owner then Sim.Mailbox.send ep.mb v
  else if from.partitioned || ep.owner.partitioned then
    Counter.incr t.counters "drops"
  else begin
    let deliver delay =
      Counter.incr t.counters "wire_enqueued";
      Sim.schedule t.sim ~at:(Sim.now t.sim +. delay) (fun () ->
          Counter.incr t.counters "deliveries";
          Sim.Mailbox.send ep.mb v)
    in
    let delay = transfer_ms t ~size_bytes in
    Counter.incr t.counters "sends";
    if Rng.float t.rng 1.0 >= t.loss_rate then deliver delay
    else Counter.incr t.counters "drops";
    if t.duplicate_rate > 0. && Rng.float t.rng 1.0 < t.duplicate_rate then begin
      Counter.incr t.counters "dups";
      deliver (delay *. 1.5)
    end
  end

let recv ep = Sim.Mailbox.recv ep.mb
let recv_timeout ep d = Sim.Mailbox.recv_timeout ep.mb d

(* Messages on the wire right now: enqueued for delivery (lost and
   partition-dropped sends never enqueue) minus delivered. Gives the
   wire's current queue depth to the profiler's counter tracks. *)
let in_flight t =
  Counter.get t.counters "wire_enqueued" - Counter.get t.counters "deliveries"

module Rpc = struct
  type ('req, 'resp) envelope = {
    id : int;
    req : 'req;
    reply_to : (int * 'resp) endpoint;
    resp_size : int;
    ctx : Trace.context option;
        (* trace context captured at [call], re-installed around the
           server-side handler so the whole hop is one causal tree *)
    expires_at : float;
        (* no copy of this request can arrive after this time: the
           last retry is sent [max_retries * timeout_ms] after the
           first, and a duplicate lands 1.5 transfers after its send *)
  }

  type 'resp request_state = In_progress | Completed of 'resp

  type ('req, 'resp) port = {
    net : t;
    node : node;
    srv_name : string;
    inbox : ('req, 'resp) envelope endpoint;
    seen : (int, 'resp request_state) Hashtbl.t;
    completed : (int * float) Queue.t;
        (* ids of [Completed] entries with their [expires_at], in
           completion order *)
    mutable execs : int;
    mutable running : bool;
    mutable loop : Sim.pid option;
  }

  exception Timeout of string

  let reply port env resp =
    send port.net ~size_bytes:env.resp_size ~from:port.node env.reply_to
      (env.id, resp)

  (* Forget the replies no duplicate can ask for any more. Lazy: the
     FIFO head may outlive an expired entry behind it, which is only
     dropped once the head goes. *)
  let expire_replies port =
    let now = Sim.now port.net.sim in
    while
      (not (Queue.is_empty port.completed)) && snd (Queue.peek port.completed) < now
    do
      Hashtbl.remove port.seen (fst (Queue.pop port.completed))
    done

  let rec serve_loop port handler () =
    if port.running then begin
      let env = recv port.inbox in
      expire_replies port;
      (match Hashtbl.find_opt port.seen env.id with
      | Some (Completed resp) ->
        (* Duplicate of a finished request: replay the recorded reply
           without re-executing — the idempotency guarantee. *)
        Counter.incr port.net.counters "rpc_replays";
        reply port env resp
      | Some In_progress ->
        (* Still executing; the client will retry and hit the cache. *)
        ()
      | None ->
        Hashtbl.replace port.seen env.id In_progress;
        port.execs <- port.execs + 1;
        Counter.incr port.net.counters "handler_execs";
        ignore
          (spawn_on ~name:(port.srv_name ^ "-handler") port.net port.node (fun () ->
               let resp =
                 Trace.with_restored port.net.tracer env.ctx (fun () ->
                     handler env.req)
               in
               Hashtbl.replace port.seen env.id (Completed resp);
               Queue.push (env.id, env.expires_at) port.completed;
               reply port env resp)));
      serve_loop port handler ()
    end

  let serve ?(name = "rpc") t node handler =
    let port =
      {
        net = t;
        node;
        srv_name = name;
        inbox = endpoint t node;
        seen = Hashtbl.create 64;
        completed = Queue.create ();
        execs = 0;
        running = true;
        loop = None;
      }
    in
    port.loop <- Some (spawn_on ~name:(name ^ "-loop") t node (serve_loop port handler));
    port

  let stop port =
    port.running <- false;
    match port.loop with
    | Some pid ->
      Sim.kill port.net.sim pid;
      port.loop <- None
    | None -> ()

  let call ?(timeout_ms = 50.) ?(max_retries = 5) ?(size_bytes = 256)
      ?(resp_size_bytes = 256) ?op t ~from port req =
    Trace.maybe t.tracer ~service:"net"
      ~op:(match op with Some op -> op | None -> "rpc:" ^ port.srv_name)
      ~attrs:(fun () ->
        [ ("client", Trace.Str from.name);
          ("server", Trace.Str port.node.name);
          ("size_bytes", Trace.Int size_bytes);
          ("resp_size_bytes", Trace.Int resp_size_bytes) ])
      (fun () ->
        Counter.incr t.counters "rpc_calls";
        let id = t.next_call_id in
        t.next_call_id <- t.next_call_id + 1;
        let reply_to = endpoint t from in
        let env =
          { id; req; reply_to; resp_size = resp_size_bytes;
            ctx = Trace.current t.tracer;
            expires_at =
              Sim.now t.sim
              +. (float_of_int (max_retries + 1) *. timeout_ms)
              +. (2. *. transfer_ms t ~size_bytes) }
        in
        let rec attempt n =
          if n > max_retries then begin
            Counter.incr t.counters "rpc_timeouts";
            raise
              (Timeout (Printf.sprintf "%s: rpc to %s" from.name port.srv_name))
          end;
          if n > 0 then Counter.incr t.counters "rpc_retries";
          send ~size_bytes t ~from port.inbox env;
          match await_reply (Sim.now t.sim +. timeout_ms) with
          | Some resp -> resp
          | None -> attempt (n + 1)
        (* Late replies from earlier attempts carry the same id; replies
           to other calls cannot arrive here since the endpoint is ours. *)
        and await_reply deadline =
          let remaining = deadline -. Sim.now t.sim in
          if remaining <= 0. then None
          else
            match recv_timeout reply_to remaining with
            | None -> None
            | Some (rid, resp) ->
              if rid = id then Some resp else await_reply deadline
        in
        attempt 0)

  let handler_executions port = port.execs
  let cached_replies port = Hashtbl.length port.seen
end
