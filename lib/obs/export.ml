(* Trace and metrics exporters.

   Everything here renders to a string; nothing prints. The lint's
   no-direct-print rule keeps stdout/stderr out of [lib/] — callers in
   [bin]/[bench] decide where the rendered output goes. *)

module Text_table = Rhodos_util.Text_table

let dur_ms (sp : Trace.span) =
  if Float.is_nan sp.end_ms then 0. else sp.end_ms -. sp.start_ms

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_value = function
  | Trace.Int i -> string_of_int i
  | Trace.Float f -> Printf.sprintf "%.6g" f
  | Trace.Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Trace.Bool b -> if b then "true" else "false"

(* Perfetto/chrome://tracing "complete" events: one "X" record per
   span, timestamps in microseconds of simulated time. Services map to
   thread lanes of a single process, named via "M" metadata records, so
   the per-layer nesting is visible as stacked lanes. [counters] are
   named (sim-ms, value) series rendered as "C" counter events — the
   profiler's periodic samples (queue length, event rate, Gc words)
   plot as tracks alongside the span lanes. *)
let chrome_json ?(counters = []) spans =
  let tids = Hashtbl.create 8 in
  let order = ref [] in
  let tid_of service =
    match Hashtbl.find_opt tids service with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length tids + 1 in
      Hashtbl.add tids service tid;
      order := (service, tid) :: !order;
      tid
  in
  let event (sp : Trace.span) =
    let args =
      ("trace_id", Trace.Int sp.trace_id) :: ("span_id", Trace.Int sp.id)
      ::
      (match sp.parent with
      | Some p -> [ ("parent_id", Trace.Int p) ]
      | None -> [])
      @ sp.attrs
    in
    let args_s =
      String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (json_value v))
           args)
    in
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
      (json_escape sp.op) (json_escape sp.service) (sp.start_ms *. 1000.)
      (dur_ms sp *. 1000.) (tid_of sp.service) args_s
  in
  let events = List.map event spans in
  let counter_events =
    List.concat_map
      (fun (name, series) ->
        List.map
          (fun (ts_ms, v) ->
            Printf.sprintf
              "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"args\":{\"%s\":%.6g}}"
              (json_escape name) (ts_ms *. 1000.) (json_escape name) v)
          series)
      counters
  in
  let meta =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"rhodos\"}}"
    :: List.rev_map
         (fun (service, tid) ->
           Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             tid (json_escape service))
         !order
  in
  Printf.sprintf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[%s]}\n"
    (String.concat ",\n" (meta @ events @ counter_events))

(* ------------------------------------------------------------------ *)
(* Plain-text span tree                                                *)
(* ------------------------------------------------------------------ *)

let attr_to_string (k, v) =
  let v =
    match v with
    | Trace.Int i -> string_of_int i
    | Trace.Float f -> Printf.sprintf "%g" f
    | Trace.Str s -> s
    | Trace.Bool b -> string_of_bool b
  in
  Printf.sprintf "%s=%s" k v

(* Children of a span, in allocation (= start) order. *)
let children_of spans =
  fun (sp : Trace.span) ->
    List.filter (fun (c : Trace.span) -> c.parent = Some sp.id) spans

let roots spans =
  let ids = List.map (fun (sp : Trace.span) -> sp.id) spans in
  List.filter
    (fun (sp : Trace.span) ->
      match sp.parent with None -> true | Some p -> not (List.mem p ids))
    spans

let span_tree spans =
  let buf = Buffer.create 1024 in
  let children = children_of spans in
  let rec emit depth sp =
    let label = Printf.sprintf "%s.%s" sp.Trace.service sp.Trace.op in
    let attrs =
      match sp.Trace.attrs with
      | [] -> ""
      | l -> "  [" ^ String.concat " " (List.map attr_to_string l) ^ "]"
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%-*s %8.3f ms%s\n"
         (String.make (2 * depth) ' ')
         (max 1 (36 - (2 * depth)))
         label (dur_ms sp) attrs);
    List.iter (emit (depth + 1)) (children sp)
  in
  List.iter (emit 0) (roots spans);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Collapsed stacks (flamegraph folded format)                          *)
(* ------------------------------------------------------------------ *)

(* One "frame;frame;... weight" line per span with positive self time,
   in span-list order. Frames are the service.op chain up the parent
   links; the weight is the span's simulated self time in integer
   microseconds (inclusive minus direct children), so the output feeds
   straight into standard flamegraph tooling. *)
let collapsed_stacks spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace by_id sp.id sp) spans;
  let children = children_of spans in
  let frame (sp : Trace.span) = Printf.sprintf "%s.%s" sp.service sp.op in
  let rec stack (sp : Trace.span) =
    match sp.parent with
    | Some p -> (
      match Hashtbl.find_opt by_id p with
      | Some parent -> stack parent ^ ";" ^ frame sp
      | None -> frame sp)
    | None -> frame sp
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (sp : Trace.span) ->
      let child_incl =
        List.fold_left (fun acc c -> acc +. dur_ms c) 0. (children sp)
      in
      let self_us =
        int_of_float (Float.max 0. (dur_ms sp -. child_incl) *. 1000.)
      in
      if self_us > 0 then
        Buffer.add_string buf (Printf.sprintf "%s %d\n" (stack sp) self_us))
    spans;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Per-layer latency breakdown                                         *)
(* ------------------------------------------------------------------ *)

let latency_breakdown ?(title = "per-layer breakdown") spans =
  let children = children_of spans in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (sp : Trace.span) ->
      let incl = dur_ms sp in
      let child_incl =
        List.fold_left (fun acc c -> acc +. dur_ms c) 0. (children sp)
      in
      let self = Float.max 0. (incl -. child_incl) in
      match Hashtbl.find_opt tbl sp.service with
      | Some (n, i, s) -> Hashtbl.replace tbl sp.service (n + 1, i +. incl, s +. self)
      | None ->
        order := sp.service :: !order;
        Hashtbl.add tbl sp.service (1, incl, self))
    spans;
  let t =
    Text_table.create ~title
      ~columns:[ "layer"; "spans"; "inclusive ms"; "self ms" ]
  in
  List.iter
    (fun service ->
      let n, incl, self = Hashtbl.find tbl service in
      Text_table.add_row t
        [ service; string_of_int n; Printf.sprintf "%.3f" incl;
          Printf.sprintf "%.3f" self ])
    (List.rev !order);
  Text_table.render t
