type t = {
  rule : string;
  file : string;
  line : int;
  symbol : string;
  slug : string;
  message : string;
  witness : string list;
}

let v ?(symbol = "") ?(witness = []) ~rule ~file ~line ~slug message =
  { rule; file; line; symbol; slug; message; witness }

(* Line numbers churn with every edit; the baseline key must not. A
   finding is identified by what it is (rule), where it lives (file
   basename + enclosing symbol) and what it is about (the pass-chosen
   slug: callee, cycle, constructor...). *)
let key f =
  String.concat "|" [ f.rule; Filename.basename f.file; f.symbol; f.slug ]

let compare_finding a b =
  compare (a.file, a.line, a.rule, a.slug) (b.file, b.line, b.rule, b.slug)

let sort fs = List.sort_uniq compare_finding fs

let pp fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s%s" f.file f.line f.rule
    (if f.symbol = "" then "" else Printf.sprintf "(%s) " f.symbol)
    f.message;
  List.iter (fun w -> Format.fprintf fmt "@\n    %s" w) f.witness

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  let q s = "\"" ^ json_escape s ^ "\"" in
  Printf.sprintf
    "{\"rule\":%s,\"file\":%s,\"line\":%d,\"symbol\":%s,\"message\":%s,\
     \"witness\":[%s],\"key\":%s}"
    (q f.rule) (q f.file) f.line (q f.symbol) (q f.message)
    (String.concat "," (List.map q f.witness))
    (q (key f))

let list_to_json ?(suppressed = 0) ?(timings = []) ?(extras = []) fs =
  let q s = "\"" ^ json_escape s ^ "\"" in
  Printf.sprintf "{\"findings\":[%s],\"suppressed\":%d,\"timings\":[%s]%s}"
    (String.concat "," (List.map to_json fs))
    suppressed
    (String.concat ","
       (List.map
          (fun (pass, secs) ->
            Printf.sprintf "{\"pass\":%s,\"ms\":%.3f}" (q pass)
              (secs *. 1000.))
          timings))
    (String.concat ""
       (List.map
          (fun (name, raw_json) -> Printf.sprintf ",%s:%s" (q name) raw_json)
          extras))

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

(* The committed baseline is a JSON object whose ["keys"] array lists
   the accepted finding keys. Parsing extracts every JSON string
   literal (escape-aware) and drops the leading "keys" member name, so
   the file stays hand-editable without a JSON dependency. *)
let scan_json_strings s =
  let n = String.length s in
  let out = ref [] in
  let buf = Buffer.create 32 in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '"' then begin
      Buffer.clear buf;
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        (match s.[!i] with
        | '\\' when !i + 1 < n ->
          (match s.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c -> Buffer.add_char buf c);
          incr i
        | '"' -> fin := true
        | c -> Buffer.add_char buf c);
        incr i
      done;
      out := Buffer.contents buf :: !out
    end
    else incr i
  done;
  List.rev !out

let baseline_of_string s =
  List.filter (fun k -> k <> "keys") (scan_json_strings s)

let baseline_to_string keys =
  let keys = List.sort_uniq compare keys in
  "{\"keys\":[\n"
  ^ String.concat ",\n"
      (List.map (fun k -> "  \"" ^ json_escape k ^ "\"") keys)
  ^ "\n]}\n"
