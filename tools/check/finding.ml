(* A single static-analysis finding, from a parsetree rule (R1, ...) or a
   typed rule (A1, Z1, D1, ...).  [offset] is the absolute character
   offset of the flagged node's start — used only to match suppression
   spans, never printed. *)

type t = {
  file : string;
  line : int;
  col : int;
  offset : int;
  rule : string;  (** Rule id, e.g. ["R1"] or ["A1"]. *)
  key : string;  (** Suppression key, e.g. ["ambient"] or ["pure"]. *)
  msg : string;
  chain : string list;
      (** Interprocedural call chain from the analysis root to the site,
          outermost first; empty for local (single-site) rules.  The
          human-readable "via a -> b" rendering stays part of [msg]; this
          is the structured form for the JSON artifacts. *)
}

let of_loc ?(chain = []) ~rule ~key ~msg (loc : Location.t) =
  let p = loc.loc_start in
  {
    file = p.pos_fname;
    line = p.pos_lnum;
    col = p.pos_cnum - p.pos_bol;
    offset = p.pos_cnum;
    rule;
    key;
    msg;
    chain;
  }

(* A finding about a whole file (a missing interface, a file that does
   not parse or load). *)
let at_file_start ~rule ~key ~msg file =
  { file; line = 1; col = 0; offset = 0; rule; key; msg; chain = [] }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.msg b.msg

let to_string f = Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

(* Machine-readable form for the CI artifact (CHECK_findings.json), in
   the shape of docs/schemas/findings.schema.json; [suppressed]
   distinguishes findings a [@check.allow] span silenced from the
   survivors that fail the build. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ?(suppressed = false) f =
  Printf.sprintf
    {|{"rule": "%s", "file": "%s", "line": %d, "col": %d, "key": "%s", "message": "%s", "chain": [%s], "suppressed": %b}|}
    (json_escape f.rule) (json_escape f.file) f.line f.col (json_escape f.key)
    (json_escape f.msg)
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "\"%s\"" (json_escape c)) f.chain))
    suppressed

let list_to_json ?(suppressed = []) fs =
  match (fs, suppressed) with
  | [], [] -> "[]\n"
  | fs, suppressed ->
    "[\n  "
    ^ String.concat ",\n  "
        (List.map (to_json ~suppressed:false) fs
        @ List.map (to_json ~suppressed:true) suppressed)
    ^ "\n]\n"
