(* Per-site suppression: [@check.allow <rule-key> "reason"].

   The attribute may sit on an expression, a value binding, an extension
   constructor or a type extension, or float at the top of a file
   ([@@@check.allow ...] suppresses the rule for the whole file).  A
   finding is dropped when its location falls inside the span of a node
   carrying an allow for its rule's key.  The reason string is mandatory,
   and the key must name a registered rule: a broken attribute is itself
   reported under the meta rule [CHECK] and cannot suppress anything,
   itself included.

   Spans come from the parsetree of every parsed source, and from the
   typedtree of a loaded .cmt whose source was not parsed (attributes
   survive typing unchanged, so no reparse is needed). *)

let attr_name = "check.allow"
let meta_rule = "CHECK"

type span = {
  key : string;
  left : int;
  right : int;
  loc : Location.t;  (** The attribute's own location — where a stale span is reported. *)
}

(* A suppression site a rule honoured as a boundary rather than as a
   finding filter (the zero-allocation walk stopping at an
   [@check.allow extern]): (file, key, offset). *)
type use = string * string * int

type t = {
  spans : span list;
  findings : Finding.t list;  (** Malformed or unknown-key attributes. *)
}

(* Payload forms accepted:
     [@check.allow key "reason"]   -> Some (key, Some reason)
     [@check.allow key]            -> Some (key, None)       (missing reason)
   anything else                   -> None                   (malformed)  *)
let parse (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
    match e.pexp_desc with
    | Pexp_ident { txt = Lident key; _ } -> Some (key, None)
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident key; _ }; _ },
          [ (Nolabel, { pexp_desc = Pexp_constant (Pconst_string (reason, _, _)); _ }) ]
        ) ->
      Some (key, Some reason)
    | _ -> None)
  | _ -> None

let is_allow (attr : Parsetree.attribute) = String.equal attr.attr_name.txt attr_name

(* Interpret one [@check.allow] attribute covering [span]: either a
   well-formed suppression span, or a [CHECK] finding describing why the
   attribute itself is broken.  An allow naming an unregistered key is
   rejected rather than silently ignored: it would suppress nothing
   without telling anyone. *)
let classify ~known_keys ~(span : Location.t) (attr : Parsetree.attribute) =
  let meta msg = Error (Finding.of_loc ~rule:meta_rule ~key:"check" ~msg attr.attr_loc) in
  match parse attr with
  | Some (key, Some _) when not (List.mem key known_keys) ->
    meta
      (Printf.sprintf
         "[@%s %s]: unknown rule key %S (known: %s) — a suppression naming no \
          registered rule suppresses nothing"
         attr_name key key
         (String.concat ", " (List.sort String.compare known_keys)))
  | Some (key, Some reason) when String.trim reason <> "" ->
    Ok
      { key; left = span.loc_start.pos_cnum; right = span.loc_end.pos_cnum; loc = attr.attr_loc }
  | Some (key, _) ->
    meta
      (Printf.sprintf
         "[@%s %s] needs a non-empty reason string, e.g. [@%s %s \"why this site is \
          safe\"]"
         attr_name key attr_name key)
  | None -> meta (Printf.sprintf "malformed [@%s]: expected <rule-key> \"reason\"" attr_name)

(* A whole-file span, for floating [@@@check.allow ...] attributes. *)
let file_span path : Location.t =
  {
    loc_start = { pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
    loc_end = { pos_fname = path; pos_lnum = max_int; pos_bol = 0; pos_cnum = max_int };
    loc_ghost = false;
  }

let collector ~known_keys =
  let spans = ref [] and findings = ref [] in
  let note ~(span : Location.t) (attrs : Parsetree.attributes) =
    List.iter
      (fun attr ->
        if is_allow attr then
          match classify ~known_keys ~span attr with
          | Ok s -> spans := s :: !spans
          | Error f -> findings := f :: !findings)
      attrs
  in
  (note, fun () -> { spans = !spans; findings = !findings })

let of_parsetree ~known_keys (src : Parsed.source) =
  let note, result = collector ~known_keys in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          note ~span:e.pexp_loc e.pexp_attributes;
          default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          note ~span:vb.pvb_loc vb.pvb_attributes;
          default_iterator.value_binding self vb);
      extension_constructor =
        (fun self ec ->
          note ~span:ec.pext_loc ec.pext_attributes;
          default_iterator.extension_constructor self ec);
      type_extension =
        (fun self te ->
          note ~span:te.ptyext_loc te.ptyext_attributes;
          default_iterator.type_extension self te);
      structure_item =
        (fun self item ->
          (match item.pstr_desc with
          | Pstr_attribute attr -> note ~span:(file_span src.path) [ attr ]
          | Pstr_eval (_, attrs) -> note ~span:item.pstr_loc attrs
          | _ -> ());
          default_iterator.structure_item self item);
    }
  in
  it.structure it src.structure;
  result ()

let of_typedtree ~known_keys (src : Cmt_source.t) =
  let note, result = collector ~known_keys in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self (e : Typedtree.expression) ->
          note ~span:e.exp_loc e.exp_attributes;
          default_iterator.expr self e);
      value_binding =
        (fun self (vb : Typedtree.value_binding) ->
          note ~span:vb.vb_loc vb.vb_attributes;
          default_iterator.value_binding self vb);
      structure_item =
        (fun self (item : Typedtree.structure_item) ->
          (match item.str_desc with
          | Tstr_attribute attr -> note ~span:(file_span src.source_path) [ attr ]
          | Tstr_eval (_, attrs) -> note ~span:item.str_loc attrs
          | _ -> ());
          default_iterator.structure_item self item);
    }
  in
  it.structure it src.str;
  result ()

let span_covers s ~key ~offset =
  String.equal s.key key && s.left <= offset && offset <= s.right

let covers spans (f : Finding.t) =
  List.exists (fun s -> span_covers s ~key:f.key ~offset:f.offset) spans

(* A well-formed span that covers no finding of its key and sanctions no
   rule boundary suppresses nothing.  It is dead weight that silently
   widens the waiver surface, so it becomes a finding itself, under
   [STALE], which cannot be suppressed. *)
let stale ~(spans : (string * span list) list) ~(uses : use list) findings =
  List.concat_map
    (fun (file, file_spans) ->
      let in_file = List.filter (fun (f : Finding.t) -> String.equal f.file file) findings in
      List.filter_map
        (fun s ->
          let used =
            List.exists
              (fun (f : Finding.t) -> span_covers s ~key:f.key ~offset:f.offset)
              in_file
            || List.exists
                 (fun (f, key, offset) -> String.equal f file && span_covers s ~key ~offset)
                 uses
          in
          if used then None
          else
            Some
              (Finding.of_loc ~rule:"STALE" ~key:s.key
                 ~msg:
                   (Printf.sprintf
                      "stale suppression: [@%s %s \"...\"] covers no %s finding and \
                       sanctions no checker boundary — it suppresses nothing; remove \
                       it (or fix the rule key)"
                      attr_name s.key s.key)
                 s.loc))
        file_spans)
    spans
