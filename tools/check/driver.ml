(* One check run: parse the sources once, load the .cmt files once, build
   one value index, run every registry entry at its scope, then apply
   [@check.allow] suppression and stale-waiver detection. *)

type result = {
  findings : Finding.t list;  (** Sorted survivors; these fail the run. *)
  suppressed : Finding.t list;  (** Sorted; dropped by a span — JSON artifact only. *)
  n_files : int;  (** Parsed source files. *)
  n_units : int;  (** Loaded compilation units. *)
  index : Index.t;
}

(* [sources]: files or directories whose [.ml]/[.mli] the parsetree rules
   read.  [cmts]: directories whose .cmt files the typed rules read. *)
let run ~sources ~cmts =
  let project, parse_findings = Parsed.load sources in
  let units, cmt_findings = Cmt_source.load_all cmts in
  let index = Index.build units in
  let known_keys = List.map (fun (r : Rule.info) -> r.key) Registry.rules in
  (* Spans come from each parsed file, and from the typed tree only for a
     unit whose source was not parsed, so no attribute is read twice. *)
  let parsed = Hashtbl.create 256 in
  List.iter (fun (s : Parsed.source) -> Hashtbl.replace parsed s.path ()) project.sources;
  let allows =
    List.map
      (fun (s : Parsed.source) -> (s.path, Allow.of_parsetree ~known_keys s))
      project.sources
    @ List.filter_map
        (fun (u : Cmt_source.t) ->
          if Hashtbl.mem parsed u.source_path then None
          else Some (u.source_path, Allow.of_typedtree ~known_keys u))
        units
  in
  let findings, uses =
    List.fold_left
      (fun (findings, uses) (rule : Rule.t) ->
        match rule.scope with
        | File check -> (List.concat_map check project.sources @ findings, uses)
        | Project check -> (check project @ findings, uses)
        | Typed check ->
          let f, u = check index in
          (f @ findings, u @ uses))
      ([], []) Registry.all
  in
  let spans = List.map (fun (file, (a : Allow.t)) -> (file, a.spans)) allows in
  let spans_for file = Option.value (List.assoc_opt file spans) ~default:[] in
  let suppressed, surviving =
    List.partition (fun (f : Finding.t) -> Allow.covers (spans_for f.file) f) findings
  in
  (* Meta findings bypass suppression: a broken or stale waiver must not
     be able to hide itself. *)
  let meta =
    parse_findings @ cmt_findings
    @ List.concat_map (fun (_, (a : Allow.t)) -> a.findings) allows
    @ Allow.stale ~spans ~uses findings
  in
  {
    findings = List.sort_uniq Finding.compare (meta @ surviving);
    suppressed = List.sort_uniq Finding.compare suppressed;
    n_files = List.length project.sources;
    n_units = List.length units;
    index;
  }
