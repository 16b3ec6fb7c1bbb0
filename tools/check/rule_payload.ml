(* R4 — extensible-payload hygiene.

   Message kinds are extension constructors of [Sim.Payload.t].  Because
   every handler ends in a wildcard (the payload type is open), the
   compiler cannot warn about a kind that is declared but never sent, or
   sent but never matched — such envelopes are silently dropped.  The rule
   checks, per library directory, that every [Payload.t +=] constructor is
   both constructed and matched somewhere in that library. *)

type decl = { ctor : string; loc : Location.t; dir : string }

let dir_of path = Filename.dirname path

(* [type Payload.t += ...] under any module prefix; inside the defining
   module itself ([lib/sim/payload.ml]) the path is just [t]. *)
let is_payload_path ~path lid =
  let p = Ast_util.path lid in
  Tast_util.has_suffix ~suffix:[ "Payload"; "t" ] p
  || (p = [ "t" ] && Filename.basename path = "payload.ml")

let scan (src : Parsed.source) =
  let decls = ref [] and constructed = ref [] and matched = ref [] in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      type_extension =
        (fun self te ->
          if is_payload_path ~path:src.path te.ptyext_path.txt then
            List.iter
              (fun (ec : Parsetree.extension_constructor) ->
                match ec.pext_kind with
                | Pext_decl _ ->
                  decls :=
                    { ctor = ec.pext_name.txt; loc = ec.pext_loc; dir = dir_of src.path }
                    :: !decls
                | Pext_rebind _ -> ())
              te.ptyext_constructors;
          default_iterator.type_extension self te);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_construct ({ txt; _ }, _) -> (
            match Ast_util.last_component txt with
            | Some c -> constructed := (dir_of src.path, c) :: !constructed
            | None -> ())
          | _ -> ());
          default_iterator.expr self e);
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_construct ({ txt; _ }, _) -> (
            match Ast_util.last_component txt with
            | Some c -> matched := (dir_of src.path, c) :: !matched
            | None -> ())
          | _ -> ());
          default_iterator.pat self p);
    }
  in
  it.structure it src.structure;
  (!decls, !constructed, !matched)

let check (project : Parsed.project) =
  let decls = ref [] and constructed = Hashtbl.create 64 and matched = Hashtbl.create 64 in
  List.iter
    (fun src ->
      let d, c, m = scan src in
      decls := d @ !decls;
      List.iter (fun k -> Hashtbl.replace constructed k ()) c;
      List.iter (fun k -> Hashtbl.replace matched k ()) m)
    project.sources;
  List.filter_map
    (fun d ->
      if not (Hashtbl.mem constructed (d.dir, d.ctor)) then
        Some
          (Finding.of_loc ~rule:"R4" ~key:"payload"
             ~msg:
               (Printf.sprintf
                  "dead message kind: payload constructor %s is declared but never \
                   constructed in %s/"
                  d.ctor d.dir)
             d.loc)
      else if not (Hashtbl.mem matched (d.dir, d.ctor)) then
        Some
          (Finding.of_loc ~rule:"R4" ~key:"payload"
             ~msg:
               (Printf.sprintf
                  "silently dropped message kind: payload constructor %s is sent but \
                   never matched in %s/ — only wildcard handlers see it"
                  d.ctor d.dir)
             d.loc)
      else None)
    (List.rev !decls)

let rule =
  Rule.one ~id:"R4" ~key:"payload"
    ~doc:
      "payload hygiene: every Payload.t += constructor must be both constructed and \
       matched within its library"
    (Project check)
