(* Loading the typed tree of one compilation unit from the .cmt file dune
   already produces (the [-bin-annot] output).  Locations inside a .cmt are
   relative to the build root ("lib/sim/engine.ml"), which is exactly what
   we want to print. *)

(* The trees every check covers by default, as sources and as .cmt
   builds. *)
let default_roots = [ "lib"; "bin"; "bench" ]

type t = {
  cmt_path : string;  (** The .cmt we loaded. *)
  source_path : string;  (** The .ml it was compiled from, build-root-relative. *)
  modpath : string list;  (** Normalised module path, e.g. [["Sim"; "Engine"]]. *)
  str : Typedtree.structure;
}

(* [Ok None]: a valid .cmt that carries no implementation (packs, interfaces
   compiled with -bin-annot, partial trees from failed builds). *)
let load cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception e -> Error (Printexc.to_string e)
  | infos -> (
    match infos.cmt_annots with
    | Implementation str ->
      let source_path =
        match infos.cmt_sourcefile with Some s -> s | None -> cmt_path
      in
      Ok
        (Some
           {
             cmt_path;
             source_path;
             modpath = Tast_util.split_mangled infos.cmt_modname;
             str;
           })
    | _ -> Ok None)

let normalise path =
  String.concat "/" (String.split_on_char Filename.dir_sep.[0] path)

(* Every .cmt below [path], sorted.  Unlike the source walk (Parsed) this
   must descend into dot-directories: dune keeps .cmt files in
   [.<lib>.objs/byte/]. *)
let rec cmts_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> cmts_under (Filename.concat path entry))
  else if Filename.check_suffix path ".cmt" then [ normalise path ]
  else []

let discover roots = List.concat_map cmts_under roots |> List.sort_uniq String.compare

(* Load every .cmt below [roots].  An unreadable one becomes a [CMT]
   finding, so a broken build input can never silently pass the check;
   a valid .cmt with no implementation (packs, aliases) is skipped. *)
let load_all roots =
  List.fold_left
    (fun (units, findings) cmt_path ->
      match load cmt_path with
      | Ok (Some src) -> (src :: units, findings)
      | Ok None -> (units, findings)
      | Error msg ->
        ( units,
          Finding.at_file_start ~rule:"CMT" ~key:"cmt" ~msg:("unreadable .cmt: " ^ msg)
            cmt_path
          :: findings ))
    ([], []) (discover roots)
  |> fun (units, findings) -> (List.rev units, findings)
