(* The parsed sources the parsetree rules (R1, R4, R5, R6) see: every
   [.ml] below the given roots, parsed once, plus the raw [.ml]/[.mli]
   listing for the filesystem checks. *)

type source = {
  path : string;  (** Path as found below the roots (and printed). *)
  structure : Parsetree.structure;
}

type project = {
  sources : source list;  (** Every successfully parsed [.ml]. *)
  mls : string list;  (** Every [.ml] found, normalised with ['/']. *)
  mlis : string list;  (** Every [.mli] found, normalised with ['/']. *)
}

let rec files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if String.length entry > 0 && entry.[0] = '.' then []
           else if entry = "_build" then []
           else files_under (Filename.concat path entry))
  else [ Cmt_source.normalise path ]

let parse_impl path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

(* Parse every [.ml] below [roots] (files or directories).  A file that
   does not parse becomes a [PARSE] finding, so a broken file can never
   silently pass the check. *)
let load roots =
  let files = List.concat_map files_under roots in
  let mls = List.filter (fun f -> Filename.check_suffix f ".ml") files in
  let mlis = List.filter (fun f -> Filename.check_suffix f ".mli") files in
  let sources, findings =
    List.fold_left
      (fun (sources, findings) path ->
        match parse_impl path with
        | structure -> ({ path; structure } :: sources, findings)
        | exception exn ->
          let msg =
            match Location.error_of_exn exn with
            | Some (`Ok (e : Location.error)) ->
              Format.asprintf "%a" Location.print_report e
            | _ -> Printexc.to_string exn
          in
          (sources, Finding.at_file_start ~rule:"PARSE" ~key:"parse" ~msg path :: findings))
      ([], []) mls
  in
  ({ sources = List.rev sources; mls; mlis }, List.rev findings)
