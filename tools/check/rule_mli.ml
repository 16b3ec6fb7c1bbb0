(* R5 — every library module has an interface.

   An [.mli] is what keeps a module's mutable internals (tables, refs,
   caches) out of reach; a missing one silently widens the API.  Applies to
   every [.ml] under a [lib] directory. *)

let under_lib path =
  List.exists (fun seg -> String.equal seg "lib") (String.split_on_char '/' path)

let check (project : Parsed.project) =
  let mlis = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace mlis p ()) project.mlis;
  List.filter_map
    (fun ml ->
      if under_lib ml && not (Hashtbl.mem mlis (ml ^ "i")) then
        Some
          (Finding.at_file_start ~rule:"R5" ~key:"mli"
             ~msg:
               (Printf.sprintf
                  "missing interface: %s has no %si — every lib/ module must declare \
                   its API"
                  ml (Filename.basename ml))
             ml)
      else None)
    project.mls

let rule =
  Rule.one ~id:"R5" ~key:"mli" ~doc:"every lib/**/*.ml has a matching .mli" (Project check)
