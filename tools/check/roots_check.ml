(* Drift check between the two halves of the allocation discipline:

     - the static half: the set of [@alloc.zero] roots found in the
       scanned .cmt files (what this checker actually proves about);
     - the declared half: the "static_roots" list in
       bench/alloc_budget.json, the hot path whose heartbeat cycle E20
       measures at zero minor words per event at run time.

   If someone annotates a new hot-path root (or drops one) without
   updating the budget file — or edits the budget file without touching
   the code — the two halves no longer describe the same hot path, and
   CI should say so.  The comparison is on sorted dotted paths
   ("Sim.Engine.step"); only module-level roots have one, so a stray
   [@alloc.zero] on a local binding is reported as drift too. *)

(* Minimal extraction of the "static_roots" string array.  The budget
   file is machine-edited JSON with no escapes in the strings we own. *)
let static_roots_of_string s =
  let find_from i sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = sub then Some (i + m)
      else go (i + 1)
    in
    go i
  in
  match find_from 0 "\"static_roots\"" with
  | None -> Error "no \"static_roots\" key"
  | Some i -> (
    match String.index_from_opt s i '[' with
    | None -> Error "\"static_roots\" is not followed by an array"
    | Some open_bracket ->
      let rec strings i acc =
        if i >= String.length s then Error "unterminated \"static_roots\" array"
        else
          match s.[i] with
          | ']' -> Ok (List.rev acc)
          | '"' -> (
            match String.index_from_opt s (i + 1) '"' with
            | None -> Error "unterminated string in \"static_roots\""
            | Some close ->
              strings (close + 1) (String.sub s (i + 1) (close - i - 1) :: acc))
          | _ -> strings (i + 1) acc
      in
      strings (open_bracket + 1) [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Compare the roots in [index] (loaded from [roots]) with the budget
   file.  Returns the error lines (empty = in sync). *)
let check ~budget_file ~roots index =
  match static_roots_of_string (read_file budget_file) with
  | Error msg -> [ Printf.sprintf "%s: %s" budget_file msg ]
  | Ok declared ->
    let discovered, local =
      List.partition_map
        (fun (d : Index.def) ->
          match d.gpath with Some p -> Left p | None -> Right d.display)
        (Alloc_walk.roots index)
    in
    let declared = List.sort_uniq String.compare declared in
    let discovered = List.sort_uniq String.compare discovered in
    let missing_in_json =
      List.filter (fun r -> not (List.mem r declared)) discovered
    in
    let missing_in_code =
      List.filter (fun r -> not (List.mem r discovered)) declared
    in
    List.map
      (fun d ->
        Printf.sprintf
          "[@alloc.zero] on local binding %s — only module-level roots can be \
           tracked in %s"
          d budget_file)
      local
    @ List.map
        (fun r ->
          Printf.sprintf
            "[@alloc.zero] root %s is not listed in %s \"static_roots\" — add it \
             so the static and dynamic allocation gates cover the same hot path"
            r budget_file)
        missing_in_json
    @ List.map
        (fun r ->
          Printf.sprintf
            "%s \"static_roots\" lists %s but no such [@alloc.zero] annotation \
             exists below %s — remove it or restore the annotation"
            budget_file r (String.concat " " roots))
        missing_in_code
