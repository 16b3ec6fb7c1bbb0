(* A1 — pool-job purity (interprocedural).

   Everything that flows into [Exec.Pool.run] (directly, or through the
   bench grid mappers [par_map]/[par_map2]/[par_map3]) runs on an
   arbitrary domain, in an arbitrary interleaving with its sibling jobs.
   The pool's determinism contract (HACKING.md, "The job pool") is that a
   job is a pure function of its closure: byte-identity of parallel and
   sequential output holds only because jobs neither perform I/O, read
   ambient state, nor write mutable state shared with anything outside the
   job.

   The rule builds a call-graph closure over the value index: starting
   from every expression that flows into a pool sink, it follows
   references to project-defined values (by stamp within a unit, by
   normalised path across units) and flags, at the offending site,

     - banned primitives: stdout/stderr printing (including the implicit-
       formatter Format/Fmt entry points), [Sys.*] (minus a few pure
       constants), [Unix.*], [Random.*], stdin, process control, and
       multicore primitives;
     - writes to mutable state captured from outside the job closure: an
       assignment ([:=], [incr], [Hashtbl.replace], [t.f <- ...], ...)
       whose target is not bound inside the function being analysed —
       module-level refs and tables, or captures from an enclosing scope.
       Writes through the job's own parameters and locals are fine: a job
       that builds and mutates its own engine is still pure from the
       pool's point of view.

   [Exec.Pool] itself and [Sim.Rng] are sanctioned boundaries: a nested
   [par_map] degrades to in-place sequential execution by design, and all
   randomness is seeded.  The traversal does not descend into them. *)

open Check_common

let rule_id = "A1"
let key = "pure"

let opaque_prefixes = [ [ "Exec"; "Pool" ]; [ "Sim"; "Rng" ] ]

let sink_suffixes = [ [ "Pool"; "run" ] ]
let mapper_names = [ "par_map"; "par_map2"; "par_map3" ]

let is_sink np =
  List.exists (fun s -> Tast_util.has_suffix ~suffix:s np) sink_suffixes
  || (match List.rev np with f :: _ -> List.mem f mapper_names | [] -> false)

(* Pure [Sys] constants that carry no ambient state. *)
let pure_sys =
  [
    "word_size"; "int_size"; "max_array_length"; "max_string_length"; "big_endian";
    "ocaml_version"; "opaque_identity";
  ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Why a primitive is banned inside a pool job, or [None] if it is fine. *)
let banned_prim np =
  match np with
  | [ x ] when has_prefix ~prefix:"print_" x -> Some "prints to stdout"
  | [ x ] when has_prefix ~prefix:"prerr_" x -> Some "prints to stderr"
  | [ x ] when has_prefix ~prefix:"read_" x -> Some "reads stdin"
  | [ ("stdout" | "stderr" | "stdin") ] -> Some "touches a process-global channel"
  | [ ("exit" | "at_exit") ] -> Some "process control"
  | [ ("open_out" | "open_out_bin" | "open_out_gen" | "open_in" | "open_in_bin"
      | "open_in_gen") ] ->
    Some "file I/O"
  | "Printf" :: ("printf" | "eprintf") :: _ -> Some "prints to stdout/stderr"
  | "Format"
    :: ( "printf" | "eprintf" | "print_string" | "print_int" | "print_float"
       | "print_char" | "print_bool" | "print_space" | "print_cut" | "print_break"
       | "print_newline" | "print_flush" | "force_newline" | "open_box" | "close_box"
       | "std_formatter" | "err_formatter" | "get_std_formatter" )
    :: _ ->
    Some "prints through the process-global formatter"
  | "Fmt" :: ("pr" | "epr" | "stdout" | "stderr") :: _ ->
    Some "prints through the process-global formatter"
  | "Sys" :: s :: _ when not (List.mem s pure_sys) ->
    Some "reads ambient process state (Sys)"
  | "Unix" :: _ -> Some "ambient syscall (Unix)"
  | "Random" :: _ -> Some "ambient randomness; use the engine's seeded Sim.Rng"
  | ("Domain" | "Atomic" | "Mutex" | "Condition" | "Semaphore") :: _ :: _ ->
    Some "multicore primitive inside a job; parallelism belongs to the pool"
  | "Filename" :: ("temp_file" | "open_temp_file" | "temp_dir") :: _ ->
    Some "touches the filesystem"
  | _ -> None

(* Mutating functions whose first positional argument is the mutated
   structure. *)
let is_write_fn np =
  match np with
  | [ (":=" | "incr" | "decr") ] -> true
  | [ ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill") ] -> true
  | "Hashtbl"
    :: ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace")
    :: _ ->
    true
  | [ "Buffer"; f ] when has_prefix ~prefix:"add_" f -> true
  | [ "Buffer"; ("clear" | "reset" | "truncate") ] -> true
  | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear" | "transfer") ] -> true
  | [ "Stack"; ("push" | "pop" | "clear") ] -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-definition summaries                                           *)
(* ------------------------------------------------------------------ *)

type reference = { target : [ `Stamp of string | `Path of string ]; rname : string }

type summary = {
  prims : (Location.t * string * string) list;  (* site, name, why *)
  writes : (Location.t * string) list;  (* site, target name *)
  refs : reference list;  (* deterministic first-occurrence order *)
}

let rec target_root (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_field (e, _, _) -> target_root e
  | _ -> None

let summarize (e : Typedtree.expression) : summary =
  let bound = Tast_util.bound_idents e in
  let is_bound id = Hashtbl.mem bound (Ident.unique_name id) in
  let prims = ref [] and writes = ref [] and refs = ref [] in
  let seen_refs = Hashtbl.create 32 in
  let add_ref target rname =
    let k = match target with `Stamp s -> "s:" ^ s | `Path p -> "p:" ^ p in
    if not (Hashtbl.mem seen_refs k) then begin
      Hashtbl.add seen_refs k ();
      refs := { target; rname } :: !refs
    end
  in
  let note_write loc (p : Path.t) =
    writes := (loc, Path.name p) :: !writes
  in
  let classify_target loc (e : Typedtree.expression) =
    match target_root e with
    | Some (Path.Pident id) -> if not (is_bound id) then note_write loc (Pident id)
    | Some p -> note_write loc p
    | None -> ()
  in
  Tast_util.iter_expressions
    (fun (x : Typedtree.expression) ->
      match x.exp_desc with
      | Texp_ident (p, _, _) -> (
        let np = Tast_util.path_of p in
        match banned_prim np with
        | Some why -> prims := (x.exp_loc, Path.name p, why) :: !prims
        | None -> (
          if
            not
              (List.exists
                 (fun pre -> Tast_util.starts_with ~prefix:pre np)
                 opaque_prefixes)
          then
            match p with
            | Pident id ->
              if not (is_bound id) then
                add_ref (`Stamp (Ident.unique_name id)) (Ident.name id)
            | Pdot _ -> add_ref (`Path (Tast_util.dotted np)) (Tast_util.dotted np)
            | _ -> ()))
      | Texp_apply (f, args) -> (
        match Tast_util.head_path f with
        | Some np when is_write_fn np -> (
          match Tast_util.nolabel_args args with
          | tgt :: _ -> classify_target x.exp_loc tgt
          | [] -> ())
        | _ -> ())
      | Texp_setfield (e1, _, _, _) -> classify_target x.exp_loc e1
      | Texp_setinstvar (_, p, _, _) -> note_write x.exp_loc p
      | _ -> ())
    e;
  { prims = List.rev !prims; writes = List.rev !writes; refs = List.rev !refs }

(* ------------------------------------------------------------------ *)
(* Reachability from pool sinks                                       *)
(* ------------------------------------------------------------------ *)

let run (index : Index.t) =
  let findings = ref [] in
  let emitted = Hashtbl.create 32 in
  let summaries = Hashtbl.create 128 in
  let summary_of (def : Index.def) =
    let k = Index.def_key def in
    match Hashtbl.find_opt summaries k with
    | Some s -> s
    | None ->
      let s = summarize def.expr in
      Hashtbl.add summaries k s;
      s
  in
  let flag ~root_loc ~chain loc what =
    let fkey = (loc.Location.loc_start.pos_fname, loc.loc_start.pos_cnum, what) in
    if not (Hashtbl.mem emitted fkey) then begin
      Hashtbl.add emitted fkey ();
      let via =
        match chain with
        | [] -> ""
        | chain -> Printf.sprintf " via %s" (String.concat " -> " chain)
      in
      let root = root_loc.Location.loc_start in
      findings :=
        Check_common.Finding.of_loc ~chain ~rule:rule_id ~key
          ~msg:
            (Printf.sprintf
               "%s — reachable from the pool job submitted at %s:%d%s; pool jobs \
                must be pure (HACKING.md \"The job pool\"), or justify with \
                [@analyze.allow pure \"...\"]"
               what root.pos_fname root.pos_lnum via)
          loc
        :: !findings
    end
  in
  let rec visit ~root_loc ~chain ~visited (s : summary) =
    List.iter
      (fun (loc, name, why) ->
        flag ~root_loc ~chain loc (Printf.sprintf "impure primitive %s (%s)" name why))
      s.prims;
    List.iter
      (fun (loc, tgt) ->
        flag ~root_loc ~chain loc
          (Printf.sprintf
             "write to mutable state captured from outside the job closure (%s)" tgt))
      s.writes;
    List.iter
      (fun (r : reference) ->
        let def =
          match r.target with
          | `Stamp s -> Index.resolve_stamp index s
          | `Path p -> Index.resolve_path index p
        in
        match def with
        | None -> ()
        | Some def ->
          let k = Index.def_key def in
          if not (Hashtbl.mem visited k) then begin
            Hashtbl.add visited k ();
            visit ~root_loc ~chain:(chain @ [ def.display ]) ~visited (summary_of def)
          end)
      s.refs
  in
  (* Sinks, in deterministic source order. *)
  List.iter
    (fun (source : Cmt_source.t) ->
      let open Tast_iterator in
      let it =
        {
          default_iterator with
          expr =
            (fun self (e : Typedtree.expression) ->
              (match e.exp_desc with
              | Texp_apply (f, args) -> (
                match Tast_util.head_path f with
                | Some np when is_sink np ->
                  List.iter
                    (fun (a : Typedtree.expression) ->
                      let visited = Hashtbl.create 32 in
                      visit ~root_loc:a.exp_loc ~chain:[] ~visited (summarize a))
                    (Tast_util.supplied_args args)
                | _ -> ())
              | _ -> ());
              default_iterator.expr self e);
        }
      in
      it.structure it source.str)
    index.sources;
  List.rev !findings

let rule : Arule.t =
  {
    id = rule_id;
    key;
    doc =
      "pool-job purity: code reachable from Exec.Pool.run / par_map* must not \
       print, read ambient state (Sys/Unix/Random), or write mutable state \
       captured from outside the job closure";
    run;
  }
