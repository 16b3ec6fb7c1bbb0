(* A3 — alias-aware polymorphic comparison on domain types (typed).

   [Pid.t], [Sim_time.t] and [Value.t] expose their own [compare]/[equal];
   structural compare on them works today only by accident of
   representation and breaks the moment one becomes a record or adds
   metadata.  [Stdlib.max]/[Stdlib.min] are polymorphic too: at any of
   these types they compile to a C call into [compare_val], where
   [Int.max]/[Int.min] (what [Sim_time.max]/[min] are) compare inline.
   Two checks:

     - [Stdlib.compare] is banned at any type — use the domain module's
       compare ([Pid.compare], [Int.compare], [String.compare], ...);
     - every occurrence of a structural-comparison function (=, <>, ==,
       !=, compare, max, min, Hashtbl.hash) whose type at
       the use site mentions [Pid.t], [Sim_time.t], [Value.t] (or the
       derived [Pid.Set.t]/[Pid.Map.t]) is flagged, wherever the function
       came from —
     written directly, reached through a chain of let-aliases, through an
     eta-expansion ([let eq a b = a = b]), or instantiated inside a
     functor argument ([Hashtbl.Make (struct let equal = (=) ... end)]
     over pids).

   The alias set is computed as a fixpoint over the whole value index: a
   binding whose right-hand side is (a chain of aliases /
   eta-expansions of) a structural comparison joins the set, and its uses
   are then checked exactly like direct ones. *)

let rule_id = "A3"
let key = "polycmp_t"

let banned_np np =
  match np with
  | [ ("=" | "<>" | "==" | "!=" | "compare" | "max" | "min") ] -> true
  | [ "Hashtbl"; "hash" ] -> true
  | _ -> false

(* Protected type constructors, with the replacement to suggest. *)
let protected =
  [
    ([ "Pid"; "t" ], "Pid.equal/Pid.compare");
    ([ "Sim_time"; "t" ], "Sim_time.equal/Sim_time.compare");
    ([ "Value"; "t" ], "Value.equal/Value.compare");
    ([ "Pid"; "Set"; "t" ], "Pid.Set.equal/Pid.Set.compare");
    ([ "Pid"; "Map"; "t" ], "Pid.Map.equal/Pid.Map.compare");
  ]

let protected_hit ty =
  let hit = ref None in
  let pred np =
    match
      List.find_opt (fun (suffix, _) -> Tast_util.has_suffix ~suffix np) protected
    with
    | Some (suffix, repl) ->
      if !hit = None then hit := Some (String.concat "." suffix, repl);
      true
    | None -> false
  in
  if Tast_util.type_mentions ~pred ty then !hit else None

(* ------------------------------------------------------------------ *)
(* Alias fixpoint                                                     *)
(* ------------------------------------------------------------------ *)

type aliases = { stamps : (string, string) Hashtbl.t; paths : (string, string) Hashtbl.t }
(* value: the display name of the alias chain's origin, for messages. *)

let alias_of aliases (p : Path.t) =
  match p with
  | Pident id -> Hashtbl.find_opt aliases.stamps (Ident.unique_name id)
  | Pdot _ -> Hashtbl.find_opt aliases.paths (Tast_util.dotted (Tast_util.path_of p))
  | _ -> None

(* Is [e] (the RHS of a binding) a structural comparison, an alias of one,
   or an eta-expansion of one?  Returns the origin name. *)
let rec cmp_origin aliases (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
    let np = Tast_util.path_of p in
    if banned_np np then Some (Tast_util.dotted np) else alias_of aliases p
  | Texp_function _ -> (
    let params, body = Tast_util.peel_functions e in
    let param_idents =
      List.filter_map
        (fun (p : Typedtree.pattern) ->
          match p.pat_desc with
          | Tpat_var (id, _) -> Some (Ident.unique_name id)
          | _ -> None)
        params
    in
    match body.exp_desc with
    | Texp_apply (f, args) ->
      let args = Tast_util.nolabel_args args in
      let all_params_forwarded =
        args <> []
        && List.for_all
             (fun (a : Typedtree.expression) ->
               match a.exp_desc with
               | Texp_ident (Pident id, _, _) ->
                 List.mem (Ident.unique_name id) param_idents
               | _ -> false)
             args
      in
      if all_params_forwarded then cmp_origin aliases f else None
    | _ -> None)
  | _ -> None

let build_aliases (index : Index.t) =
  let aliases = { stamps = Hashtbl.create 16; paths = Hashtbl.create 16 } in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (def : Index.def) ->
        match cmp_origin aliases def.expr with
        | None -> ()
        | Some origin ->
          let note tbl k =
            if Hashtbl.find_opt tbl k = None then begin
              Hashtbl.replace tbl k origin;
              changed := true
            end
          in
          note aliases.stamps def.stamp;
          (match def.gpath with Some p -> note aliases.paths p | None -> ()))
      index.all_defs
  done;
  aliases

(* ------------------------------------------------------------------ *)

let run (index : Index.t) =
  let aliases = build_aliases index in
  let findings = ref [] in
  List.iter
    (fun (source : Cmt_source.t) ->
      Tast_util.iter_structure_expressions
        (fun (e : Typedtree.expression) ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> (
            let np = Tast_util.path_of p in
            (* [base] is the banned function itself, [origin] how the
               use reached it. *)
            let origin =
              if banned_np np then
                let base = Tast_util.dotted np in
                Some (base, base)
              else
                match alias_of aliases p with
                | Some o -> Some (o, Printf.sprintf "%s (alias of %s)" (Path.last p) o)
                | None -> None
            in
            let flag msg =
              findings := Finding.of_loc ~rule:rule_id ~key ~msg e.exp_loc :: !findings
            in
            match origin with
            | None -> ()
            | Some (base, origin) -> (
              match protected_hit e.exp_type with
              | Some (what, repl) ->
                let repl =
                  match base with
                  | "max" | "min" -> "Int.max/Int.min (Sim_time.max/min)"
                  | _ -> repl
                in
                flag
                  (Printf.sprintf "structural %s instantiated at %s (type: %s); use %s"
                     origin what (Tast_util.type_to_string e.exp_type) repl)
              | None when String.equal (Path.name p) "Stdlib.compare" ->
                flag
                  "polymorphic compare: use the domain module's compare \
                   (Pid.compare, Sim_time.compare, Int.compare, String.compare, ...)"
              | None -> ()))
          | _ -> ())
        source.str)
    index.sources;
  List.rev !findings

let rule =
  Rule.one ~id:rule_id ~key
    ~doc:
      "polymorphic compare (typed, alias-aware): Stdlib.compare at any type, and \
       structural =/<>/compare/max/min/Hashtbl.hash instantiated at Pid.t, Sim_time.t, \
       Value.t, Pid.Set.t or Pid.Map.t — including through let-aliases and \
       eta-expansions"
    (Rule.typed run)
