(* The shared D1/D2 escape-analysis walk.

   Everything that crosses onto a pool worker domain — the arguments of
   [Exec.Pool.run] / [par_map*] / [Domain.spawn] applications, plus any
   definition or expression annotated [@race.domain] (closures handed to
   a setter that will run them on a worker domain) — is a *domain root*.  From each root the walk builds
   the same call-graph closure as ecfd-analyze's A1: per-definition
   summaries, references resolved by identifier stamp within a unit and
   by normalised dotted path across units, chains rendered "via a -> b".

   What it looks for is different.  A1 proves purity; this walk proves
   *domain-safety*, and flags three site classes:

     - D1 (key [escape]) writes: an assignment ([:=], [<-], [Array.set],
       [Hashtbl.replace], ...) whose target is not owner-threaded — not
       bound inside the function being analysed.  Mutable state written
       on a worker domain must be [Atomic] or owned by the job (handed
       back behind the pool barrier); anything else is a data race.
     - D1 (key [escape]) unknown calls: a call through a function value
       whose body the checker cannot see (a parameter, a match-bound
       handler, a callback read out of a table).  Its writes are
       invisible, so the call site must carry the contract as a
       [@race.allow escape "..."] waiver.
     - D2 (key [publish]) reads: a read ([!], [Array.get],
       [Hashtbl.find], a mutable record field, ...) whose target was
       created outside the domain cone.  Cross-domain publication of
       mutable values needs an [Atomic] or a pool-barrier handoff;
       OCaml's memory model makes plain reads of racy locations
       undefined-per-location, and even race-free ones need the
       happens-before edge the barrier provides.

   Owner-threading is the bound-identifier test: writes and reads through
   the analysed function's own parameters and locals are fine — a job
   mutating its own state record is the design, not a race.  [Atomic.*]
   and [Domain.DLS.*] accesses match neither table and pass.  Strictness
   differs by position: at a root closure every non-bound target is
   flagged (whatever it is, it was captured across the spawn); inside a
   named definition reached by reference, an identifier that is neither
   bound nor resolvable in the index is an enclosing function's parameter
   — owner-threaded state on loan, which the caller's own summary already
   accounts for — and is skipped. *)

open Check_common

let domain_attr = "race.domain"

let sink_suffixes = [ [ "Pool"; "run" ]; [ "Domain"; "spawn" ] ]
let mapper_names = [ "par_map"; "par_map2"; "par_map3" ]

let is_sink np =
  List.exists (fun s -> Tast_util.has_suffix ~suffix:s np) sink_suffixes
  || (match List.rev np with f :: _ -> List.mem f mapper_names | [] -> false)

(* Mutating functions whose first positional argument is the mutated
   structure (A1's table). *)
let is_write_fn np =
  match np with
  | [ (":=" | "incr" | "decr") ] -> true
  | [ ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill" | "blit") ] -> true
  | "Hashtbl"
    :: ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace")
    :: _ ->
    true
  | [ "Buffer"; f ]
    when String.length f >= 4 && String.equal (String.sub f 0 4) "add_" ->
    true
  | [ "Buffer"; ("clear" | "reset" | "truncate") ] -> true
  | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear" | "transfer") ] -> true
  | [ "Stack"; ("push" | "pop" | "clear") ] -> true
  | _ -> false

(* Reading functions whose first positional argument is the structure
   read.  Plain reads of racy locations are exactly what the OCaml
   memory model leaves unsynchronised. *)
let is_read_fn np =
  match np with
  | [ "!" ] -> true
  | [ ("Array" | "Bytes"); ("get" | "unsafe_get" | "length" | "to_list" | "copy") ]
    ->
    true
  | "Hashtbl"
    :: ( "find" | "find_opt" | "find_all" | "mem" | "length" | "iter" | "fold"
       | "copy" | "to_seq" )
    :: _ ->
    true
  | [ "Buffer"; ("contents" | "length" | "nth" | "to_bytes" | "sub") ] -> true
  | [ "Queue"; ("peek" | "peek_opt" | "top" | "length" | "is_empty" | "iter" | "fold") ]
    ->
    true
  | [ "Stack"; ("top" | "top_opt" | "length" | "is_empty") ] -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-expression summaries                                            *)
(* ------------------------------------------------------------------ *)

type site = { sloc : Location.t; srule : string; skey : string; what : string }
type reference = { target : [ `Stamp of string | `Path of string ]; rname : string }
type summary = { sites : site list; refs : reference list }

let rec target_root (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_field (e, _, _) -> target_root e
  | _ -> None

(* The identifier a (possibly pipe-nested) application ultimately calls
   through, or [None] when the function position is computed (a field
   read, a just-returned closure). *)
let rec deep_head_ident (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_apply (f, _) -> deep_head_ident f
  | _ -> None

(* Is the definition's right-hand side something whose body the walk can
   see (a lambda) or follow (an alias)?  Anything else — a closure read
   out of a table, a callback received in a record — is opaque to the
   checker even though the index resolves its *binding*. *)
let def_body_visible (def : Index.def) =
  let _, body = Tast_util.peel_functions def.expr in
  match body.exp_desc with
  | Texp_function _ -> true
  | Texp_ident _ -> true
  | _ -> body != def.expr (* peeled at least one [fun] parameter *)

let summarize ~strict (index : Index.t) (e : Typedtree.expression) : summary =
  let bound = Tast_util.bound_idents e in
  let is_bound id = Hashtbl.mem bound (Ident.unique_name id) in
  let sites = ref [] and refs = ref [] in
  let seen_refs = Hashtbl.create 32 in
  let add_ref target rname =
    let k = match target with `Stamp s -> "s:" ^ s | `Path p -> "p:" ^ p in
    if not (Hashtbl.mem seen_refs k) then begin
      Hashtbl.add seen_refs k ();
      refs := { target; rname } :: !refs
    end
  in
  let site sloc srule skey what = sites := { sloc; srule; skey; what } :: !sites in
  (* Would a non-bound identifier be accounted for by the caller's own
     summary?  Only when it is an enclosing function's parameter — i.e.
     it resolves to nothing in the index.  At a root closure nothing
     encloses the domain cone, so everything non-bound is foreign. *)
  let foreign (p : Path.t) =
    match p with
    | Pident id ->
      if is_bound id then None
      else if strict || Index.resolve_stamp index (Ident.unique_name id) <> None
      then Some (Ident.name id)
      else None
    | p -> Some (Tast_util.dotted (Tast_util.path_of p))
  in
  let classify_target loc ~rule ~key ~describe (tgt : Typedtree.expression) =
    match target_root tgt with
    | None -> ()
    | Some p -> (
      match foreign p with
      | Some name -> site loc rule key (describe name)
      | None -> ())
  in
  let write_target loc tgt =
    classify_target loc ~rule:"D1" ~key:"escape"
      ~describe:(fun n ->
        Printf.sprintf
          "write to mutable state captured from outside the domain cone (%s)" n)
      tgt
  in
  let read_target loc tgt =
    classify_target loc ~rule:"D2" ~key:"publish"
      ~describe:(fun n ->
        Printf.sprintf
          "read of mutable state created outside the domain cone (%s) without an \
           Atomic or pool-barrier handoff"
          n)
      tgt
  in
  (* An opaque callee is a *domain-safety* obligation only at the layer
     that moves closures between domains — lib/exec, where the unknown
     callee is by construction foreign user code running on a worker.  Elsewhere in the cone (an engine a job
     builds and runs inline) an unknown call stays on the calling domain
     and is A1 purity's problem, not a race. *)
  let unknown_call (loc : Location.t) name =
    if Boundary.sanctioned loc.loc_start.pos_fname then
      site loc "D1" "escape"
        (Printf.sprintf
           "call through a statically-unknown function value (%s) — its writes are \
            invisible to the checker"
           name)
  in
  (* A call through [p]: known (skip), or opaque (flag)? *)
  let classify_call loc (p : Path.t) =
    match p with
    | Pident id ->
      let def = Index.resolve_stamp index (Ident.unique_name id) in
      if is_bound id then begin
        match def with
        | Some def when def_body_visible def -> () (* local fn, body in this expr *)
        | Some _ -> unknown_call loc (Ident.name id ^ " ()")
        | None ->
          (* A parameter or match-bound value used as a function: the
             canonical foreign callback ([job ()], [cb ()], [h ~src]). *)
          unknown_call loc (Ident.name id ^ " ()")
      end
      else begin
        match def with
        | Some def when not (def_body_visible def) ->
          unknown_call loc (Ident.name id ^ " ()")
        | _ -> () (* resolvable lambda/alias: refs descend; external: safe by args *)
      end
    | Pdot _ -> () (* module-level: refs descend if in-project, stdlib safe by args *)
    | _ -> ()
  in
  Tast_util.iter_expressions
    (fun (x : Typedtree.expression) ->
      match x.exp_desc with
      | Texp_ident (p, _, _) -> (
        match p with
        | Pident id ->
          if not (is_bound id) then add_ref (`Stamp (Ident.unique_name id)) (Ident.name id)
        | Pdot _ ->
          let np = Tast_util.path_of p in
          add_ref (`Path (Tast_util.dotted np)) (Tast_util.dotted np)
        | _ -> ())
      | Texp_apply (f, args) -> (
        match Tast_util.head_path f with
        | Some np when is_write_fn np -> (
          match Tast_util.nolabel_args args with
          | tgt :: _ -> write_target x.exp_loc tgt
          | [] -> ())
        | Some np when is_read_fn np -> (
          match Tast_util.nolabel_args args with
          | tgt :: _ -> read_target x.exp_loc tgt
          | [] -> ())
        | _ -> (
          match deep_head_ident f with
          | Some p -> classify_call x.exp_loc p
          | None -> unknown_call x.exp_loc "<computed function position>"))
      | Texp_setfield (e1, _, _, _) -> write_target x.exp_loc e1
      | Texp_setinstvar (_, p, _, _) -> (
        match foreign p with
        | Some n ->
          site x.exp_loc "D1" "escape"
            (Printf.sprintf
               "write to mutable state captured from outside the domain cone (%s)" n)
        | None -> ())
      | Texp_field (e1, _, ld) when ld.lbl_mut = Asttypes.Mutable ->
        read_target x.exp_loc e1
      | _ -> ())
    e;
  { sites = List.rev !sites; refs = List.rev !refs }

(* ------------------------------------------------------------------ *)
(* Reachability from domain roots                                      *)
(* ------------------------------------------------------------------ *)

type root = { rloc : Location.t; desc : string; expr : Typedtree.expression }

let roots (index : Index.t) =
  let acc = ref [] in
  (* Sink arguments, in deterministic source order. *)
  List.iter
    (fun (source : Cmt_source.t) ->
      Tast_util.iter_structure_expressions
        (fun (e : Typedtree.expression) ->
          match e.exp_desc with
          | Texp_apply (f, args) -> (
            match Tast_util.head_path f with
            | Some np when is_sink np ->
              List.iter
                (fun (a : Typedtree.expression) ->
                  let p = a.exp_loc.loc_start in
                  acc :=
                    {
                      rloc = a.exp_loc;
                      desc =
                        Printf.sprintf "the domain closure submitted at %s:%d"
                          p.pos_fname p.pos_lnum;
                      expr = a;
                    }
                    :: !acc)
                (Tast_util.supplied_args args)
            | _ -> ())
          | _ -> ())
        source.str)
    index.sources;
  (* [@race.domain] expressions — hook closures handed to setters rather
     than to a spawn. *)
  List.iter
    (fun (source : Cmt_source.t) ->
      Tast_util.iter_structure_expressions
        (fun (e : Typedtree.expression) ->
          if Tast_util.has_attr domain_attr e.exp_attributes then
            let p = e.exp_loc.loc_start in
            acc :=
              {
                rloc = e.exp_loc;
                desc =
                  Printf.sprintf "the [@race.domain] closure at %s:%d" p.pos_fname
                    p.pos_lnum;
                expr = e;
              }
              :: !acc)
        source.str)
    index.sources;
  (* [@race.domain] definitions. *)
  List.iter
    (fun (def : Index.def) ->
      if Tast_util.has_attr domain_attr def.attrs then
        acc :=
          {
            rloc = def.loc;
            desc = Printf.sprintf "[@race.domain] %s" def.display;
            expr = def.expr;
          }
          :: !acc)
    index.all_defs;
  List.rev !acc

let compute (index : Index.t) =
  let findings = ref [] in
  let emitted = Hashtbl.create 64 in
  let summaries = Hashtbl.create 128 in
  let summary_of (def : Index.def) =
    let k = Index.def_key def in
    match Hashtbl.find_opt summaries k with
    | Some s -> s
    | None ->
      let s = summarize ~strict:false index def.expr in
      Hashtbl.add summaries k s;
      s
  in
  let flag ~(root : root) ~chain (s : site) =
    let fkey =
      (s.sloc.Location.loc_start.pos_fname, s.sloc.loc_start.pos_cnum, s.what)
    in
    if not (Hashtbl.mem emitted fkey) then begin
      Hashtbl.add emitted fkey ();
      let via =
        match chain with
        | [] -> ""
        | chain -> Printf.sprintf " via %s" (String.concat " -> " chain)
      in
      findings :=
        Finding.of_loc ~chain ~rule:s.srule ~key:s.skey
          ~msg:
            (Printf.sprintf
               "%s — runs on a pool worker domain, reachable from %s%s; make it \
                Atomic or job-owned (handed back behind the pool barrier), or \
                justify with [@race.allow %s \"...\"]"
               s.what root.desc via s.skey)
          s.sloc
        :: !findings
    end
  in
  let rec visit ~root ~chain ~visited (s : summary) =
    List.iter (fun site -> flag ~root ~chain site) s.sites;
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
          (* Referencing a plain value does not execute its defining
             expression on this domain — that ran on the owner at
             definition time.  Only function bodies (and aliases, which
             may lead to one) are code the referencing domain runs; the
             value itself, if mutable, is caught at its access sites
             inside the cone. *)
          if def_body_visible def then begin
            let k = Index.def_key def in
            if not (Hashtbl.mem visited k) then begin
              Hashtbl.add visited k ();
              visit ~root ~chain:(chain @ [ def.display ]) ~visited (summary_of def)
            end
          end)
      s.refs
  in
  let rs = roots index in
  List.iter
    (fun (root : root) ->
      let visited = Hashtbl.create 32 in
      visit ~root ~chain:[] ~visited (summarize ~strict:true index root.expr))
    rs;
  (List.rev !findings, List.length rs)

(* One walk serves both D-rules; memoised on the index like alloccheck's. *)
let cached : (Index.t * (Finding.t list * int)) option ref = ref None

let walk_results (index : Index.t) =
  match !cached with
  | Some (i, r) when i == index -> r
  | _ ->
    let r = compute index in
    cached := Some (index, r);
    r

let findings index = fst (walk_results index)
let n_roots index = snd (walk_results index)
