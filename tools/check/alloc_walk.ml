(* Z1-Z4 — the interprocedural zero-allocation walk.

   Roots are the value bindings annotated [@alloc.zero] (the engine hot
   path: Engine.step's merge loop, the periodic re-arm, the timer-wheel
   cascade, the heap sifts).  From each root the walker descends into
   every project-defined callee it can resolve through the index — by
   stamp within a unit, by normalised dotted path across units, exactly
   like A1/A2 — and classifies each expression it passes:

     Z1 closure   a [fun]/[function] built inside a body (a let-bound
                  local function included: hoist it, as heap.ml did), or
                  a partial application, both of which box a closure;
     Z2 boxed     a constructor with arguments, tuple, record, variant
                  payload, lazy thunk, [ref] cell or boxed float;
     Z3 bulk      array/string/bytes/list/buffer/format construction;
     Z4 extern    a call the checker cannot see through — an external
                  not in the curated table (alloc_tables.ml), or a call
                  through a statically-unknown function value such as a
                  record field or a callback parameter.

   Two escape hatches, both deliberate and both audited:
     - a def already annotated [@alloc.zero] is not re-descended from
       another root (it is checked as a root in its own right);
     - an expression carrying [@check.allow extern "reason"] is a trusted
       boundary: the walker does not enter it at all.  This is how the
       engine marks the aperiodic dispatch leg and the timer callbacks,
       whose allocation behaviour belongs to the registering component
       (and is watched dynamically by the e20 allocation gate).
   Other [@check.allow] keys only suppress findings (Driver); they do
   not stop the descent, so a [bulk] waiver on a growth helper still
   lets the walker flag a stray closure inside it.

   Deliberate aborts (raise/failwith/invalid_arg/assert) are exempt: the
   zero-allocation contract covers the live path, not the crash.

   The four rules are facets of this one walk, so one registry entry
   runs it once and emits all four ids. *)

let zero_attr = "alloc.zero"

(* An [@check.allow extern "..."] directly on the expression: trusted
   boundary, no descent.  Malformed payloads are ignored here — the
   suppression collector already reports them under CHECK. *)
let is_boundary (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      Allow.is_allow a
      &&
      match Allow.parse a with
      | Some ("extern", Some _) -> true
      | _ -> false)
    attrs

let roots (index : Index.t) =
  List.filter
    (fun (d : Index.def) -> Tast_util.has_attr zero_attr d.attrs)
    index.all_defs

type ctx = {
  index : Index.t;
  root : Index.def;
  visited : (string * int, unit) Hashtbl.t;  (* per root: def_key *)
  emitted : (string * int * string, unit) Hashtbl.t;  (* global: file, offset, rule *)
  findings : Finding.t list ref;
  boundaries : Allow.use list ref;
      (* [@check.allow extern] sites the walk actually stopped at —
         reported to Allow.stale as honoured spans, since a boundary
         produces no finding to cover. *)
}

let flag ctx ~chain ~rule ~key loc what =
  let start = loc.Location.loc_start in
  let fkey = (start.pos_fname, start.pos_cnum, rule) in
  if not (Hashtbl.mem ctx.emitted fkey) then begin
    Hashtbl.add ctx.emitted fkey ();
    let via =
      match chain with
      | [] -> ""
      | chain -> Printf.sprintf " via %s" (String.concat " -> " chain)
    in
    ctx.findings :=
      Finding.of_loc ~chain:(ctx.root.display :: chain) ~rule ~key
        ~msg:
          (Printf.sprintf
             "%s — on the zero-allocation path from [@alloc.zero] %s%s; remove the \
              allocation (HACKING.md \"Allocation discipline\") or justify with \
              [@check.allow %s \"...\"]"
             what ctx.root.display via key)
        loc
      :: !(ctx.findings)
  end

(* Skim the leading [fun]/[function] layers of a definition: they are the
   def's parameters, not closures built on the caller's path.  Guards are
   part of the executed body. *)
let rec bodies (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    List.concat_map
      (fun (c : Typedtree.value Typedtree.case) ->
        (match c.c_guard with Some g -> [ g ] | None -> []) @ bodies c.c_rhs)
      cases
  | _ -> [ e ]

let rec visit_def ctx ~chain (def : Index.def) =
  let k = Index.def_key def in
  if not (Hashtbl.mem ctx.visited k) then begin
    Hashtbl.add ctx.visited k ();
    match def.expr.exp_desc with
    | Texp_ident (p, _, _) ->
      (* Bare alias ([let equal = Int.equal]): behaves exactly like a
         call to the aliased function. *)
      call ctx ~chain ~site:def.expr ~n_args:0 ~fn_type:def.expr.exp_type p []
    | _ -> List.iter (walk ctx ~chain) (bodies def.expr)
  end

and walk ctx ~chain (e : Typedtree.expression) =
  if is_boundary e.exp_attributes then
    ctx.boundaries :=
      ( e.exp_loc.loc_start.pos_fname,
        "extern",
        e.exp_loc.loc_start.pos_cnum )
      :: !(ctx.boundaries)
  else
    match e.exp_desc with
    | Texp_ident _ | Texp_constant _ -> ()
    | Texp_function _ ->
      (* The closure is the allocation; its body runs (and is checked)
         wherever it is actually called. *)
      flag ctx ~chain ~rule:"Z1" ~key:"closure" e.exp_loc
        "closure allocation (fun/function, or a let-bound local function — hoist it \
         to module level)"
    | Texp_apply (f, args0) -> (
      let args = Tast_util.supplied_args args0 in
      match f.exp_desc with
      | Texp_ident (p, _, _) ->
        call ctx ~chain ~site:e ~n_args:(List.length args0) ~fn_type:f.exp_type p args
      | Texp_apply _ ->
        (* Calling the result of another application: the inner apply is
           classified on its own (a partial application flags Z1). *)
        walk ctx ~chain f;
        List.iter (walk ctx ~chain) args
      | _ ->
        flag ctx ~chain ~rule:"Z4" ~key:"extern" e.exp_loc
          "call through a statically-unknown function value";
        walk ctx ~chain f;
        List.iter (walk ctx ~chain) args)
    | Texp_construct (_, cdesc, args) ->
      if cdesc.cstr_arity > 0 then
        flag ctx ~chain ~rule:"Z2" ~key:"boxed" e.exp_loc
          (Printf.sprintf "%s constructor allocation" cdesc.cstr_name);
      List.iter (walk ctx ~chain) args
    | Texp_tuple _ ->
      flag ctx ~chain ~rule:"Z2" ~key:"boxed" e.exp_loc "tuple allocation";
      Tast_util.shallow_iter (walk ctx ~chain) e
    | Texp_record _ ->
      flag ctx ~chain ~rule:"Z2" ~key:"boxed" e.exp_loc "record allocation";
      Tast_util.shallow_iter (walk ctx ~chain) e
    | Texp_variant (_, Some _) ->
      flag ctx ~chain ~rule:"Z2" ~key:"boxed" e.exp_loc
        "polymorphic variant payload allocation";
      Tast_util.shallow_iter (walk ctx ~chain) e
    | Texp_variant (_, None) -> ()
    | Texp_lazy _ ->
      flag ctx ~chain ~rule:"Z2" ~key:"boxed" e.exp_loc "lazy thunk allocation"
    | Texp_array _ ->
      flag ctx ~chain ~rule:"Z3" ~key:"bulk" e.exp_loc "array literal allocation";
      Tast_util.shallow_iter (walk ctx ~chain) e
    | Texp_assert _ -> () (* deliberate abort: exempt, like raise *)
    | _ -> Tast_util.shallow_iter (walk ctx ~chain) e

and call ctx ~chain ~(site : Typedtree.expression) ~n_args ~fn_type (p : Path.t) args =
  (* Partial application: fewer arguments at the site than the callee
     takes.  For a project def the definition's own [fun] layers give the
     arity exactly.  For an external only the instantiated type is
     available, and it cannot tell a parameter arrow from a result arrow
     — [Array.get cbs i] on a callback table types like a 3-ary partial
     application — so the type-based test is applied only to externals
     outside the Safe table (which, being flagged anyway, cost nothing
     extra when the heuristic misfires). *)
  let rec syn_arity (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { cases = { c_rhs; _ } :: _; _ } -> 1 + syn_arity c_rhs
    | _ -> 0
  in
  let rec ty_arity ty =
    match Types.get_desc ty with
    | Tarrow (_, _, rest, _) -> 1 + ty_arity rest
    | Tpoly (ty, _) -> ty_arity ty
    | _ -> 0
  in
  let partial_app arity =
    if n_args > 0 && n_args < arity then
      flag ctx ~chain ~rule:"Z1" ~key:"closure" site.exp_loc
        "partial application allocates a closure"
  in
  let resolved =
    match p with
    | Path.Pident id -> Index.resolve_stamp ctx.index (Ident.unique_name id)
    | Path.Pdot _ -> Index.resolve_path ctx.index (Tast_util.dotted (Tast_util.path_of p))
    | _ -> None
  in
  match resolved with
  | Some def ->
    partial_app (syn_arity def.expr);
    List.iter (walk ctx ~chain) args;
    (* A callee that is itself [@alloc.zero] is a root of its own: it is
       checked independently, so the descent stops here. *)
    if not (Tast_util.has_attr zero_attr def.attrs) then
      visit_def ctx ~chain:(chain @ [ def.display ]) def
  | None -> (
    let np = Tast_util.path_of p in
    match Alloc_tables.classify np with
    | Abort -> () (* the crash path is exempt; the exn payload is not traversed *)
    | Safe -> List.iter (walk ctx ~chain) args
    | Alloc (rule, key, what) ->
      partial_app (ty_arity fn_type);
      flag ctx ~chain ~rule ~key site.exp_loc
        (Printf.sprintf "%s (%s)" what (Tast_util.dotted np));
      List.iter (walk ctx ~chain) args
    | Unknown ->
      partial_app (ty_arity fn_type);
      flag ctx ~chain ~rule:"Z4" ~key:"extern" site.exp_loc
        (Printf.sprintf "call to %s, which is not known to be allocation-free"
           (Tast_util.dotted np));
      List.iter (walk ctx ~chain) args)

let compute (index : Index.t) =
  let emitted = Hashtbl.create 64 in
  let findings = ref [] in
  let bounds = ref [] in
  List.iter
    (fun root ->
      let ctx =
        { index; root; visited = Hashtbl.create 64; emitted; findings;
          boundaries = bounds }
      in
      visit_def ctx ~chain:[] root)
    (roots index);
  (List.rev !findings, List.rev !bounds)

let rule : Rule.t =
  {
    emits =
      [
        {
          id = "Z1";
          key = "closure";
          doc =
            "closure or partial application on a zero-alloc path (hoist local \
             functions to module level; apply fully)";
        };
        {
          id = "Z2";
          key = "boxed";
          doc =
            "boxed value on a zero-alloc path: constructor with arguments, tuple, \
             record, variant payload, ref cell, lazy thunk, boxed float";
        };
        {
          id = "Z3";
          key = "bulk";
          doc =
            "bulk allocation on a zero-alloc path: array/string/bytes/list/buffer/format \
             construction";
        };
        {
          id = "Z4";
          key = "extern";
          doc =
            "call the checker cannot see through: an unclassified external, or a \
             statically-unknown function value (field, callback parameter)";
        };
      ];
    scope = Typed compute;
  }
