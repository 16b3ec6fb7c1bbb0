(* Typedtree / compiler-libs helpers shared by the typed rules.

   Everything the rules match on goes through [path_of] /
   [normalize_name], which turn resolved [Path.t]s into normalised
   component lists: dune's module mangling is undone ("Sim__Engine" ->
   ["Sim"; "Engine"]) and a leading [Stdlib] is stripped, so
   [Stdlib.print_string] and [print_string], or a reference to
   [Exec.Pool.run] from any library, all look alike. *)

(* Split one path component on "__" (dune wrapping), leaving ordinary
   lowercase identifiers that happen to contain underscores alone. *)
let split_mangled comp =
  if comp = "" || not (comp.[0] >= 'A' && comp.[0] <= 'Z') then [ comp ]
  else begin
    let n = String.length comp in
    let parts = ref [] and start = ref 0 in
    let i = ref 0 in
    while !i < n - 1 do
      if comp.[!i] = '_' && comp.[!i + 1] = '_' then begin
        parts := String.sub comp !start (!i - !start) :: !parts;
        i := !i + 2;
        start := !i
      end
      else incr i
    done;
    parts := String.sub comp !start (n - !start) :: !parts;
    List.filter (fun p -> p <> "") (List.rev !parts)
  end

let normalize_name name =
  let comps = String.split_on_char '.' name |> List.concat_map split_mangled in
  match comps with "Stdlib" :: (_ :: _ as rest) -> rest | p -> p

let path_of (p : Path.t) = normalize_name (Path.name p)

let dotted p = String.concat "." p

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let has_suffix ~suffix p =
  let lp = List.length p and ls = List.length suffix in
  lp >= ls && List.equal String.equal suffix (drop (lp - ls) p)

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

(* Does the (instantiated) type mention a constructor whose normalised
   path satisfies [pred]?  This is what makes the A-rules alias-aware:
   however an offending function was reached (let-alias, eta-expansion,
   functor argument), its use site carries the instantiated type. *)
let type_mentions ~pred ty =
  let visited = Hashtbl.create 16 in
  let rec go ty =
    let id = Types.get_id ty in
    if Hashtbl.mem visited id then false
    else begin
      Hashtbl.add visited id ();
      match Types.get_desc ty with
      | Tconstr (p, args, _) -> pred (path_of p) || List.exists go args
      | Tarrow (_, a, b, _) -> go a || go b
      | Ttuple ts -> List.exists go ts
      | Tobject (t, _) -> go t
      | Tfield (_, _, t, rest) -> go t || go rest
      | Tpoly (t, ts) -> go t || List.exists go ts
      | Tvariant row ->
        List.exists
          (fun (_, f) ->
            match Types.row_field_repr f with
            | Types.Rpresent (Some t) -> go t
            | Types.Reither (_, ts, _) -> List.exists go ts
            | _ -> false)
          (Types.row_fields row)
        || go (Types.row_more row)
      | Tvar _ | Tunivar _ | Tnil | Tpackage _ -> false
      | Tlink t | Tsubst (t, _) -> go t
    end
  in
  go ty

let type_to_string ty = Format.asprintf "%a" Printtyp.type_expr ty

let is_arrow ty =
  match Types.get_desc ty with Tarrow _ -> true | Tpoly (t, _) -> (
    match Types.get_desc t with Tarrow _ -> true | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

(* The resolved path in function position, seeing through nothing. *)
let head_path (e : Typedtree.expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some (path_of p) | _ -> None

(* The resolved path at the very head of a (possibly nested) application.
   The typechecker rewrites [x |> List.sort cmp] into the direct
   application [(List.sort cmp) x], whose function position is itself an
   apply — [deep_head] sees through that; [head_path] does not. *)
let rec deep_head (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (path_of p)
  | Texp_apply (f, _) -> deep_head f
  | _ -> None

(* Positional (unlabelled) arguments that were actually supplied. *)
let nolabel_args args =
  List.filter_map
    (fun ((l : Asttypes.arg_label), (a : Typedtree.expression option)) ->
      match (l, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

let supplied_args args =
  List.filter_map (fun (_, (a : Typedtree.expression option)) -> a) args

(* All supplied arguments of a (possibly nested) application, innermost
   first — the companion of [deep_head]. *)
let rec flat_args (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, args) -> flat_args f @ supplied_args args
  | _ -> []

(* Peel [fun p1 -> fun p2 -> body] down to ([p1; p2], body); stops at
   multi-case functions. *)
let rec peel_functions (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function
      { cases = [ { c_lhs; c_guard = None; c_rhs; _ } ]; _ } ->
    let params, body = peel_functions c_rhs in
    (c_lhs :: params, body)
  | _ -> ([], e)

(* Run [f] on every sub-expression of [e], including [e] itself. *)
let iter_expressions f e =
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self x ->
          f x;
          default_iterator.expr self x);
    }
  in
  it.expr it e

(* Run [f] on every expression in a whole structure. *)
let iter_structure_expressions f (str : Typedtree.structure) =
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self x ->
          f x;
          default_iterator.expr self x);
    }
  in
  it.structure it str

(* Apply [f] to the direct sub-expressions of [e] only (no recursion). *)
let shallow_iter f e =
  let open Tast_iterator in
  let it = { default_iterator with expr = (fun _self x -> f x) } in
  default_iterator.expr it e

let expr_exists pred e =
  let found = ref false in
  iter_expressions (fun x -> if (not !found) && pred x then found := true) e;
  !found

(* Every identifier bound by a pattern anywhere in [e] (function
   parameters, lets, match cases), as [Ident.unique_name] keys. *)
let bound_idents e =
  let bound = Hashtbl.create 32 in
  let open Tast_iterator in
  let pat (type k) self (p : k Typedtree.general_pattern) =
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
    | Typedtree.Tpat_alias (_, id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
    | _ -> ());
    default_iterator.pat self p
  in
  let it = { default_iterator with pat } in
  it.expr it e;
  bound

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name) attrs
