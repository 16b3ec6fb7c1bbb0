(* Small parsetree helpers shared by the parsetree rules. *)

(* Path components with a leading [Stdlib] stripped, so [Stdlib.Random.int]
   and [Random.int] look alike to the rules. *)
let path lid =
  match Longident.flatten lid with "Stdlib" :: rest when rest <> [] -> rest | p -> p

(* The head identifier path of an expression, if it is one. *)
let ident_path (e : Parsetree.expression) =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (path txt) | _ -> None

let last_component lid =
  match List.rev (Longident.flatten lid) with [] -> None | x :: _ -> Some x
