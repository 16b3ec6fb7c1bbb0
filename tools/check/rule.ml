(* The rule registry's types.  One registry entry is one analysis: it
   names every rule id it can emit and runs at one scope —

     - [File]: sees one parsed implementation at a time;
     - [Project]: sees every parsed file plus the raw file listing, for
       cross-file and filesystem checks;
     - [Typed]: sees the index of every loaded .cmt, for type-aware and
       interprocedural rules.

   An entry that walks once and emits several ids (the zero-allocation
   walk: Z1-Z4; the domain-cone walk: A1, D1 and D2) lists them all.  A
   typed entry also returns the suppression sites it honoured as
   boundaries rather than as finding filters (see Allow.stale).

   To add a rule: write the analysis in its own module and append its
   entry to [Registry.all].  Suppression ([@check.allow <key> "reason"]),
   stale-waiver detection and output come for free. *)

type info = {
  id : string;  (** Printed in findings: [R1], [A3], [Z2], [D1], ... *)
  key : string;  (** Suppression key: [@check.allow <key> "reason"]. *)
  doc : string;  (** One line for [ecfd check --list-rules]. *)
}

type scope =
  | File of (Parsed.source -> Finding.t list)
  | Project of (Parsed.project -> Finding.t list)
  | Typed of (Index.t -> Finding.t list * Allow.use list)

type t = {
  emits : info list;
  scope : scope;
}

let one ~id ~key ~doc scope = { emits = [ { id; key; doc } ]; scope }

(* A typed analysis that honours no boundary sites. *)
let typed run = Typed (fun index -> (run index, []))
