(* Allocation behaviour of external (non-project) functions, by normalised
   path.  The walker (walk.ml) resolves project-defined callees through
   the index and descends into them; everything else lands here.

   [Safe] is the word-sized core the engine hot path is allowed to lean
   on: integer arithmetic and comparison, in-place array/bytes access, and
   the few stdlib entry points that neither box nor build.  [Abort] marks
   deliberate whole-run aborts (raise/failwith/invalid_arg and friends):
   the abort path is exempt from the zero-allocation contract, and its
   argument — typically an exception constructor application — is not
   traversed.  [Alloc] is the curated table of definite allocators, each
   carrying the Z-rule it falls under and a message fragment.  Anything
   unlisted is [Unknown] and reported as Z4: the checker refuses to bless
   a call it cannot see through. *)

type verdict =
  | Safe
  | Abort
  | Alloc of string * string * string  (* rule id, suppression key, what *)
  | Unknown

let z2 what = Alloc ("Z2", "boxed", what)
let z3 what = Alloc ("Z3", "bulk", what)

let classify np =
  match np with
  (* -- word-sized operations: no allocation ------------------------- *)
  | [ ( "+" | "-" | "*" | "/" | "mod" | "land" | "lor" | "lxor" | "lsl" | "lsr"
      | "asr" | "lnot" | "succ" | "pred" | "abs" | "max_int" | "min_int" | "not" | "&&"
      | "&" | "||" | "or" | "=" | "<>" | "==" | "!=" | "<" | ">" | "<=" | ">="
      | "compare" | "min" | "max" | "ignore" | "!" | ":=" | "incr" | "decr"
      | "~-" | "~+" | "fst" | "snd" | "int_of_char" | "char_of_int"
      | "int_of_float" | "truncate" ) ] ->
    Safe
  | [ "Int";
      ( "equal" | "compare" | "max" | "min" | "abs" | "add" | "sub" | "mul"
      | "div" | "rem" | "succ" | "pred" | "neg" | "logand" | "logor" | "logxor"
      | "lognot" | "shift_left" | "shift_right" | "shift_right_logical" | "zero"
      | "one" | "minus_one" ) ] ->
    Safe
  | [ "Bool"; ("equal" | "compare" | "not") ] -> Safe
  | [ "Char"; ("code" | "chr" | "equal" | "compare" | "lowercase_ascii" | "uppercase_ascii") ]
    ->
    Safe
  | [ "Float"; ("to_int" | "compare" | "equal" | "is_nan" | "is_integer" | "sign_bit") ]
    ->
    Safe
  | [ "Array"; ("get" | "set" | "unsafe_get" | "unsafe_set" | "length" | "blit" | "fill") ]
    ->
    Safe
  | [ "Bytes";
      ( "get" | "set" | "unsafe_get" | "unsafe_set" | "length" | "blit" | "fill"
      | "unsafe_blit" | "unsafe_fill" ) ] ->
    Safe
  | [ "String"; ("length" | "get" | "unsafe_get" | "equal" | "compare") ] -> Safe
  (* 64-bit words in place: ocamlopt keeps an [int64] that is let-bound or
     consumed at once in a register and boxes it only when it escapes (a
     store into a field, the return of a function that is not inlined).
     The roots that use these (Rng.int) inline their helpers, and a
     dynamic test counts their minor words. *)
  | [ "Int64";
      ( "add" | "sub" | "mul" | "logand" | "logor" | "logxor" | "shift_left"
      | "shift_right" | "shift_right_logical" | "to_int" | "of_int" | "equal"
      | "compare" ) ] ->
    Safe
  | [ "Bytes"; ("get_int64_le" | "set_int64_le" | "get_int64_ne" | "set_int64_ne") ] -> Safe
  (* In-place Bigarray access, compiled inline when the element kind is
     known statically (the trace's int chunks). *)
  | [ "Bigarray"; "Array1"; ("get" | "set" | "unsafe_get" | "unsafe_set" | "dim") ] -> Safe
  | [ "Hashtbl"; ("mem" | "length" | "find" | "hash") ] -> Safe
  | [ "List"; ("length" | "hd" | "tl" | "mem" | "memq" | "is_empty" | "nth") ] -> Safe
  | [ "Option"; ("is_some" | "is_none" | "value" | "get" | "equal" | "compare") ] -> Safe
  | [ "Buffer"; ("length" | "clear" | "reset") ] -> Safe
  | [ ("Queue" | "Stack"); ("is_empty" | "length" | "clear") ] -> Safe
  | [ "Sys"; "opaque_identity" ] -> Safe
  (* -- deliberate aborts: exempt, arguments not traversed ------------ *)
  | [ ("raise" | "raise_notrace" | "failwith" | "invalid_arg" | "exit") ] -> Abort
  | [ "Printexc"; "raise_with_backtrace" ] -> Abort
  (* -- definite allocators, with the rule they fall under ------------ *)
  | [ "ref" ] -> z2 "ref-cell allocation"
  | [ ( "+." | "-." | "*." | "/." | "**" | "sqrt" | "exp" | "log" | "log10"
      | "sin" | "cos" | "tan" | "asin" | "acos" | "atan" | "atan2" | "ceil"
      | "floor" | "abs_float" | "mod_float" | "float_of_int" | "float"
      | "float_of_string" | "~-." ) ] ->
    z2 "boxed float result"
  | "Float" :: _ -> z2 "boxed float result"
  | [ "Lazy"; "force" ] -> z2 "forcing a lazy value may run and allocate its thunk"
  | [ "Hashtbl"; "find_opt" ] -> z2 "option allocation"
  | "Option" :: _ -> z2 "option allocation"
  | [ "^" ] | [ "String"; ("make" | "init" | "sub" | "concat" | "cat" | "map" | "mapi"
                          | "split_on_char" | "trim" | "escaped" | "uppercase_ascii"
                          | "lowercase_ascii" | "capitalize_ascii" | "of_bytes"
                          | "to_bytes" | "blit") ]
  | [ ("string_of_int" | "string_of_float" | "string_of_bool") ]
  | [ "Int"; "to_string" ] ->
    z3 "string allocation"
  | [ "Array";
      ( "make" | "create_float" | "init" | "make_matrix" | "copy" | "append"
      | "concat" | "sub" | "of_list" | "to_list" | "of_seq" | "to_seq" | "map"
      | "mapi" | "stable_sort" ) ] ->
    z3 "array allocation"
  | [ "Bytes"; ("create" | "make" | "init" | "copy" | "sub" | "extend" | "cat"
               | "of_string" | "to_string" | "sub_string") ] ->
    z3 "bytes allocation"
  | [ "@" ]
  | [ "List";
      ( "rev" | "map" | "mapi" | "rev_map" | "append" | "concat" | "flatten"
      | "init" | "filter" | "filter_map" | "partition" | "sort" | "sort_uniq"
      | "stable_sort" | "fast_sort" | "split" | "combine" | "cons" | "concat_map"
      | "of_seq" | "to_seq" ) ] ->
    z3 "list allocation"
  | [ "Hashtbl"; ("create" | "add" | "replace" | "copy" | "of_seq" | "to_seq"
                 | "reset") ] ->
    z3 "hash-table allocation"
  | "Buffer" :: _ -> z3 "buffer allocation"
  | [ ("Queue" | "Stack"); _ ] -> z3 "container node allocation"
  | ("Printf" | "Format" | "Scanf" | "Fmt") :: _ -> z3 "formatting allocates"
  | _ -> Unknown
