(* Suppression fixture: the same violation shapes as the [*_bad] files,
   each silenced by [@check.allow <rule> "reason"].  Must produce zero
   findings. *)

[@@@check.allow obsname "fixture: whole-file allowance for the computed name below"]

let wall () = (Sys.time [@check.allow ambient "fixture: measuring the host"]) ()

let named reg which = Obs.Registry.counter reg ~name:("fixture." ^ which)
