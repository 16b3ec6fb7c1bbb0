(* A decoy: a file outside lib/exec/, whatever its name, gets no boundary
   exemption, so the Domain access is a D4 finding. *)
let whoami () = Domain.self ()
