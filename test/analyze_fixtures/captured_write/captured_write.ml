(* A job that writes state captured from outside its own closure: the
   module-level counter makes the result depend on domain interleaving. *)
let counter = ref 0

let tally xs = Exec.Pool.run (List.map (fun x () -> incr counter; x) xs)

(* A job that prints to a formatter captured from its caller. *)
let render ppf xs = Exec.Pool.run (List.map (fun x () -> Format.fprintf ppf "%d@." x) xs)
