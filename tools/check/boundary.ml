(* The sanctioned multicore boundary, in one place.

   Only lib/exec/ — the deterministic job pool, whose whole point is to
   confine parallelism where it cannot reach simulated state — is allowed
   to touch blocking/ordering primitives (Domain, Atomic, Mutex,
   Condition, Semaphore) directly.

   The exemption is a property of the checked boundary, not of the
   syntax, so it lives with the domain-safety rules (D1, D4) and the
   pool-job purity rule A1.  Matching is by path component, so a file
   named after some other module (say, a decoy shard.ml) gets no
   exemption. *)

let normalized path = String.concat "/" (String.split_on_char '\\' path)

let sanctioned path =
  let rec scan = function
    | "lib" :: "exec" :: _ -> true
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan (String.split_on_char '/' (normalized path))

(* The seeded generator, by exact path: the one module allowed to be
   built on ambient-looking primitives (R1) and sanctioned inside pool
   jobs (A1).  Any other file that happens to be called rng.ml (a decoy
   in a fixture tree, a second generator grown elsewhere) gets no
   exemption. *)
let is_rng path =
  let p = normalized path in
  String.equal p "lib/sim/rng.ml"
  || (String.length p > String.length "/lib/sim/rng.ml"
     && Filename.check_suffix p "/lib/sim/rng.ml")
