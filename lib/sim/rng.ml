(* Splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, high-quality,
   splittable generator.  Chosen over [Stdlib.Random] so runs are stable
   across OCaml versions.

   The state is 8 unboxed bytes rather than a mutable [int64] field: a
   store into an [int64] field boxes the new value, a [Bytes.set_int64_le]
   does not.  With [next_int64] and [mix] inlined into [draw], every
   intermediate stays in a register and a draw allocates nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (next_int64 t)
let copy t = Bytes.copy t

(* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively, then
   rejection-sample: [raw mod bound] alone over-weights the small residues
   whenever [bound] does not divide 2^62.  A draw is rejected exactly when
   it falls in the incomplete top bucket [floor(2^62/bound)*bound, 2^62);
   the wrap-around test below detects that without materialising 2^62
   (which exceeds [max_int]).  Expected draws per call < 2, and for the
   small bounds the simulator uses, rejection is vanishingly rare. *)
let rec draw t bound =
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  let r = raw mod bound in
  if raw - r + (bound - 1) < 0 then draw t bound else r

let[@alloc.zero] int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t bound

let int_in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t ~bound:(hi - lo + 1)

let float t =
  let raw = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  raw /. 9007199254740992.0 (* 2^53 *)

let bool t ~p = float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t xs =
  match xs with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth xs (int t ~bound:(List.length xs))
