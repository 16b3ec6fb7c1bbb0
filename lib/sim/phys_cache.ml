let size = 16

(* A string no caller can hold: every slot starts keyed by it, so the
   first lookup in each slot is a miss and [dummy] never escapes. *)
let absent = String.make 1 '\000'

type 'v t = {
  k1 : string array;
  k2 : string array;
  k3 : string array;
  values : 'v array;
  lookup : string -> string -> string -> 'v;
}

let create ~dummy lookup =
  {
    k1 = Array.make size absent;
    k2 = Array.make size absent;
    k3 = Array.make size absent;
    values = Array.make size dummy;
    lookup;
  }

(* The slot is a function of the string lengths only: cheap, and stable
   under the GC moving the strings. *)
let find t a b c =
  let slot = (String.length a + (3 * String.length b) + (7 * String.length c)) land (size - 1) in
  if t.k1.(slot) == a && t.k2.(slot) == b && t.k3.(slot) == c then t.values.(slot)
  else begin
    let v = t.lookup a b c in
    t.k1.(slot) <- a;
    t.k2.(slot) <- b;
    t.k3.(slot) <- c;
    t.values.(slot) <- v;
    v
  end
