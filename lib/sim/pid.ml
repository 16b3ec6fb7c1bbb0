type t = int

let compare = Int.compare
let equal = Int.equal
let hash p = p

let pp ppf p = Format.fprintf ppf "p%d" (p + 1)
let to_string p = Format.asprintf "%a" pp p

let all ~n = List.init n Fun.id
let others ~n p = List.filter (fun q -> q <> p) (all ~n)

let next_in_ring ~n p = (p + 1) mod n
let prev_in_ring ~n p = (p + n - 1) mod n

let is_valid ~n p = p >= 0 && p < n

(* A big-endian Patricia tree (Okasaki & Gill, "Fast Mergeable Integer
   Maps", 1998).  [Branch (prefix, bit, l, r)]: every element of the
   branch agrees with [prefix] on the bits above [bit], a power of two;
   [l] holds those with [bit] clear, [r] those with it set, and neither
   is [Empty].  Elements are non-negative, so the in-order walk is
   ascending and the shape is a function of the elements alone. *)
module Set = struct
  type elt = int
  type t = Empty | Leaf of int | Branch of int * int * t * t

  let empty = Empty
  let is_empty t = match t with Empty -> true | Leaf _ | Branch _ -> false

  let zero_bit k bit = k land bit = 0

  (* [k]'s bits strictly above [bit]. *)
  let mask k bit = k land (-bit lxor bit)
  let matches k prefix bit = mask k bit = prefix

  (* The highest set bit of [x > 0]. *)
  let highest_bit x =
    let x = x lor (x lsr 1) in
    let x = x lor (x lsr 2) in
    let x = x lor (x lsr 4) in
    let x = x lor (x lsr 8) in
    let x = x lor (x lsr 16) in
    let x = x lor (x lsr 32) in
    x - (x lsr 1)

  (* The branch over two trees with disjoint prefixes [p0] and [p1]. *)
  let join p0 t0 p1 t1 =
    let bit = highest_bit (p0 lxor p1) in
    if zero_bit p0 bit then Branch (mask p0 bit, bit, t0, t1) else Branch (mask p0 bit, bit, t1, t0)

  (* [Branch (p, bit, l, r)] without empty children, and [t] itself when
     its children come back unchanged, so untouched subtrees stay
     shared. *)
  let rebuild t p bit l r l' r' =
    if l' == l && r' == r then t
    else
      match (l', r') with
      | Empty, s | s, Empty -> s
      | _ -> Branch (p, bit, l', r')

  let rec mem k t =
    match t with
    | Empty -> false
    | Leaf j -> k = j
    | Branch (_, bit, l, r) -> mem k (if zero_bit k bit then l else r)

  let rec insert k t =
    match t with
    | Empty -> Leaf k
    | Leaf j -> if j = k then t else join k (Leaf k) j t
    | Branch (p, bit, l, r) ->
      if not (matches k p bit) then join k (Leaf k) p t
      else if zero_bit k bit then
        let l' = insert k l in
        if l' == l then t else Branch (p, bit, l', r)
      else
        let r' = insert k r in
        if r' == r then t else Branch (p, bit, l, r')

  let add k t =
    if k < 0 then invalid_arg "Pid.Set.add: negative element";
    insert k t

  let rec remove k t =
    match t with
    | Empty -> Empty
    | Leaf j -> if j = k then Empty else t
    | Branch (p, bit, l, r) ->
      if not (matches k p bit) then t
      else if zero_bit k bit then rebuild t p bit l r (remove k l) r
      else rebuild t p bit l r l (remove k r)

  let rec union s t =
    if s == t then s
    else
      match (s, t) with
      | Empty, u | u, Empty -> u
      | Leaf k, u | u, Leaf k -> insert k u
      | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
        if m = n && p = q then rebuild s p m s0 s1 (union s0 t0) (union s1 t1)
        else if m > n && matches q p m then
          if zero_bit q m then rebuild s p m s0 s1 (union s0 t) s1
          else rebuild s p m s0 s1 s0 (union s1 t)
        else if m < n && matches p q n then
          if zero_bit p n then rebuild t q n t0 t1 (union s t0) t1
          else rebuild t q n t0 t1 t0 (union s t1)
        else join p s q t

  let rec inter s t =
    if s == t then s
    else
      match (s, t) with
      | Empty, _ | _, Empty -> Empty
      | Leaf k, u -> if mem k u then s else Empty
      | u, Leaf k -> if mem k u then t else Empty
      | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
        if m = n && p = q then rebuild s p m s0 s1 (inter s0 t0) (inter s1 t1)
        else if m > n && matches q p m then inter (if zero_bit q m then s0 else s1) t
        else if m < n && matches p q n then inter s (if zero_bit p n then t0 else t1)
        else Empty

  let rec diff s t =
    if s == t then Empty
    else
      match (s, t) with
      | Empty, _ -> Empty
      | _, Empty -> s
      | Leaf k, u -> if mem k u then Empty else s
      | _, Leaf k -> remove k s
      | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
        if m = n && p = q then rebuild s p m s0 s1 (diff s0 t0) (diff s1 t1)
        else if m > n && matches q p m then
          if zero_bit q m then rebuild s p m s0 s1 (diff s0 t) s1
          else rebuild s p m s0 s1 s0 (diff s1 t)
        else if m < n && matches p q n then diff s (if zero_bit p n then t0 else t1)
        else s

  (* [s] is a subset of [t]: a shared subtree is a subset of itself.  A
     branch of [s] wider than [t]'s has members on both sides of a bit
     on which all of [t] agrees, so it is not a subset. *)
  let rec subset s t =
    s == t
    ||
    match (s, t) with
    | Empty, _ -> true
    | _, Empty -> false
    | Leaf k, _ -> mem k t
    | Branch _, Leaf _ -> false
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      if m = n && p = q then subset s0 t0 && subset s1 t1
      else if m < n && matches p q n then subset s (if zero_bit p n then t0 else t1)
      else false

  (* A shared subtree is not empty, so it is a common member. *)
  let rec disjoint s t =
    match (s, t) with
    | Empty, _ | _, Empty -> true
    | _ when s == t -> false
    | Leaf k, u | u, Leaf k -> not (mem k u)
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      if m = n && p = q then disjoint s0 t0 && disjoint s1 t1
      else if m > n && matches q p m then disjoint (if zero_bit q m then s0 else s1) t
      else if m < n && matches p q n then disjoint s (if zero_bit p n then t0 else t1)
      else true

  (* Shapes are canonical, so equal sets are equal trees. *)
  let rec equal s t =
    s == t
    ||
    match (s, t) with
    | Empty, Empty -> true
    | Leaf j, Leaf k -> j = k
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) -> p = q && m = n && equal s0 t0 && equal s1 t1
    | _ -> false

  (* Lexicographic order on the ascending element sequences, as
     [Stdlib.Set.S.compare]: each argument is a stack of the subtrees
     still to enumerate, and two physically equal tops are skipped
     whole. *)
  let compare s t =
    let rec go ss ts =
      match (ss, ts) with
      | [], [] -> 0
      | [], _ :: _ -> -1
      | _ :: _, [] -> 1
      | s :: ss', t :: ts' when s == t -> go ss' ts'
      | Empty :: ss', _ -> go ss' ts
      | _, Empty :: ts' -> go ss ts'
      | Branch (_, _, l, r) :: ss', _ -> go (l :: r :: ss') ts
      | _, Branch (_, _, l, r) :: ts' -> go ss (l :: r :: ts')
      | Leaf j :: ss', Leaf k :: ts' ->
        let c = Int.compare j k in
        if c <> 0 then c else go ss' ts'
    in
    go [ s ] [ t ]

  let rec iter f t =
    match t with
    | Empty -> ()
    | Leaf k -> f k
    | Branch (_, _, l, r) ->
      iter f l;
      iter f r

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf k -> f k acc
    | Branch (_, _, l, r) -> fold f r (fold f l acc)

  let rec cardinal t =
    match t with Empty -> 0 | Leaf _ -> 1 | Branch (_, _, l, r) -> cardinal l + cardinal r

  let elements t =
    let rec go acc t =
      match t with Empty -> acc | Leaf k -> k :: acc | Branch (_, _, l, r) -> go (go acc r) l
    in
    go [] t

  let rec min_elt_opt t =
    match t with Empty -> None | Leaf k -> Some k | Branch (_, _, l, _) -> min_elt_opt l

  let of_list ks = List.fold_left (fun t k -> add k t) Empty ks

  (* Each call walks only where [a] and [b] are not physically shared;
     the branches of [a] that [b] cannot reach are iterated whole.  In
     the last case every element of [b] agrees with [q] above bit [m],
     so [b] falls within one half of [a] or outside it. *)
  let rec iter_diff f a b =
    if a != b then
      match (a, b) with
      | Empty, _ -> ()
      | _, Empty -> iter f a
      | Leaf k, _ -> if not (mem k b) then f k
      | Branch (p, m, a0, a1), Branch (q, n, b0, b1) when m = n && p = q ->
        iter_diff f a0 b0;
        iter_diff f a1 b1
      | Branch (p, m, _, _), Branch (q, n, b0, b1) when m < n ->
        if matches p q n then iter_diff f a (if zero_bit p n then b0 else b1) else iter f a
      | Branch (p, m, a0, a1), (Leaf q | Branch (q, _, _, _)) ->
        if not (matches q p m) then iter f a
        else if zero_bit q m then begin
          iter_diff f a0 b;
          iter f a1
        end
        else begin
          iter f a0;
          iter_diff f a1 b
        end
end

module Map = Map.Make (Int)

let set_of_list ps = Set.of_list ps

let pp_set ppf s =
  let elts = Set.elements s in
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp) elts
