type t = int

let zero = 0
let compare = Int.compare
let equal = Int.equal
let ( + ) = Stdlib.( + )
let ( - ) = Stdlib.( - )
let max = Int.max
let min = Int.min
let pp ppf t = Format.fprintf ppf "t=%d" t
let to_string t = string_of_int t
