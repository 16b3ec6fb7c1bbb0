(* Kept in subscription order: [subscribe] is rare and pays the append,
   so [emit] walks the list as it is. *)
type 'a t = { mutable subscribers : ('a -> unit) list }

let create () = { subscribers = [] }

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let rec call x = function
  | [] -> ()
  | f :: rest ->
    f x;
    call x rest

let emit t x = call x t.subscribers

let subscriber_count t = List.length t.subscribers
