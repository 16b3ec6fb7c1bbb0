type 'a entry = { at : Sim_time.t; seq : int; value : 'a }

type 'a t = { heap : 'a entry Heap.t; mutable next_seq : int }

let compare_entry a b =
  let c = Sim_time.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () = { heap = Heap.create ~cmp:compare_entry; next_seq = 0 }

let length t = Heap.length t.heap
let is_empty t = Heap.is_empty t.heap

let alloc_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule t ~at value = Heap.push t.heap { at; seq = alloc_seq t; value }

let next_time t = Option.map (fun e -> e.at) (Heap.peek t.heap)
let next_at t = (Heap.top_exn t.heap).at
let next_seq t = (Heap.top_exn t.heap).seq

let pop t = Option.map (fun e -> (e.at, e.value)) (Heap.pop t.heap)
let pop_exn t = (Heap.pop_exn t.heap).value

let shrink t = Heap.shrink t.heap

let clear t = Heap.clear t.heap
