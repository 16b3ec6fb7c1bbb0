(* Plain-text table rendering for the experiment reports, into the
   formatter each experiment is given (only bench/main.ml picks stdout).
   When the ECFD_CSV_DIR environment variable points at a directory, every
   table is also written there as <experiment-id>[-k].csv for plotting. *)

let current_id = ref "table"
let table_counter = ref 0

let heading ppf id title =
  current_id := String.lowercase_ascii id;
  table_counter := 0;
  let rule = String.make 78 '=' in
  Format.fprintf ppf "@.%s@.%s  %s@.%s@.@." rule id title rule

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv ~headers ~rows =
  match Sys.getenv_opt "ECFD_CSV_DIR" with
  | None -> ()
  | Some dir ->
    incr table_counter;
    let suffix = if !table_counter = 1 then "" else Printf.sprintf "-%d" !table_counter in
    let file = Filename.concat dir (!current_id ^ suffix ^ ".csv") in
    let oc = open_out file in
    List.iter
      (fun row -> output_string oc (String.concat "," (List.map csv_escape row) ^ "\n"))
      (headers :: rows);
    close_out oc

let note ppf fmt = Format.fprintf ppf ("  " ^^ fmt ^^ "@.")

let table ppf ~headers ~rows =
  write_csv ~headers ~rows;
  let all = headers :: rows in
  let columns = List.length headers in
  (* One pass over the cells — the previous List.nth-per-cell version was
     O(cols^2 * rows), noticeable on the wide sweep tables. *)
  let widths = Array.make columns 0 in
  List.iter
    (List.iteri (fun c cell -> widths.(c) <- Stdlib.max widths.(c) (String.length cell)))
    all;
  let print_row row =
    Format.fprintf ppf "  |";
    List.iteri (fun c cell -> Format.fprintf ppf " %*s |" widths.(c) cell) row;
    Format.fprintf ppf "@."
  in
  let rule () =
    Format.fprintf ppf "  +";
    Array.iter (fun w -> Format.fprintf ppf "%s+" (String.make (w + 2) '-')) widths;
    Format.fprintf ppf "@."
  in
  rule ();
  print_row headers;
  rule ();
  List.iter print_row rows;
  rule ()

let fi = string_of_int

let ff f = Printf.sprintf "%.1f" f

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 (List.map float_of_int xs) /. float_of_int (List.length xs)
