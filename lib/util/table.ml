type t = {
  title : string;
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~headers = { title; headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: wrong arity";
  t.rows <- row :: t.rows


let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let buf = Buffer.create 256 in
  let pad i cell =
    let w = widths.(i) in
    let s = String.make (w - String.length cell) ' ' in
    (* Right-align numeric-looking cells, left-align text. *)
    let numeric =
      String.length cell > 0
      && (match cell.[0] with '0' .. '9' | '-' | '+' | '.' -> true | _ -> false)
    in
    if numeric then s ^ cell else cell ^ s
  in
  let emit_row row =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad i cell))
      row;
    Buffer.add_string buf " |\n"
  in
  let sep =
    let total =
      Array.fold_left ( + ) 0 widths + (3 * (ncols - 1)) + 4
    in
    String.make total '-' ^ "\n"
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf sep;
  emit_row t.headers;
  Buffer.add_string buf sep;
  List.iter emit_row rows;
  Buffer.add_string buf sep;
  Buffer.contents buf

let print t = print_string (render t)

let title t = t.title

let headers t = t.headers

let rows t = List.rev t.rows

let to_markdown t =
  let buf = Buffer.create 256 in
  let cell c =
    (* Pipes would break the GFM grid; nothing else needs escaping in
       the cell vocabulary the experiments use. *)
    String.concat "\\|" (String.split_on_char '|' c)
  in
  let row cells =
    Buffer.add_string buf "| ";
    Buffer.add_string buf (String.concat " | " (List.map cell cells));
    Buffer.add_string buf " |\n"
  in
  row t.headers;
  row (List.map (fun _ -> "---") t.headers);
  List.iter row (List.rev t.rows);
  Buffer.contents buf

let csv_cell c =
  let needs_quote =
    String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') c
  in
  if needs_quote then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' c) ^ "\""
  else c

let to_csv t =
  let buf = Buffer.create 256 in
  let row cells =
    Buffer.add_string buf (String.concat "," (List.map csv_cell cells));
    Buffer.add_char buf '\n'
  in
  row t.headers;
  List.iter row (List.rev t.rows);
  Buffer.contents buf

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    s
  |> fun s ->
  (* squeeze runs of dashes and trim *)
  let buf = Buffer.create (String.length s) in
  let prev_dash = ref true in
  String.iter
    (fun c ->
      if c = '-' then begin
        if not !prev_dash then Buffer.add_char buf c;
        prev_dash := true
      end
      else begin
        Buffer.add_char buf c;
        prev_dash := false
      end)
    s;
  let out = Buffer.contents buf in
  if String.length out > 0 && out.[String.length out - 1] = '-' then
    String.sub out 0 (String.length out - 1)
  else out

let save_csv t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (slug t.title ^ ".csv") in
  let oc = open_out path in
  output_string oc (to_csv t);
  close_out oc;
  path

let cell_int = string_of_int

let cell_float ?(decimals = 2) f = Printf.sprintf "%.*f" decimals f

let cell_ratio f = Printf.sprintf "%.2fx" f
