type align = Left | Right

type row = Cells of string list | Separator

type t = {
  title : string option;
  headers : (string * align) list;
  mutable rows : row list; (* reversed *)
}

let create ?title headers = { title; headers; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let to_string t =
  let rows = List.rev t.rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iteri (fun i (h, _) -> widths.(i) <- String.length h) t.headers;
  List.iter
    (function
      | Separator -> ()
      | Cells cells ->
        List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells)
    rows;
  let aligns = List.map snd t.headers in
  let render_cells cells =
    let padded = List.mapi (fun i c -> pad (List.nth aligns i) widths.(i) c) cells in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let rule =
    let segs = Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths) in
    "+" ^ String.concat "+" segs ^ "+"
  in
  let buf = Buffer.create 256 in
  (match t.title with
  | None -> ()
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n');
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_cells (List.map fst t.headers));
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      (match row with
      | Separator -> Buffer.add_string buf rule
      | Cells cells -> Buffer.add_string buf (render_cells cells));
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let cell_float ?(decimals = 3) v = Printf.sprintf "%.*f" decimals v

let cell_pct ?(decimals = 1) v = Printf.sprintf "%.*f%%" decimals (v *. 100.0)

let cell_seconds s =
  if s >= 1.0 then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else if s >= 1e-6 then Printf.sprintf "%.2f us" (s *. 1e6)
  else Printf.sprintf "%.0f ns" (s *. 1e9)

let bar ~width v =
  let v = Float.max 0.0 (Float.min 1.0 v) in
  let n = int_of_float (Float.round (v *. float_of_int width)) in
  String.make n '#'
