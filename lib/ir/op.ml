type reg_class = Int | Flt

type reg = { id : int; cls : reg_class }

type mem_kind = Direct | Indirect

type mref = { array : int; stride : int; offset : int; mkind : mem_kind }

type branch_kind = Backedge | Exit | Internal

type opcode =
  | Ialu
  | Imul
  | Fadd
  | Fmul
  | Fmadd
  | Fdiv
  | Load of mref
  | Store of mref
  | Cmp
  | Br of branch_kind
  | Sel
  | Call
  | Mov

type t = {
  uid : int;
  opcode : opcode;
  dst : reg option;
  srcs : reg list;
  pred : int option;
}

let make ~uid ?dst ?(srcs = []) ?pred opcode = { uid; opcode; dst; srcs; pred }

let is_memory op =
  match op.opcode with Load _ | Store _ -> true
  | Ialu | Imul | Fadd | Fmul | Fmadd | Fdiv | Cmp | Br _ | Sel | Call | Mov -> false

let is_load op = match op.opcode with Load _ -> true | _ -> false
let is_store op = match op.opcode with Store _ -> true | _ -> false
let is_branch op = match op.opcode with Br _ -> true | _ -> false

let is_float op =
  match op.opcode with
  | Fadd | Fmul | Fmadd | Fdiv -> true
  | Ialu | Imul | Load _ | Store _ | Cmp | Br _ | Sel | Call | Mov -> false

let is_implicit op =
  match op.opcode with
  | Mov | Sel -> true
  | Ialu | Imul | Fadd | Fmul | Fmadd | Fdiv | Load _ | Store _ | Cmp | Br _ | Call -> false

let mref op = match op.opcode with Load r | Store r -> Some r | _ -> None

let guard_reg op = Option.map (fun p -> { id = p; cls = Int }) op.pred

let defs op = match op.dst with None -> [] | Some r -> [ r ]
let uses op = op.srcs

let reg_key r = (2 * r.id) + match r.cls with Int -> 0 | Flt -> 1

let operand_count op = List.length (defs op) + List.length (uses op)

let pp_reg fmt r =
  match r.cls with
  | Int -> Format.fprintf fmt "r%d" r.id
  | Flt -> Format.fprintf fmt "f%d" r.id

let opcode_name = function
  | Ialu -> "ialu"
  | Imul -> "imul"
  | Fadd -> "fadd"
  | Fmul -> "fmul"
  | Fmadd -> "fmadd"
  | Fdiv -> "fdiv"
  | Load _ -> "load"
  | Store _ -> "store"
  | Cmp -> "cmp"
  | Br Backedge -> "br.loop"
  | Br Exit -> "br.exit"
  | Br Internal -> "br.int"
  | Sel -> "sel"
  | Call -> "call"
  | Mov -> "mov"

let pp_mref fmt { array; stride; offset; mkind } =
  match mkind with
  | Direct -> Format.fprintf fmt "A%d[%d*i%+d]" array stride offset
  | Indirect -> Format.fprintf fmt "A%d[*]" array

let pp fmt op =
  (match op.pred with
  | Some p -> Format.fprintf fmt "(p%d) " p
  | None -> ());
  (match op.dst with
  | Some d -> Format.fprintf fmt "%a = " pp_reg d
  | None -> ());
  Format.fprintf fmt "%s" (opcode_name op.opcode);
  (match mref op with
  | Some r -> Format.fprintf fmt " %a" pp_mref r
  | None -> ());
  List.iteri
    (fun i r ->
      Format.fprintf fmt (if i = 0 then " %a" else ", %a") pp_reg r)
    op.srcs

let to_string op = Format.asprintf "%a" pp op
