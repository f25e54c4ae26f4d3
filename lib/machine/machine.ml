type unit_kind = M | I | F | B

type cache_geom = { size_bytes : int; line_bytes : int; assoc : int }

type t = {
  mach_name : string;
  issue_width : int;
  m_units : int;
  i_units : int;
  f_units : int;
  b_units : int;
  int_regs : int;
  fp_regs : int;
  rot_int_regs : int;
  rot_fp_regs : int;
  lat_ialu : int;
  lat_imul : int;
  lat_fadd : int;
  lat_fmul : int;
  lat_fmadd : int;
  lat_fdiv : int;
  lat_load : int;
  lat_store : int;
  lat_cmp : int;
  lat_br : int;
  lat_sel : int;
  lat_call : int;
  lat_mov : int;
  fdiv_unpipelined : bool;
  l1d : cache_geom;
  l1i : cache_geom;
  l2 : cache_geom;
  l2_hit_extra : int;
  mem_extra : int;
  l1i_miss_extra : int;
  taken_branch_cost : int;
  mispredict_cost : int;
  spill_cost_regs : int;
}

let unit_of (op : Op.t) =
  match op.Op.opcode with
  | Op.Load _ | Op.Store _ -> M
  | Op.Ialu | Op.Imul | Op.Cmp | Op.Mov | Op.Sel -> I
  | Op.Fadd | Op.Fmul | Op.Fmadd | Op.Fdiv -> F
  | Op.Br _ | Op.Call -> B

let latency m (op : Op.t) =
  match op.Op.opcode with
  | Op.Ialu -> m.lat_ialu
  | Op.Imul -> m.lat_imul
  | Op.Fadd -> m.lat_fadd
  | Op.Fmul -> m.lat_fmul
  | Op.Fmadd -> m.lat_fmadd
  | Op.Fdiv -> m.lat_fdiv
  | Op.Load _ -> m.lat_load
  | Op.Store _ -> m.lat_store
  | Op.Cmp -> m.lat_cmp
  | Op.Br _ -> m.lat_br
  | Op.Sel -> m.lat_sel
  | Op.Call -> m.lat_call
  | Op.Mov -> m.lat_mov

let units_of_kind m = function
  | M -> m.m_units
  | I -> m.i_units
  | F -> m.f_units
  | B -> m.b_units

let ceil_div a b = (a + b - 1) / b

let digest (m : t) = Digest.string (Marshal.to_string m [])

let res_cycles m ops =
  let counts = [| 0; 0; 0; 0 |] in
  let idx = function M -> 0 | I -> 1 | F -> 2 | B -> 3 in
  (* An unpipelined divide occupies its unit for its full latency. *)
  Array.iter
    (fun op ->
      let cost =
        match op.Op.opcode with
        | Op.Fdiv when m.fdiv_unpipelined -> m.lat_fdiv
        | _ -> 1
      in
      let k = idx (unit_of op) in
      counts.(k) <- counts.(k) + cost)
    ops;
  let per_unit =
    List.fold_left
      (fun acc kind ->
        let c = counts.(idx kind) in
        if c = 0 then acc else max acc (ceil_div c (units_of_kind m kind)))
      1 [ M; I; F; B ]
  in
  max per_unit (ceil_div (Array.length ops) m.issue_width)

let itanium2 =
  {
    mach_name = "itanium2";
    issue_width = 6;
    m_units = 2;
    i_units = 2;
    f_units = 2;
    b_units = 1;
    int_regs = 24;
    fp_regs = 24;
    rot_int_regs = 64;
    rot_fp_regs = 64;
    lat_ialu = 1;
    lat_imul = 3;
    lat_fadd = 4;
    lat_fmul = 4;
    lat_fmadd = 4;
    lat_fdiv = 24;
    lat_load = 3;
    lat_store = 1;
    lat_cmp = 1;
    lat_br = 1;
    lat_sel = 1;
    lat_call = 8;
    lat_mov = 1;
    fdiv_unpipelined = true;
    l1d = { size_bytes = 16 * 1024; line_bytes = 64; assoc = 4 };
    l1i = { size_bytes = 16 * 1024; line_bytes = 64; assoc = 4 };
    l2 = { size_bytes = 256 * 1024; line_bytes = 128; assoc = 8 };
    l2_hit_extra = 8;
    mem_extra = 40;
    l1i_miss_extra = 11;
    taken_branch_cost = 1;
    mispredict_cost = 10;
    spill_cost_regs = 2;
  }

let wide_vliw =
  {
    itanium2 with
    mach_name = "wide_vliw";
    issue_width = 8;
    m_units = 3;
    i_units = 3;
    f_units = 4;
    b_units = 2;
    int_regs = 64;
    fp_regs = 64;
    rot_int_regs = 96;
    rot_fp_regs = 96;
    l1d = { size_bytes = 32 * 1024; line_bytes = 64; assoc = 8 };
    l1i = { size_bytes = 32 * 1024; line_bytes = 64; assoc = 8 };
    taken_branch_cost = 2;
  }

let embedded2 =
  {
    itanium2 with
    mach_name = "embedded2";
    issue_width = 2;
    m_units = 1;
    i_units = 1;
    f_units = 1;
    b_units = 1;
    int_regs = 16;
    fp_regs = 16;
    rot_int_regs = 24;
    rot_fp_regs = 24;
    lat_load = 2;
    l1d = { size_bytes = 8 * 1024; line_bytes = 32; assoc = 2 };
    l1i = { size_bytes = 8 * 1024; line_bytes = 32; assoc = 2 };
    l2 = { size_bytes = 64 * 1024; line_bytes = 64; assoc = 4 };
    l2_hit_extra = 12;
    mem_extra = 60;
    l1i_miss_extra = 4;
    taken_branch_cost = 3;
    mispredict_cost = 6;
  }

let all = [ itanium2; wide_vliw; embedded2 ]

let by_name name = List.find_opt (fun m -> m.mach_name = name) all
