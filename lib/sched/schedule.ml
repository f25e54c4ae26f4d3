type kind = Straight | Pipelined of { ii : int; stages : int }

type t = {
  loop : Loop.t;
  machine : Machine.t;
  assignment : int array;
  length : int;
  kind : kind;
  spills : int;
  int_pressure : int;
  fp_pressure : int;
  csr : Deps.csr;
}

let ii t =
  match t.kind with
  | Pipelined { ii; _ } -> ii
  | Straight -> t.length + t.machine.Machine.taken_branch_cost

let validate t =
  let m = t.machine in
  let g = t.csr in
  let window = match t.kind with Pipelined { ii; _ } -> ii | Straight -> max_int in
  let pipelined = match t.kind with Pipelined _ -> true | Straight -> false in
  let err = ref None in
  (* Dependence constraints, in edge order. *)
  for e = 0 to g.Deps.n_edges - 1 do
    let src = g.Deps.e_src.(e) and dst = g.Deps.e_dst.(e) in
    let lat = g.Deps.e_lat.(e) and dist = g.Deps.e_dist.(e) in
    let skip =
      (* Pipelined schedules rotate the branch, so intra-iteration
         serialisation against it does not apply; straight schedules
         re-issue in order each iteration, so loop-carried latencies are
         enforced by hardware interlocks rather than the schedule. *)
      (pipelined && g.Deps.e_kind.(e) = Deps.serial_code) || ((not pipelined) && dist > 0)
    in
    if (not skip) && !err = None then begin
      let slack_ii = if pipelined then window else 0 in
      let lhs = t.assignment.(dst) + (slack_ii * dist) in
      let rhs = t.assignment.(src) + lat in
      if lhs < rhs then
        err :=
          Some
            (Printf.sprintf "edge %d->%d (lat %d dist %d) violated: %d < %d" src dst lat dist
               lhs rhs)
    end
  done;
  (* Resource constraints. *)
  (match !err with
  | Some _ -> ()
  | None ->
    let span = if pipelined then window else t.length in
    let per_kind = Hashtbl.create 16 in
    let total = Array.make (max span 1) 0 in
    Array.iteri
      (fun pos time ->
        let op = t.loop.Loop.body.(pos) in
        let slot = if pipelined then time mod window else time in
        if slot >= 0 && slot < span then begin
          total.(slot) <- total.(slot) + 1;
          let k = Machine.unit_of op in
          let key = (slot, k) in
          let c = Option.value (Hashtbl.find_opt per_kind key) ~default:0 in
          Hashtbl.replace per_kind key (c + 1)
        end)
      t.assignment;
    Array.iteri
      (fun slot c ->
        if c > m.Machine.issue_width && !err = None then
          err := Some (Printf.sprintf "cycle %d issues %d ops (width %d)" slot c m.Machine.issue_width))
      total;
    Hashtbl.iter
      (fun (slot, k) c ->
        let avail =
          match k with
          | Machine.M -> m.Machine.m_units
          | Machine.I -> m.Machine.i_units
          | Machine.F -> m.Machine.f_units
          | Machine.B -> m.Machine.b_units
        in
        if c > avail && !err = None then
          err := Some (Printf.sprintf "cycle %d oversubscribes a unit class (%d > %d)" slot c avail))
      per_kind);
  match !err with None -> Ok () | Some msg -> Error msg
