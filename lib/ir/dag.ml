type stats = {
  critical_path : int;
  computations : int;
  max_dependence_height : int;
  avg_dependence_height : float;
  max_memory_height : int;
  max_control_height : int;
  max_fan_in : int;
  avg_fan_in : float;
  min_mem_to_mem_distance : int;
  mem_to_mem_dependences : int;
  recurrence_latency : int;
}

(* Distance-0 ops in reverse topological order (sinks first) of the
   subgraph of edges satisfying [keep].  The distance-0 graph of a valid
   loop is acyclic. *)
let sinks_first (g : Deps.csr) keep =
  let n = g.Deps.csr_n in
  let visited = Array.make n false in
  let order = Array.make n 0 and filled = ref 0 in
  let rec visit v =
    if not visited.(v) then begin
      visited.(v) <- true;
      for k = g.Deps.succ_off.(v) to g.Deps.succ_off.(v + 1) - 1 do
        let e = g.Deps.succ_edge.(k) in
        if g.Deps.e_dist.(e) = 0 && keep e then visit g.Deps.e_dst.(e)
      done;
      order.(!filled) <- v;
      incr filled
    end
  in
  for v = 0 to n - 1 do
    visit v
  done;
  order

(* Latency-weighted longest path over the kept distance-0 edges. *)
let heights (g : Deps.csr) op_latency keep =
  let h = Array.make g.Deps.csr_n 0 in
  Array.iter
    (fun v ->
      let best = ref 0 in
      for k = g.Deps.succ_off.(v) to g.Deps.succ_off.(v + 1) - 1 do
        let e = g.Deps.succ_edge.(k) in
        if g.Deps.e_dist.(e) = 0 && keep e then best := max !best h.(g.Deps.e_dst.(e))
      done;
      h.(v) <- op_latency v + !best)
    (sinks_first g keep);
  h

let union_find n =
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  (find, union)

let analyze (g : Deps.csr) op_latency =
  let n = g.Deps.csr_n in
  let kind e = Deps.kind_of_code g.Deps.e_kind.(e) in
  let dist e = g.Deps.e_dist.(e) in
  let keep_flow e = kind e = Deps.Reg_flow in
  let keep_data e =
    match kind e with
    | Deps.Reg_flow | Deps.Mem_flow -> true
    | Deps.Reg_anti | Deps.Reg_output | Deps.Mem_anti | Deps.Mem_output
    | Deps.Control | Deps.Serial -> false
  in
  let keep_mem e =
    match kind e with
    | Deps.Mem_flow | Deps.Mem_anti | Deps.Mem_output -> true
    | Deps.Reg_flow | Deps.Reg_anti | Deps.Reg_output | Deps.Control | Deps.Serial -> false
  in
  let keep_control e = kind e = Deps.Control in
  let data_heights = heights g op_latency keep_data in
  let critical_path = Array.fold_left max 0 data_heights in
  (* Computations: components of the register-flow graph over non-branch ops. *)
  let find, union = union_find n in
  for e = 0 to g.Deps.n_edges - 1 do
    if keep_flow e && dist e = 0 then union g.Deps.e_src.(e) g.Deps.e_dst.(e)
  done;
  let flow_heights = heights g op_latency keep_flow in
  let comp_height = Array.make n 0 in
  for v = 0 to n - 1 do
    let r = find v in
    comp_height.(r) <- max comp_height.(r) flow_heights.(v)
  done;
  let computations = ref 0 and max_dependence_height = ref 0 and sum_heights = ref 0 in
  for v = 0 to n - 1 do
    if find v = v then begin
      incr computations;
      max_dependence_height := max !max_dependence_height comp_height.(v);
      sum_heights := !sum_heights + comp_height.(v)
    end
  done;
  let computations = !computations in
  let avg_dependence_height =
    if computations = 0 then 0.0 else float_of_int !sum_heights /. float_of_int computations
  in
  (* Longest chain of the kept kind, only over ops that take part in one. *)
  let chain_height keep =
    let h = heights g op_latency keep in
    let participates = Array.make n false in
    for e = 0 to g.Deps.n_edges - 1 do
      if keep e && dist e = 0 then begin
        participates.(g.Deps.e_src.(e)) <- true;
        participates.(g.Deps.e_dst.(e)) <- true
      end
    done;
    let best = ref 0 in
    for v = 0 to n - 1 do
      if participates.(v) then best := max !best h.(v)
    done;
    !best
  in
  let max_memory_height = chain_height keep_mem in
  let max_control_height = chain_height keep_control in
  let fan_in = Array.make n 0 in
  for e = 0 to g.Deps.n_edges - 1 do
    if keep_flow e && dist e = 0 then
      let d = g.Deps.e_dst.(e) in
      fan_in.(d) <- fan_in.(d) + 1
  done;
  let max_fan_in = Array.fold_left max 0 fan_in in
  let avg_fan_in =
    if n = 0 then 0.0
    else float_of_int (Array.fold_left ( + ) 0 fan_in) /. float_of_int n
  in
  let min_mem_to_mem_distance = ref max_int and mem_to_mem_dependences = ref 0 in
  for e = 0 to g.Deps.n_edges - 1 do
    if keep_mem e && dist e > 0 then begin
      min_mem_to_mem_distance := min !min_mem_to_mem_distance (dist e);
      incr mem_to_mem_dependences
    end
  done;
  (* Recurrence bound: a loop-carried flow edge d->s at distance k closes a
     cycle with the longest distance-0 flow path from s back to d. *)
  let recurrence_latency =
    let sinks_first = sinks_first g keep_flow in
    let path = Array.make n min_int in
    (* longest distance-0 flow path latencies starting at [src] *)
    let longest_path_from src =
      Array.fill path 0 n min_int;
      path.(src) <- op_latency src;
      for i = n - 1 downto 0 do
        let v = sinks_first.(i) in
        if path.(v) > min_int then
          for k = g.Deps.succ_off.(v) to g.Deps.succ_off.(v + 1) - 1 do
            let e = g.Deps.succ_edge.(k) in
            if keep_flow e && dist e = 0 then
              let d = g.Deps.e_dst.(e) in
              let cand = path.(v) + op_latency d in
              if cand > path.(d) then path.(d) <- cand
          done
      done
    in
    let best = ref 0 in
    for e = 0 to g.Deps.n_edges - 1 do
      if keep_flow e && dist e > 0 then begin
        let src = g.Deps.e_src.(e) and dst = g.Deps.e_dst.(e) in
        let cycle_latency =
          if src = dst then op_latency src
          else begin
            longest_path_from dst;
            if path.(src) > min_int then path.(src) else 0
          end
        in
        if cycle_latency > 0 then best := max !best ((cycle_latency + dist e - 1) / dist e)
      end
    done;
    !best
  in
  {
    critical_path;
    computations;
    max_dependence_height = !max_dependence_height;
    avg_dependence_height;
    max_memory_height;
    max_control_height;
    max_fan_in;
    avg_fan_in;
    min_mem_to_mem_distance = !min_mem_to_mem_distance;
    mem_to_mem_dependences = !mem_to_mem_dependences;
    recurrence_latency;
  }
