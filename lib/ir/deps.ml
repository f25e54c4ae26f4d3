type kind =
  | Reg_flow
  | Reg_anti
  | Reg_output
  | Mem_flow
  | Mem_anti
  | Mem_output
  | Control
  | Serial

let kind_code = function
  | Reg_flow -> 0
  | Reg_anti -> 1
  | Reg_output -> 2
  | Mem_flow -> 3
  | Mem_anti -> 4
  | Mem_output -> 5
  | Control -> 6
  | Serial -> 7

let kind_of_code = function
  | 0 -> Reg_flow
  | 1 -> Reg_anti
  | 2 -> Reg_output
  | 3 -> Mem_flow
  | 4 -> Mem_anti
  | 5 -> Mem_output
  | 6 -> Control
  | 7 -> Serial
  | c -> invalid_arg (Printf.sprintf "Deps.kind_of_code %d" c)

let reg_flow_code = kind_code Reg_flow
let reg_anti_code = kind_code Reg_anti
let reg_output_code = kind_code Reg_output
let mem_flow_code = kind_code Mem_flow
let mem_anti_code = kind_code Mem_anti
let mem_output_code = kind_code Mem_output
let control_code = kind_code Control
let serial_code = kind_code Serial

type csr = {
  csr_n : int;
  n_edges : int;
  e_src : int array;
  e_dst : int array;
  e_kind : int array;     (* kind_code *)
  e_lat : int array;
  e_dist : int array;
  succ_off : int array;   (* n+1 offsets into succ_edge *)
  succ_edge : int array;  (* edge indices grouped by source *)
  pred_off : int array;
  pred_edge : int array;
}

let mem_flow_latency = 2
let mem_anti_latency = 0
let mem_output_latency = 1

(* Working storage of one build: the edges in emission order (five ints
   each: src, dst, kind, latency, distance), the defining positions of each
   register key grouped by a counting sort, and the memory ops' references.
   Each domain keeps one, so a build allocates little beyond its result; a
   build that finds the domain's scratch busy (another systhread mid-build)
   takes a fresh one.  The per-op and per-register tables grow to the
   largest loop met; the edge buffer is cut back to [retained_edges] after
   each build, since one domain-lifetime buffer sized for the largest graph
   of a sweep (15,528 edges at FAST scale 0.05) raised its peak RSS by a
   tenth, while nine builds in ten need fewer than 1,400 edges. *)
type scratch = {
  mutable busy : bool;
  mutable edges : int array;
  mutable len : int;              (* edges emitted *)
  mutable def_off : int array;    (* key -> first index into def_pos *)
  mutable def_pos : int array;    (* defining positions, ascending per key *)
  mutable reads : int array;      (* one op's read keys, sorted, unique *)
  mutable mem_pos : int array;    (* body positions of loads and stores *)
  mutable m_array : int array;
  mutable m_stride : int array;
  mutable m_offset : int array;
  mutable m_indirect : int array; (* 1 for an indirect reference *)
  mutable m_store : int array;    (* 1 for a store *)
  mutable cursor : int array;     (* CSR grouping *)
}

let retained_edges = 1024

let fresh_scratch () =
  let a () = Array.make 64 0 in
  {
    busy = false;
    edges = Array.make (5 * retained_edges) 0;
    len = 0;
    def_off = a ();
    def_pos = a ();
    reads = a ();
    mem_pos = a ();
    m_array = a ();
    m_stride = a ();
    m_offset = a ();
    m_indirect = a ();
    m_store = a ();
    cursor = a ();
  }

let scratch_key = Domain.DLS.new_key fresh_scratch

(* [a] if it holds [size] ints, else a larger zeroed array. *)
let grow a size =
  if Array.length a >= size then a else Array.make (max size (2 * Array.length a)) 0

let add s src dst kind lat dist =
  let i = 5 * s.len in
  if i + 5 > Array.length s.edges then begin
    let bigger = Array.make (2 * Array.length s.edges) 0 in
    Array.blit s.edges 0 bigger 0 i;
    s.edges <- bigger
  end;
  let e = s.edges in
  e.(i) <- src;
  e.(i + 1) <- dst;
  e.(i + 2) <- kind;
  e.(i + 3) <- lat;
  e.(i + 4) <- dist;
  s.len <- s.len + 1

(* Register dependences.  A read of register key [r] at [u] takes its
   value from the nearest def before [u], else from the last def of the
   previous iteration; the next def after [u] (else the first def of the
   next iteration) must wait for the read.  Successive defs of one
   register are output-ordered, and the last feeds the first across the
   backedge.  The guard predicate counts as a read of an integer register.
   Emitted per use in body order, reads in key order; then output chains
   in key order. *)
let register_edges s ~latency body =
  let n = Array.length body in
  (* Def positions grouped by key: key [k]'s start in [pos] is [off.(k)];
     a register keyed past the last def has no def (a pure live-in). *)
  let keys =
    Array.fold_left
      (fun acc (op : Op.t) ->
        match op.Op.dst with Some r -> max acc (Op.reg_key r + 1) | None -> acc)
      0 body
  in
  s.def_off <- grow s.def_off (keys + 1);
  s.def_pos <- grow s.def_pos n;
  let off = s.def_off and pos = s.def_pos in
  (* Count, sum to each key's end, then fill backwards: each [off.(k)]
     steps down to its key's start. *)
  Array.fill off 0 (keys + 1) 0;
  for i = 0 to n - 1 do
    match body.(i).Op.dst with
    | Some r ->
      let k = Op.reg_key r in
      off.(k) <- off.(k) + 1
    | None -> ()
  done;
  for k = 1 to keys do
    off.(k) <- off.(k) + off.(k - 1)
  done;
  for i = n - 1 downto 0 do
    match body.(i).Op.dst with
    | Some r ->
      let k = Op.reg_key r in
      off.(k) <- off.(k) - 1;
      pos.(off.(k)) <- i
    | None -> ()
  done;
  (* The sorted, duplicate-free read keys of one op, by insertion. *)
  let n_reads = ref 0 in
  let read k =
    let j = ref 0 in
    while !j < !n_reads && s.reads.(!j) < k do incr j done;
    if !j = !n_reads || s.reads.(!j) <> k then begin
      Array.blit s.reads !j s.reads (!j + 1) (!n_reads - !j);
      s.reads.(!j) <- k;
      incr n_reads
    end
  in
  let read_reg r = read (Op.reg_key r) in
  for u = 0 to n - 1 do
    let op = body.(u) in
    n_reads := 0;
    s.reads <- grow s.reads (List.length op.Op.srcs + 1);
    List.iter read_reg op.Op.srcs;
    (match op.Op.pred with Some p -> read (2 * p) | None -> ());
    for j = 0 to !n_reads - 1 do
      let k = s.reads.(j) in
      if k < keys && off.(k) < off.(k + 1) then begin
        let lo = off.(k) and hi = off.(k + 1) in
        let before = ref (hi - 1) in
        while !before >= lo && pos.(!before) >= u do decr before done;
        (if !before >= lo then
           let d = pos.(!before) in
           add s d u reg_flow_code (latency body.(d)) 0
         else
           let d = pos.(hi - 1) in
           add s d u reg_flow_code (latency body.(d)) 1);
        let after = ref lo in
        while !after < hi && pos.(!after) <= u do incr after done;
        if !after < hi then add s u pos.(!after) reg_anti_code 0 0
        else add s u pos.(lo) reg_anti_code 0 1
      end
    done
  done;
  for k = 0 to keys - 1 do
    let lo = off.(k) and hi = off.(k + 1) in
    if hi - lo >= 2 then begin
      for j = lo to hi - 2 do
        add s pos.(j) pos.(j + 1) reg_output_code 1 0
      done;
      add s pos.(hi - 1) pos.(lo) reg_output_code 1 1
    end
  done

(* Memory dependences, for each pair of references of which at least one
   is a store, the earlier one first.  Two direct references to one array with equal strides
   never alias or alias at a constant distance; anything else — differing
   strides, an indirect reference, different arrays of an aliased loop — is
   ordered within the iteration and across one iteration both ways. *)
let memory_edges s ~aliased body =
  let n = Array.length body in
  s.mem_pos <- grow s.mem_pos n;
  s.m_array <- grow s.m_array n;
  s.m_stride <- grow s.m_stride n;
  s.m_offset <- grow s.m_offset n;
  s.m_indirect <- grow s.m_indirect n;
  s.m_store <- grow s.m_store n;
  let m = ref 0 in
  let note i store (r : Op.mref) =
    let j = !m in
    s.mem_pos.(j) <- i;
    s.m_array.(j) <- r.Op.array;
    s.m_stride.(j) <- r.Op.stride;
    s.m_offset.(j) <- r.Op.offset;
    s.m_indirect.(j) <- (match r.Op.mkind with Op.Indirect -> 1 | Op.Direct -> 0);
    s.m_store.(j) <- store;
    incr m
  in
  for i = 0 to n - 1 do
    match body.(i).Op.opcode with
    | Op.Load r -> note i 0 r
    | Op.Store r -> note i 1 r
    | _ -> ()
  done;
  let edge src dst src_store dst_store dist =
    if src_store = 1 then
      if dst_store = 1 then add s src dst mem_output_code mem_output_latency dist
      else add s src dst mem_flow_code mem_flow_latency dist
    else add s src dst mem_anti_code mem_anti_latency dist
  in
  let both pa pb sa sb =
    edge pa pb sa sb 0;
    edge pb pa sb sa 1
  in
  for a = 0 to !m - 1 do
    for b = a + 1 to !m - 1 do
      let sa = s.m_store.(a) and sb = s.m_store.(b) in
      if sa = 1 || sb = 1 then begin
        let pa = s.mem_pos.(a) and pb = s.mem_pos.(b) in
        let stride = s.m_stride.(a) in
        if s.m_indirect.(a) = 1 || s.m_indirect.(b) = 1 then both pa pb sa sb
        else if s.m_array.(a) <> s.m_array.(b) then (if aliased then both pa pb sa sb)
        else if stride <> s.m_stride.(b) then both pa pb sa sb
        else if stride = 0 then begin
          (* The same address every iteration: the later op also feeds the
             earlier one next time. *)
          if s.m_offset.(a) = s.m_offset.(b) then both pa pb sa sb
        end
        else
          let diff = s.m_offset.(a) - s.m_offset.(b) in
          if diff mod stride = 0 then
            let d = diff / stride in
            if d >= 0 then edge pa pb sa sb d else edge pb pa sb sa (-d)
      end
    done
  done

(* An early exit orders every later op below it. *)
let control_edges s body =
  let n = Array.length body in
  for e = 0 to n - 1 do
    match body.(e).Op.opcode with
    | Op.Br Op.Exit ->
      for j = e + 1 to n - 1 do
        add s e j control_code 0 0
      done
    | _ -> ()
  done

(* Calls serialise against everything around them, and the backedge
   delimits the iteration: nothing may schedule after it. *)
let serial_edges s body =
  let n = Array.length body in
  for c = 0 to n - 1 do
    match body.(c).Op.opcode with
    | Op.Call ->
      for j = 0 to n - 1 do
        if j < c then add s j c serial_code 1 0 else if j > c then add s c j serial_code 1 0
      done
    | _ -> ()
  done;
  for i = 0 to n - 1 do
    match body.(i).Op.opcode with
    | Op.Br Op.Backedge ->
      for j = 0 to n - 1 do
        if j <> i then add s j i serial_code 0 0
      done
    | _ -> ()
  done

(* Copy the emitted edges out at exact size, each section reversed as the
   edge-order contract in deps.mli fixes, and group edge indices by
   endpoint with a stable counting sort. *)
let copy_out s n sections =
  let m = s.len in
  let e_src = Array.make m 0
  and e_dst = Array.make m 0
  and e_kind = Array.make m 0
  and e_lat = Array.make m 0
  and e_dist = Array.make m 0 in
  let lo = ref 0 in
  List.iter
    (fun hi ->
      for k = !lo to hi - 1 do
        let i = !lo + hi - 1 - k and b = 5 * k in
        e_src.(i) <- s.edges.(b);
        e_dst.(i) <- s.edges.(b + 1);
        e_kind.(i) <- s.edges.(b + 2);
        e_lat.(i) <- s.edges.(b + 3);
        e_dist.(i) <- s.edges.(b + 4)
      done;
      lo := hi)
    sections;
  s.cursor <- grow s.cursor (n + 1);
  let group key =
    let off = Array.make (n + 1) 0 in
    for i = 0 to m - 1 do
      off.(key.(i) + 1) <- off.(key.(i) + 1) + 1
    done;
    for v = 1 to n do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    let idx = Array.make m 0 in
    let cursor = s.cursor in
    Array.blit off 0 cursor 0 (n + 1);
    for i = 0 to m - 1 do
      let v = key.(i) in
      idx.(cursor.(v)) <- i;
      cursor.(v) <- cursor.(v) + 1
    done;
    (off, idx)
  in
  let succ_off, succ_edge = group e_src in
  let pred_off, pred_edge = group e_dst in
  { csr_n = n; n_edges = m; e_src; e_dst; e_kind; e_lat; e_dist;
    succ_off; succ_edge; pred_off; pred_edge }

let build_with s ~latency (loop : Loop.t) =
  let body = loop.Loop.body in
  s.len <- 0;
  register_edges s ~latency body;
  let reg_end = s.len in
  memory_edges s ~aliased:loop.Loop.aliased body;
  let mem_end = s.len in
  control_edges s body;
  let control_end = s.len in
  serial_edges s body;
  copy_out s (Array.length body) [ reg_end; mem_end; control_end; s.len ]

let build ~latency loop =
  let s = Domain.DLS.get scratch_key in
  if s.busy then build_with (fresh_scratch ()) ~latency loop
  else begin
    s.busy <- true;
    Fun.protect
      ~finally:(fun () ->
        if s.len > retained_edges then s.edges <- Array.make (5 * retained_edges) 0;
        s.busy <- false)
      (fun () -> build_with s ~latency loop)
  end

let has_cycle_at_distance_zero g =
  let color = Array.make g.csr_n 0 in
  (* 0 = white, 1 = grey, 2 = black *)
  let cyclic = ref false in
  let rec visit v =
    if color.(v) = 1 then cyclic := true
    else if color.(v) = 0 then begin
      color.(v) <- 1;
      for k = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
        let e = g.succ_edge.(k) in
        if g.e_dist.(e) = 0 then visit g.e_dst.(e)
      done;
      color.(v) <- 2
    end
  in
  for v = 0 to g.csr_n - 1 do
    if not !cyclic then visit v
  done;
  !cyclic
