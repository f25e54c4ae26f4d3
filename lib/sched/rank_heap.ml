type t = { a : int array; mutable size : int }

let create capacity = { a = Array.make (max capacity 1) 0; size = 0 }
let is_empty h = h.size = 0

let push h r =
  if h.size = Array.length h.a then invalid_arg "Rank_heap.push: full";
  let a = h.a in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && a.((!i - 1) / 2) > r do
    a.(!i) <- a.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  a.(!i) <- r

let pop h =
  if h.size = 0 then invalid_arg "Rank_heap.pop: empty";
  let a = h.a in
  let top = a.(0) in
  h.size <- h.size - 1;
  let last = a.(h.size) in
  let i = ref 0 and placed = ref false in
  while not !placed do
    let c = (2 * !i) + 1 in
    if c >= h.size then placed := true
    else begin
      let c = if c + 1 < h.size && a.(c + 1) < a.(c) then c + 1 else c in
      if a.(c) < last then begin
        a.(!i) <- a.(c);
        i := c
      end
      else placed := true
    end
  done;
  a.(!i) <- last;
  top
