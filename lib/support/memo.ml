type ('k, 'v) t = {
  mutex : Mutex.t;
  table : ('k, 'v) Hashtbl.t;
  fifo : 'k Queue.t;  (* live keys, oldest first *)
  capacity : int;
  telemetry : (Telemetry.t * string) option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?telemetry capacity =
  let capacity = max 0 capacity in
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (max 16 (min 256 capacity));
    fifo = Queue.create ();
    capacity;
    telemetry;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let find t k =
  let r =
    Mutex.protect t.mutex (fun () ->
        let r = Hashtbl.find_opt t.table k in
        if Option.is_some r then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
        r)
  in
  (match t.telemetry with
  | Some (sink, pass) -> Telemetry.incr sink ~pass (if Option.is_some r then "hits" else "misses") 1
  | None -> ());
  r

let add t k v =
  Mutex.protect t.mutex (fun () ->
      if t.capacity > 0 && not (Hashtbl.mem t.table k) then begin
        if Hashtbl.length t.table >= t.capacity then begin
          Hashtbl.remove t.table (Queue.pop t.fifo);
          t.evictions <- t.evictions + 1
        end;
        Hashtbl.add t.table k v;
        Queue.push k t.fifo
      end)

let hits t = Mutex.protect t.mutex (fun () -> t.hits)
let misses t = Mutex.protect t.mutex (fun () -> t.misses)
let evictions t = Mutex.protect t.mutex (fun () -> t.evictions)
let length t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.table)

let clear t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.reset t.table;
      Queue.clear t.fifo;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
