(* A persistent domain pool executing batches of index-addressed tasks.

   A batch (one [map]/[tabulate]/[iter] call) is its task count, a task
   runner and one shared counter: every participant claims the next index
   with a fetch-and-add until the counter passes [n].  The caller publishes
   the batch, then takes part in it; idle pool workers join any published
   batch whose counter has not yet passed [n].  Tasks are claimed one at a
   time, so heavy-tailed task costs balance without any per-participant
   queues.  Completion is a per-batch [pending] counter: each participant
   flushes its counters, then lowers [pending] by the tasks it ran, and the
   caller waits for zero.

   Determinism needs no cooperation from the scheduler: tasks write
   results to their input index, and reductions (including the
   first-exception rule) read the results array back in input order. *)

type batch = {
  n : int;
  run : int -> unit; (* executes task [i]; must not raise *)
  next : int Atomic.t; (* next unclaimed index *)
  pending : int Atomic.t; (* tasks not yet run and accounted for *)
  finished : Mutex.t;
  finished_cond : Condition.t; (* signalled when [pending] reaches 0 *)
}

type pool = {
  lock : Mutex.t;
  work_available : Condition.t;
  mutable batches : batch list; (* published, oldest first *)
  mutable workers : unit Domain.t list;
  mutable shutdown : bool;
}

let pool =
  {
    lock = Mutex.create ();
    work_available = Condition.create ();
    batches = [];
    workers = [];
    shutdown = false;
  }

(* 0 = the main (or any external) domain; pool workers are 1..N. *)
let domain_id_key = Domain.DLS.new_key (fun () -> 0)

(* Claim and run tasks of [b] until its counter passes [n]; then flush this
   participant's counters and account for its tasks.  The flush comes
   first, so by the time the caller sees [pending] = 0 every participant's
   counters are visible. *)
let participate b =
  let rec go ran =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      go (ran + 1)
    end
    else ran
  in
  let ran = go 0 in
  if ran > 0 then begin
    let t = Telemetry.global in
    Telemetry.incr t ~pass:"parallel" "tasks" ran;
    Telemetry.incr t ~pass:"parallel.domains"
      (Printf.sprintf "d%d" (Domain.DLS.get domain_id_key))
      ran;
    if Atomic.fetch_and_add b.pending (-ran) = ran then begin
      Mutex.lock b.finished;
      Condition.signal b.finished_cond;
      Mutex.unlock b.finished
    end
  end

let rec worker_loop () =
  Mutex.lock pool.lock;
  let rec wait () =
    if pool.shutdown then None
    else
      match List.find_opt (fun b -> Atomic.get b.next < b.n) pool.batches with
      | Some _ as b -> b
      | None ->
        Condition.wait pool.work_available pool.lock;
        wait ()
  in
  let claimed = wait () in
  Mutex.unlock pool.lock;
  match claimed with
  | None -> () (* shutdown *)
  | Some b ->
    participate b;
    worker_loop ()

(* Under pool lock.  Grows the pool to [n] workers but never past one per
   spare core: OCaml's stop-the-world minor collections wait on every
   domain, parked ones included, so workers beyond the core count slow
   down every allocating caller without adding throughput.  Workers
   persist until process exit and are shared by every subsequent batch. *)
let ensure_workers n =
  let target = min n (Domain.recommended_domain_count () - 1) in
  let rec spawn have =
    if have < target then begin
      let id = have + 1 in
      let d =
        Domain.spawn (fun () ->
            Domain.DLS.set domain_id_key id;
            worker_loop ())
      in
      pool.workers <- d :: pool.workers;
      spawn id
    end
  in
  spawn (List.length pool.workers)

(* Registered at module init, so it runs after every later-registered
   at_exit: the whole process gets to finish its parallel work first. *)
let shutdown_pool () =
  Mutex.lock pool.lock;
  pool.shutdown <- true;
  Condition.broadcast pool.work_available;
  let ws = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.lock;
  List.iter Domain.join ws

let () = at_exit shutdown_pool

(* Run tasks 0..n-1 through the pool: publish, take part, unpublish once
   every index is claimed, then wait out tasks still running on helpers. *)
let run_batch ~jobs ~n run =
  let b =
    {
      n;
      run;
      next = Atomic.make 0;
      pending = Atomic.make n;
      finished = Mutex.create ();
      finished_cond = Condition.create ();
    }
  in
  Telemetry.incr Telemetry.global ~pass:"parallel" "batches" 1;
  Mutex.lock pool.lock;
  ensure_workers (min jobs n - 1);
  pool.batches <- pool.batches @ [ b ];
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  participate b;
  Mutex.lock pool.lock;
  pool.batches <- List.filter (fun x -> x != b) pool.batches;
  Mutex.unlock pool.lock;
  if Atomic.get b.pending > 0 then begin
    Mutex.lock b.finished;
    while Atomic.get b.pending > 0 do
      Condition.wait b.finished_cond b.finished
    done;
    Mutex.unlock b.finished
  end

(* ------------------------------------------------------------------ *)
(* Public API.  Results are index-addressed; reductions scan in input
   order, which is all determinism (and the first-exception-by-index
   rule) requires. *)

let unwrap = function
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let tabulate ?(jobs = 1) n f =
  if jobs <= 1 || n <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    run_batch ~jobs ~n (fun i ->
        results.(i) <- Some (match f i with v -> Ok v | exception e -> Error e));
    Array.map unwrap results
  end

let map ?jobs f arr = tabulate ?jobs (Array.length arr) (fun i -> f arr.(i))

let iter ?(jobs = 1) n f =
  if jobs <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let errors = Array.make n None in
    run_batch ~jobs ~n (fun i ->
        match f i with () -> () | exception e -> errors.(i) <- Some e);
    Array.iter (function Some e -> raise e | None -> ()) errors
  end

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))

let default_jobs () =
  match Sys.getenv_opt "UNROLLML_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()
