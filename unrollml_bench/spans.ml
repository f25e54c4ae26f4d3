(* Spans recorded by the traced replicas: name, start, end, the span that
   caused it, and the loop or request it belongs to.  Each thread of
   control appends to its own buffer, so recording takes no lock; buffers
   are only merged when the trace is read. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  key : int;  (** loop or request index, -1 when none *)
  start : float;
  stop : float;
}

type buf = {
  mutable open_ : int list;  (** enclosing spans, innermost first *)
  mutable spans : span list;
}

let next_id = Atomic.make 0
let registry : buf list ref = ref []
let registry_lock = Mutex.create ()

let buffer () =
  let b = { open_ = []; spans = [] } in
  Mutex.lock registry_lock;
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b

let local_key = Domain.DLS.new_key buffer

(* The calling domain's buffer; threads sharing a domain must each use
   their own {!buffer} instead. *)
let local () = Domain.DLS.get local_key

let record b ?(key = -1) name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match b.open_ with p :: _ -> p | [] -> -1 in
  b.open_ <- id :: b.open_;
  let start = Unix.gettimeofday () in
  let finish () =
    b.open_ <- List.tl b.open_;
    b.spans <- { id; parent; name; key; start; stop = Unix.gettimeofday () } :: b.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let collect () =
  Mutex.lock registry_lock;
  let all = List.concat_map (fun b -> b.spans) !registry in
  Mutex.unlock registry_lock;
  List.sort (fun a b -> compare a.id b.id) all

(* Self time: the span's duration minus the part of it its children cover.
   Children are clipped to the parent and their overlaps merged, so two
   children running at once are not subtracted twice. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, s.start) kids
      in
      (s, s.stop -. s.start -. covered))
    spans

(* Summed self time per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  tbl

let to_json ~workload ~origin spans =
  let span s =
    Jsonv.Obj
      [
        ("id", Jsonv.Num (float_of_int s.id));
        ("parent", Jsonv.Num (float_of_int s.parent));
        ("name", Jsonv.Str s.name);
        ("key", Jsonv.Num (float_of_int s.key));
        ("start_us", Jsonv.Num (Float.round ((s.start -. origin) *. 1e6)));
        ("end_us", Jsonv.Num (Float.round ((s.stop -. origin) *. 1e6)));
      ]
  in
  Jsonv.Obj [ ("workload", Jsonv.Str workload); ("spans", Jsonv.Arr (List.map span spans)) ]
