type entry = {
  mutable calls : int;
  mutable seconds : float;
  counters : (string, int ref) Hashtbl.t;
  mutable counter_order : string list; (* reversed first-seen order *)
}

type t = {
  mutex : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  mutable order : string list; (* reversed first-seen order *)
}

let create () = { mutex = Mutex.create (); entries = Hashtbl.create 16; order = [] }

let global = create ()

let entry_of t pass =
  match Hashtbl.find_opt t.entries pass with
  | Some e -> e
  | None ->
    let e = { calls = 0; seconds = 0.0; counters = Hashtbl.create 8; counter_order = [] } in
    Hashtbl.add t.entries pass e;
    t.order <- pass :: t.order;
    e

let bump e metric n =
  match Hashtbl.find_opt e.counters metric with
  | Some r -> r := !r + n
  | None ->
    Hashtbl.add e.counters metric (ref n);
    e.counter_order <- metric :: e.counter_order

let record t ~pass ~seconds ?(metrics = []) () =
  Mutex.protect t.mutex (fun () ->
      let e = entry_of t pass in
      e.calls <- e.calls + 1;
      e.seconds <- e.seconds +. seconds;
      List.iter (fun (m, n) -> bump e m n) metrics)

let incr t ~pass metric n =
  Mutex.protect t.mutex (fun () -> bump (entry_of t pass) metric n)

let calls t ~pass =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.entries pass with Some e -> e.calls | None -> 0)

let counter t ~pass metric =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.entries pass with
      | Some e -> (match Hashtbl.find_opt e.counters metric with Some r -> !r | None -> 0)
      | None -> 0)

let to_table t =
  Mutex.protect t.mutex (fun () ->
      let tbl =
        Table.create ~title:"pipeline telemetry"
          [
            ("pass", Table.Left);
            ("calls", Table.Right);
            ("total", Table.Right);
            ("mean", Table.Right);
            ("counters", Table.Left);
          ]
      in
      List.iter
        (fun pass ->
          let e = Hashtbl.find t.entries pass in
          let counters =
            List.rev e.counter_order
            |> List.map (fun m -> Printf.sprintf "%s=%d" m !(Hashtbl.find e.counters m))
            |> String.concat " "
          in
          Table.add_row tbl
            [
              pass;
              string_of_int e.calls;
              Table.cell_seconds e.seconds;
              (if e.calls > 0 then Table.cell_seconds (e.seconds /. float_of_int e.calls) else "-");
              counters;
            ])
        (List.rev t.order);
      Table.to_string tbl)
