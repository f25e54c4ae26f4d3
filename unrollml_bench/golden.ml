(* Checks of benchmark outputs against the checked-in golden journal: every
   sweep whose key the journal holds must reproduce the journalled cycles
   exactly. *)

(* (sweep key, factor) -> cycles, read through a follower so the fixture
   file is never opened for writing. *)
let read_journal path =
  match Label_store.follow path with
  | Error e -> Error e
  | Ok f ->
    let tbl = Hashtbl.create 4096 in
    let rec drain () =
      match Label_store.follow_next ~timeout:0.0 f with
      | Some (key, factor, cycles) ->
        Hashtbl.replace tbl (key, factor) cycles;
        drain ()
      | None -> ()
    in
    let result =
      match drain () with
      | () -> Ok tbl
      | exception Label_store.Corrupt msg -> Error ("corrupt journal: " ^ msg)
    in
    Label_store.close_follower f;
    result

type outcome = {
  matched : int;  (** sweeps present in the journal and equal to it *)
  mismatched : string list;  (** keys present in the journal but different *)
}

(* [sweeps] are (sweep key, cycles with index 0 = factor 1).  Sweeps the
   journal does not hold in full are not judged. *)
let check journal sweeps =
  List.fold_left
    (fun acc (key, cycles) ->
      let journalled =
        Array.mapi (fun i _ -> Hashtbl.find_opt journal (key, i + 1)) cycles
      in
      if Array.exists Option.is_none journalled then acc
      else if Array.for_all2 (fun j c -> j = Some c) journalled cycles then
        { acc with matched = acc.matched + 1 }
      else { acc with mismatched = key :: acc.mismatched })
    { matched = 0; mismatched = [] }
    sweeps
