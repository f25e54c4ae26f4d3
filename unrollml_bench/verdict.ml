(* The rule a change's runs are judged by against its parent's runs, for
   one workload and one end-to-end metric. *)

type t = Improved | Unchanged | Regressed | Unresolved

let to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type side = {
  values : float array;  (** one value per run, in run order *)
  attempted : int;  (** operations attempted over all runs *)
  failed : int;
}

let min_pairs = 10
let win_share = 0.9

(* [better_higher] gives the metric's direction; [bound] is the share of
   the parent's median by which the change may be worse.

   - More failures per attempt than the parent: regressed, whatever the
     timings say — a number from failing operations is not a gain.
   - Change median worse than the parent's by more than the bound:
     regressed, however noisy the parent.
   - Parent quartile spread wider than the bound: the runs cannot resolve
     a change of that size, so unresolved — unless every change run beats
     every parent run.
   - At least [min_pairs] runs paired in order, the change winning at
     least [win_share] of them (ties count for neither), and the medians
     further apart than the parent's interquartile distance: improved.
   - Otherwise unchanged. *)
let judge ~better_higher ~bound ~parent ~change =
  let share s = if s.attempted = 0 then 0.0 else float_of_int s.failed /. float_of_int s.attempted in
  let better a b = if better_higher then a > b else a < b in
  let pq1, pmed, pq3 = Bstats.quartiles parent.values in
  let cmed = Stats.median change.values in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> better c p) parent.values) change.values
  in
  let worse_by =
    if pmed = 0.0 then 0.0
    else (if better_higher then pmed -. cmed else cmed -. pmed) /. Float.abs pmed
  in
  let pairs = min (Array.length parent.values) (Array.length change.values) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better change.values.(i) parent.values.(i) then incr wins
  done;
  if share change > share parent then Regressed
  else if worse_by > bound then Regressed
  else if Bstats.spread parent.values > bound && not all_better then Unresolved
  else if
    pairs >= min_pairs
    && float_of_int !wins >= win_share *. float_of_int pairs
    && better cmed pmed
    && Float.abs (cmed -. pmed) > pq3 -. pq1
  then Improved
  else Unchanged
