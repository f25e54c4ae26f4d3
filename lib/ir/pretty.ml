let lang_name = function
  | Loop.C -> "C"
  | Loop.Fortran -> "Fortran"
  | Loop.Fortran90 -> "Fortran90"

let pp_loop fmt (loop : Loop.t) =
  Format.fprintf fmt "loop %s (%s, nest %d, trip %s/%d, outer %d):@."
    loop.Loop.name (lang_name loop.Loop.lang) loop.Loop.nest_level
    (match loop.Loop.trip_static with Some n -> string_of_int n | None -> "?")
    loop.Loop.trip_actual loop.Loop.outer_trip;
  Array.iteri
    (fun i ai ->
      Format.fprintf fmt "  array A%d = %s[%d x %dB] @@0x%x@." i ai.Loop.aname
        ai.Loop.length ai.Loop.elem_size ai.Loop.base)
    loop.Loop.arrays;
  Array.iteri
    (fun i op -> Format.fprintf fmt "  %3d: %a@." i Op.pp op)
    loop.Loop.body;
  if loop.Loop.live_out <> [] then begin
    Format.fprintf fmt "  live-out:";
    List.iter (fun r -> Format.fprintf fmt " %a" Op.pp_reg r) loop.Loop.live_out;
    Format.fprintf fmt "@."
  end

let loop_to_string loop = Format.asprintf "%a" pp_loop loop
