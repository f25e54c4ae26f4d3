(** Human-readable rendering of loops. *)

val pp_loop : Format.formatter -> Loop.t -> unit
val loop_to_string : Loop.t -> string
