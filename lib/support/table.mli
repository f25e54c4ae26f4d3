(** ASCII table rendering for experiment output.

    Every reproduced paper table and figure is ultimately printed as rows;
    this module gives them a uniform, aligned presentation. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : ?title:string -> (string * align) list -> t
(** [create ~title headers] starts a table with the given column headers and
    alignments. *)

val add_row : t -> string list -> unit
(** Appends a row.  The row must have exactly as many cells as there are
    columns; raises [Invalid_argument] otherwise. *)

val add_separator : t -> unit
(** Appends a horizontal rule between rows. *)

val to_string : t -> string
(** Renders the table with padded, aligned columns. *)

val cell_float : ?decimals:int -> float -> string
(** Formats a float cell with a fixed number of decimals (default 3). *)

val cell_pct : ?decimals:int -> float -> string
(** Formats a ratio as a percentage string, e.g. [cell_pct 0.051 = "5.1%"]
    (default 1 decimal). *)

val cell_seconds : float -> string
(** Formats a duration in seconds with a unit that keeps it readable,
    e.g. ["1.25 s"], ["3.40 ms"], ["12.00 us"], ["800 ns"]. *)

val bar : width:int -> float -> string
(** [bar ~width v] renders a proportion [v] in \[0, 1\] as a horizontal bar
    of at most [width] characters — used for ASCII histograms. *)
