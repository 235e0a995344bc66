(** The counter registry: every counter the stack keeps, declared once.

    A module declares each counter it bumps once, with a dotted name
    ([tcl.vm.slot_hits]) and a comment saying what it counts; the
    declaration returns the counter's slot. Values live in blocks: one
    integer per declared entry, so a bump is a single store into an
    array, with no hashing and no allocation. A toolkit application keeps one block that its
    connection, interpreter, dispatcher and resource cache all count
    into; a bare interpreter or connection gets a block of its own.

    An entry is either a {e counter}, which its owner bumps and {!reset}
    zeroes, or a {e computed} value (a cache size, a configured limit, a
    display-global fault count), whose owner installs a read function on
    its block with {!compute}; {!reset} leaves those alone.

    Entries are declared at module initialisation, before the first block
    exists; a later declaration raises [Invalid_argument]. *)

type t
(** One block of values. *)

type counter
(** A declared entry: its slot in every block. *)

(** How {!merge} combines one entry across blocks. *)
type merge =
  | Sum
  | Max  (** high-water marks *)

val counter : ?merge:merge -> ?render:(int -> string) -> string -> counter
(** Declare an entry ([merge] defaults to [Sum], [render] to
    [string_of_int]). @raise Invalid_argument on a duplicate name or
    after the first block was created. *)

val create : unit -> t
(** A block with every counter at 0. *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val set : t -> counter -> int -> unit

val get : t -> counter -> int
(** The current value (a computed entry's function is called). *)

val compute : t -> counter -> (unit -> int) -> unit
(** [compute t c read] makes [c] a computed value in block [t]: {!get}
    calls [read]. *)

val reset : t -> unit
(** Zero every counter of the block. Computed entries are untouched. *)

val find : t -> string -> string option
(** One entry by name, rendered; [None] for an undeclared name. *)

val value : t -> string -> int
(** One entry by name, unrendered. @raise Invalid_argument for an
    undeclared name. *)

val values : ?prefix:string -> t -> (string * int) list
(** Every entry whose name starts with [prefix] (default: all), in
    declaration order. *)

val to_list : ?prefix:string -> t -> (string * string) list
(** {!values}, rendered: the snapshot behind [xstat]. *)

val merge : t list -> t
(** A fresh block holding, for every entry, the sum (or the maximum, for
    [Max] entries) of its values in the given blocks — the fleet view. *)
