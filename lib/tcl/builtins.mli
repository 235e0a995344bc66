(** Installation of the complete built-in command set (Figure 6's
    "Tcl library" box): control flow, variables, procedures, lists,
    strings, introspection, filesystem commands, and the [interp]
    slave-interpreter machinery. *)

val install : Interp.t -> unit
(** Register every built-in command in an interpreter. *)

val new_interp : ?counters:Counters.t -> unit -> Interp.t
(** [create] + [install]: a ready-to-use Tcl interpreter. *)

val create_slave :
  master:Interp.t -> safe:bool -> string -> (Interp.t, string) result
(** {!Interp_cmd.create_slave} with {!new_interp} as the constructor:
    a fully-equipped slave of [master], hidden-down when [safe]. *)
