(** A Tcl-3.7-like source-level scripting interpreter, the paper's
    "simple flexible scripting language" technology [CAMP95].

    Faithful to the era's Tcl in the properties that matter for the
    measurements: every value is a string, nothing is compiled (scripts
    are re-split and re-substituted on every execution, including every
    loop iteration), and the substitution forms are Tcl's ([$var],
    [\[cmd\]], braces, double quotes).

    Grafts reach kernel memory through [kload]/[kstore] on windows
    bound with {!bind_array}; every access is bounds- and
    permission-checked. A fuel budget preempts runaway scripts. *)

type t

(** Create an interpreter over the given kernel memory. [fuel] is the
    CPU quantum in abstract units (roughly commands plus expression
    operators); it is consumed across all evaluations until reset with
    {!set_fuel}. *)
val create : ?fuel:int -> Graft_mem.Memory.t -> t

val set_fuel : t -> int -> unit

(** Expose a kernel window to scripts as array [name] for
    [kload]/[kstore]. [writable] additionally gates [kstore]. *)
val bind_array :
  t -> name:string -> Graft_mem.Memory.region -> writable:bool -> unit

(** Register a host command callable from scripts. *)
val bind_command : t -> name:string -> (t -> string list -> string) -> unit

(** Set a global variable from the kernel side. *)
val define_variable : t -> string -> string -> unit

(** Evaluate a script at top level; the result is the last command's
    result. Faults (including fuel exhaustion) are contained. *)
val eval : t -> string -> (string, Graft_mem.Fault.t) result

(** Invoke a proc previously defined by {!eval} — how the kernel calls
    into a script graft. *)
val call : t -> string -> string list -> (string, Graft_mem.Fault.t) result
