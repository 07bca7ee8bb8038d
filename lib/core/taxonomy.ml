(** The paper's graft taxonomy (section 3): why code is grafted into
    the kernel, and the three structural classes most grafts fall
    into. *)

type motivation =
  | Policy  (** control a kernel policy decision *)
  | Performance  (** migrate application code to avoid copies/upcalls *)
  | Functionality  (** add new capability to the kernel *)

type structure =
  | Prioritization
      (** select the highest-priority item from a list (VM eviction,
          buffer-cache victim, scheduling) *)
  | Stream  (** a filter inserted into a data stream (MD5, compression) *)
  | Black_box  (** inputs, state, one output (ACLs, logical disk) *)

(** The paper's representative graft for each structure. *)
let representative = function
  | Prioritization -> "VM page eviction"
  | Stream -> "MD5 fingerprinting"
  | Black_box -> "Logical Disk"
