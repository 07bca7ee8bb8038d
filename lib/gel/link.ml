(** Linking a typechecked GEL program into a graft address space.

    The loader allocates the program's global scalars and private arrays
    inside the supplied [Memory.t], binds shared arrays to kernel-mapped
    regions, and resolves extern declarations against the kernel's host
    function table. The result is an executable image consumed by the
    reference interpreter and by the VM compilers.

    A host function reads its arguments in place: [hfn args i] gets the
    calling engine's own argument storage (the walker's staging area,
    the stack VM's operand stack, the JIT's operand slots or the
    register file), valid only during the call, with the first argument
    at [args.(i)] and the rest after it in order. So no engine builds
    an argument array for a host call. *)

type host = { hname : string; hfn : int array -> int -> int }

type image = {
  prog : Ir.program;
  mem : Graft_mem.Memory.t;
  global_base : int;  (** cell address of scalar slot 0 *)
  arr_base : int array;  (** per-array base cell address *)
  arr_len : int array;  (** per-array element count *)
  arr_writable : bool array;  (** kernel-granted write permission *)
  host : (int array -> int -> int) array;  (** indexed like [prog.externs] *)
}

(** Cells needed to link [prog] into a fresh memory, excluding shared
    windows (which the kernel maps) and the reserved NIL cell. *)
let footprint (prog : Ir.program) =
  let scalars = Array.length prog.globals in
  Array.fold_left
    (fun acc a -> if a.Ir.ashared then acc else acc + a.Ir.asize)
    scalars prog.arrays

let link (prog : Ir.program) ~(mem : Graft_mem.Memory.t)
    ~(shared : (string * Graft_mem.Memory.region) list)
    ~(hosts : host list) : (image, string) result =
  let open Graft_mem in
  try
    let nglobals = Array.length prog.globals in
    let global_base =
      if nglobals = 0 then 0
      else begin
        let r =
          Memory.alloc mem ~name:"$globals" ~len:nglobals ~perm:Memory.perm_rw
        in
        Array.iteri
          (fun i g -> (Memory.cells mem).(r.Memory.base + i) <- g.Ir.ginit)
          prog.globals;
        r.Memory.base
      end
    in
    let n = Array.length prog.arrays in
    let arr_base = Array.make n 0 in
    let arr_len = Array.make n 0 in
    let arr_writable = Array.make n false in
    Array.iteri
      (fun i a ->
        if a.Ir.ashared then begin
          match List.assoc_opt a.Ir.aname shared with
          | None ->
              failwith
                (Printf.sprintf "shared array %s not mapped by the kernel"
                   a.Ir.aname)
          | Some region ->
              if region.Memory.len < a.Ir.asize then
                failwith
                  (Printf.sprintf
                     "shared array %s needs %d cells but window %s has %d"
                     a.Ir.aname a.Ir.asize region.Memory.name
                     region.Memory.len);
              arr_base.(i) <- region.Memory.base;
              arr_len.(i) <- a.Ir.asize;
              arr_writable.(i) <- region.Memory.perm.Memory.write
        end
        else begin
          let r =
            Memory.alloc mem ~name:a.Ir.aname ~len:a.Ir.asize
              ~perm:Memory.perm_rw
          in
          (match a.Ir.ainit with
          | Some init -> Memory.blit_in mem r init
          | None -> ());
          arr_base.(i) <- r.Memory.base;
          arr_len.(i) <- a.Ir.asize;
          arr_writable.(i) <- true
        end)
      prog.arrays;
    let host =
      Array.map
        (fun (e : Ir.ext) ->
          match List.find_opt (fun h -> h.hname = e.Ir.ename) hosts with
          | Some h -> h.hfn
          | None ->
              failwith
                (Printf.sprintf "extern %s not provided by the kernel"
                   e.Ir.ename))
        prog.externs
    in
    Ok { prog; mem; global_base; arr_base; arr_len; arr_writable; host }
  with
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg

(** Convenience for tests and examples: link into a fresh memory sized
    to fit, with no shared windows. *)
let link_fresh ?(extra = 0) ?(hosts = []) prog =
  let mem = Graft_mem.Memory.create (footprint prog + extra + 16) in
  match link prog ~mem ~shared:[] ~hosts with
  | Ok image -> Ok image
  | Error _ as e -> e
