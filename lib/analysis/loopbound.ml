(** Loop bounds: Graftcheck's monotone-counter / trip-count derivation.

    The 1996 paper's verifiable tiers simply forbid backward jumps;
    eBPF-class runtimes instead admit loops the verifier can prove
    terminate, from the instructions alone. Graftgate does the same:
    the front end refuses any loop whose bound it cannot derive from
    the IR ({!check_program}), and each backend verifier derives the
    bound again from its own instruction stream (the counter's
    initialiser, the loop-head test and the step) before it admits the
    backward jump. No bound travels with the program, so there is none
    to tamper with: a loop the code does not bound is a load failure,
    never a runtime surprise.

    The derivable shape is the canonical counted loop GEL's [for]
    lowers to:

    {[ var i = INIT;                     (* immediately before loop *)
       while (i < LIMIT) {               (* Lt/Le, or Gt/Ge counting down *)
         ... body never assigns i ...
       } step { i = i + STEP; }          (* constant STEP >= 1 *) ]}

    The trip count is then a closed form ({!trips}), capped at
    {!max_trip} so a certified loop's count can also serve as a fuel
    budget. {!entry_fault} is the one entry rule both verifiers hold a
    certified loop to. *)

module Ir = Graft_gel.Ir

(** Ceiling on any certified trip count: a loop the verifier admits
    can run at most this many iterations, so certified grafts stay
    preemptible-by-construction even in unfueled tiers. *)
let max_trip = 1_000_000

(** Closed-form trip count, or [None] when the shape cannot terminate
    by counting ([step = 0], direction fights the comparison, or the
    count exceeds {!max_trip}). Exported so backend verifiers compute
    the same number from the windows they read. *)
let trips ~init ~limit ~cmp ~step : int option =
  if step < 1 then None
  else
    let count =
      match cmp with
      | Ir.Lt -> if init >= limit then Some 0 else Some ((limit - init + step - 1) / step)
      | Ir.Le -> if init > limit then Some 0 else Some ((limit - init + step) / step)
      | Ir.Gt -> if init <= limit then Some 0 else Some ((init - limit + step - 1) / step)
      | Ir.Ge -> if init < limit then Some 0 else Some ((init - limit + step) / step)
      | Ir.Eq | Ir.Ne -> None
    in
    match count with
    | Some n when n >= 0 && n <= max_trip -> Some n
    | _ -> None

(** The entry rule every verifier holds a certified loop to, so the
    bound it derived covers every execution that reaches the back
    edge. The loop's initialiser starts at [init], its back edge is at
    [back], and the [step_len] instructions before [back] are its step;
    [target pc] reads the branch target of the instruction at [pc] in
    an [ncode]-instruction code array, and [entries] pairs each
    function's name with its entry pc. No jump from outside
    [\[init, back\]] and no function entry may land in [(init, back]],
    where the counter would start from an unproven value, and no jump
    at all may land in the step window past its first instruction,
    where it would reach the back edge without advancing the counter
    (a jump to the step's first instruction is the compiled
    [continue]). Returns why the rule fails, or [None]. *)
let entry_fault ~target ~ncode ~entries ~init ~back ~step_len =
  let inside u = u > init && u <= back in
  let rec jumps pc =
    if pc >= ncode then None
    else
      match target pc with
      | Some u when inside u && (pc < init || pc > back) ->
          Some (Printf.sprintf "jump at %d enters a certified loop at %d" pc u)
      | Some u when u > back - step_len && u <= back ->
          Some
            (Printf.sprintf
               "jump at %d enters a certified loop's step window at %d" pc u)
      | _ -> jumps (pc + 1)
  in
  match List.find_opt (fun (_, e) -> inside e) entries with
  | Some (name, e) ->
      Some (Printf.sprintf "function %s starts inside a certified loop at %d" name e)
  | None -> jumps 0

let rec strip = function Ir.At (_, s) -> strip s | s -> s

(** Does any statement in [stmts] (recursively) assign local [slot]? *)
let rec assigns_local slot stmts =
  List.exists
    (fun s ->
      match strip s with
      | Ir.Set_local (i, _) -> i = slot
      | Ir.If (_, t, f) -> assigns_local slot t || assigns_local slot f
      | Ir.While (_, b, st) -> assigns_local slot b || assigns_local slot st
      | _ -> false)
    stmts

(** The trip count of one [While (cond, body, step)] given the
    statement lexically preceding it (the counter's initialiser), or
    why the loop has none. *)
let derive ~(prev : Ir.stmt option) (cond : Ir.expr) (body : Ir.stmt list)
    (step : Ir.stmt list) : (int, string) result =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match cond with
  | Ir.Cmp (((Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge) as cmp), Ir.Local i, Ir.Const k)
    -> (
      let init =
        match Option.map strip prev with
        | Some (Ir.Set_local (j, Ir.Const v)) when j = i -> Some v
        | _ -> None
      in
      match init with
      | None -> fail "counter local%d has no constant initialiser before the loop" i
      | Some v -> (
          match List.map strip step with
          | [ Ir.Set_local (j, Ir.Arith (Ir.Kint, op, Ir.Local j', Ir.Const s)) ]
            when j = i && j' = i -> (
              let dir_ok =
                match (cmp, op) with
                | (Ir.Lt | Ir.Le), Ir.Add -> true
                | (Ir.Gt | Ir.Ge), Ir.Sub -> true
                | _ -> false
              in
              if not dir_ok then
                fail "loop step does not advance local%d toward the limit" i
              else if s < 1 then fail "loop step %d is not positive" s
              else if assigns_local i body then
                fail "loop body assigns the counter local%d" i
              else
                match trips ~init:v ~limit:k ~cmp ~step:s with
                | None ->
                    fail "trip count for local%d exceeds %d or diverges" i
                      max_trip
                | Some n -> Ok n)
          | _ -> fail "loop step is not a single constant bump of local%d" i))
  | _ -> Error "loop condition is not (counter CMP constant)"

(** Walk a statement list tracking the lexically-previous statement,
    applying [f prev cond body step] at every [While] (outer loops
    before their nested loops). *)
let rec walk_block f stmts =
  let prev = ref None in
  List.iter
    (fun s ->
      (match strip s with
      | Ir.While (cond, body, step) ->
          f !prev cond body step;
          walk_block f body;
          walk_block f step
      | Ir.If (_, t, fb) ->
          walk_block f t;
          walk_block f fb
      | _ -> ());
      prev := Some s)
    stmts

(** Check every loop in [prog] has a derivable bound. This is the
    whole loop check for the AST-interpreter tier (which executes IR
    directly, so the IR-level derivation is the check), and the front
    gate for the register VM (whose instruction-level verifier then
    derives each loop's bound again from the machine code). *)
let check_program (prog : Ir.program) : (unit, string) result =
  let err = ref None in
  Array.iter
    (fun (f : Ir.func) ->
      walk_block
        (fun prev cond body step ->
          if !err = None then
            match derive ~prev cond body step with
            | Ok _ -> ()
            | Error msg ->
                err := Some (Printf.sprintf "%s: unbounded loop: %s" f.Ir.fname msg))
        f.Ir.body)
    prog.Ir.funcs;
  match !err with None -> Ok () | Some msg -> Error msg

(** The IR-level load gate of the tiers that check no stack bytecode
    (the AST walker and the register VM): the typed helper table
    ({!Helpers.check_externs}), then, under [bounded], a derived bound
    for every loop ({!check_program}). *)
let gate ~bounded (image : Graft_gel.Link.image) =
  let prog = image.Graft_gel.Link.prog in
  match Helpers.check_externs prog with
  | Error _ as e -> e
  | Ok () -> if bounded then check_program prog else Ok ()
