(** A Tcl-3.7-like source-level scripting interpreter, the paper's
    "simple flexible scripting language" technology [CAMP95].

    Faithful to the era's Tcl in the properties that matter for the
    measurements:
    - every value is a string; arithmetic round-trips through
      [int_of_string]/[string_of_int] on each operation;
    - nothing is compiled: scripts are re-scanned, re-split into words
      and re-substituted on every execution, including every iteration
      of a [while] body;
    - substitution forms are Tcl's: [$var], [\[cmd\]] command
      substitution, braces for literal text, double quotes with
      substitution.

    Grafts written in this language access kernel-shared windows with
    [kload]/[kstore], which bounds-check every access (the interpreter
    is a safe technology — just a slow one). A fuel budget preempts
    runaway scripts. *)

open Graft_mem

type arr = { base : int; len : int; writable : bool }

type frame = {
  vars : (string, string) Hashtbl.t;
  glinks : (string, unit) Hashtbl.t;  (** names linked to globals *)
}

type t = {
  mem : Memory.t;
  arrays : (string, arr) Hashtbl.t;
  procs : (string, string list * string) Hashtbl.t;
  commands : (string, t -> string list -> string) Hashtbl.t;
  globals : frame;
  mutable frames : frame list;  (** call stack, innermost first *)
  mutable fuel : int;
  mutable depth : int;
}

exception Return_exc of string
exception Break_exc
exception Continue_exc

let max_depth = 128

let fail fmt =
  Printf.ksprintf (fun msg -> Fault.raise_fault (Fault.Type_error msg)) fmt

let tick ?(cost = 1) t =
  t.fuel <- t.fuel - cost;
  if t.fuel < 0 then Fault.raise_fault Fault.Fuel_exhausted

let new_frame () = { vars = Hashtbl.create 16; glinks = Hashtbl.create 4 }

let current_frame t =
  match t.frames with frame :: _ -> frame | [] -> t.globals

let resolve_frame t name =
  let frame = current_frame t in
  if frame == t.globals then frame
  else if Hashtbl.mem frame.glinks name then t.globals
  else frame

let get_var t name =
  let frame = resolve_frame t name in
  match Hashtbl.find_opt frame.vars name with
  | Some v -> v
  | None -> fail "can't read %S: no such variable" name

let set_var t name value =
  let frame = resolve_frame t name in
  Hashtbl.replace frame.vars name value

let int_of t s =
  match int_of_string_opt (String.trim s) with
  | Some n -> n
  | None ->
      ignore t;
      fail "expected integer but got %S" s

(* ------------------------------------------------------------------ *)
(* Scanning helpers.                                                   *)
(* ------------------------------------------------------------------ *)

let is_word_char c =
  not (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = ';')

let is_var_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

(* Find the closing delimiter for a brace/bracket opened at [start]
   (index of the opening char). Returns index of the matching closer. *)
let find_matching src start open_c close_c =
  let n = String.length src in
  let rec go i depth =
    if i >= n then fail "missing %C" close_c
    else
      let c = src.[i] in
      if c = '\\' && i + 1 < n then go (i + 2) depth
      else if c = open_c then go (i + 1) (depth + 1)
      else if c = close_c then
        if depth = 1 then i else go (i + 1) (depth - 1)
      else go (i + 1) depth
  in
  go start 0

(* ------------------------------------------------------------------ *)
(* Substitution and word splitting.                                    *)
(* ------------------------------------------------------------------ *)

(* Substitute $var, [cmd] and backslash escapes in [src]; used for bare
   words, quoted words, and expr arguments. *)
let rec substitute t (src : string) : string =
  let n = String.length src in
  let buf = Buffer.create (n + 8) in
  let i = ref 0 in
  while !i < n do
    (match src.[!i] with
    | '$' ->
        let start = !i + 1 in
        let stop = ref start in
        while !stop < n && is_var_char src.[!stop] do
          incr stop
        done;
        if !stop = start then Buffer.add_char buf '$'
        else begin
          Buffer.add_string buf (get_var t (String.sub src start (!stop - start)));
          i := !stop - 1
        end
    | '[' ->
        let close = find_matching src !i '[' ']' in
        let inner = String.sub src (!i + 1) (close - !i - 1) in
        Buffer.add_string buf (eval_script t inner);
        i := close
    | '\\' when !i + 1 < n ->
        incr i;
        Buffer.add_char buf
          (match src.[!i] with
          | 'n' -> '\n'
          | 't' -> '\t'
          | c -> c)
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

(* Split one command line into words, substituting as Tcl does. *)
and split_words t (src : string) : string list =
  let n = String.length src in
  let words = ref [] in
  let i = ref 0 in
  let skip_space () =
    while !i < n && (src.[!i] = ' ' || src.[!i] = '\t') do
      incr i
    done
  in
  skip_space ();
  while !i < n do
    (match src.[!i] with
    | '{' ->
        let close = find_matching src !i '{' '}' in
        words := String.sub src (!i + 1) (close - !i - 1) :: !words;
        i := close + 1
    | '"' ->
        let close =
          let rec go j =
            if j >= n then fail "missing closing quote"
            else if src.[j] = '\\' && j + 1 < n then go (j + 2)
            else if src.[j] = '"' then j
            else go (j + 1)
          in
          go (!i + 1)
        in
        words := substitute t (String.sub src (!i + 1) (close - !i - 1)) :: !words;
        i := close + 1
    | _ ->
        let start = !i in
        let brackets = ref 0 in
        while
          !i < n
          && (!brackets > 0 || is_word_char src.[!i])
        do
          (match src.[!i] with
          | '[' -> incr brackets
          | ']' -> decr brackets
          | '\\' when !i + 1 < n -> incr i
          | _ -> ());
          incr i
        done;
        words := substitute t (String.sub src start (!i - start)) :: !words);
    skip_space ()
  done;
  List.rev !words

(* Split a script into commands at top-level newlines and semicolons. *)
and split_commands (src : string) : string list =
  let n = String.length src in
  let cmds = ref [] in
  let start = ref 0 in
  let brace = ref 0 and bracket = ref 0 in
  let flush stop =
    let raw = String.sub src !start (stop - !start) in
    let trimmed = String.trim raw in
    if trimmed <> "" && trimmed.[0] <> '#' then cmds := trimmed :: !cmds;
    start := stop + 1
  in
  let i = ref 0 in
  while !i < n do
    (match src.[!i] with
    | '\\' when !i + 1 < n -> incr i
    | '{' -> incr brace
    | '}' -> decr brace
    | '[' -> incr bracket
    | ']' -> decr bracket
    | ('\n' | ';') when !brace = 0 && !bracket = 0 -> flush !i
    | _ -> ());
    incr i
  done;
  flush n;
  List.rev !cmds

(* ------------------------------------------------------------------ *)
(* Evaluation.                                                         *)
(* ------------------------------------------------------------------ *)

and eval_script t (src : string) : string =
  let result = ref "" in
  List.iter (fun cmd -> result := eval_command t cmd) (split_commands src);
  !result

and eval_command t (line : string) : string =
  tick t;
  match split_words t line with
  | [] -> ""
  | name :: args -> dispatch t name args

and dispatch t name args =
  match Hashtbl.find_opt t.commands name with
  | Some f -> f t args
  | None -> (
      match Hashtbl.find_opt t.procs name with
      | Some (params, body) -> call_proc_internal t name params body args
      | None -> fail "invalid command name %S" name)

and call_proc_internal t name params body args =
  if List.length params <> List.length args then
    fail "wrong # args for %S: expected %d, got %d" name (List.length params)
      (List.length args);
  t.depth <- t.depth + 1;
  if t.depth > max_depth then Fault.raise_fault Fault.Stack_overflow;
  let frame = new_frame () in
  List.iter2 (fun p a -> Hashtbl.replace frame.vars p a) params args;
  t.frames <- frame :: t.frames;
  let finish result =
    t.frames <- List.tl t.frames;
    t.depth <- t.depth - 1;
    result
  in
  match eval_script t body with
  | result -> finish result
  | exception Return_exc v -> finish v
  | exception e ->
      ignore (finish "");
      raise e

and eval_expr t (raw : string) : int =
  let substituted = substitute t raw in
  let v, ops = Expr.eval substituted in
  tick ~cost:ops t;
  v

(* ------------------------------------------------------------------ *)
(* Built-in commands.                                                  *)
(* ------------------------------------------------------------------ *)

let cmd_set t = function
  | [ name ] -> get_var t name
  | [ name; value ] ->
      set_var t name value;
      value
  | args -> fail "wrong # args to set: %d" (List.length args)

let cmd_expr t args =
  match args with
  | [] -> fail "expr needs an argument"
  | _ -> string_of_int (eval_expr t (String.concat " " args))

let cmd_incr t = function
  | [ name ] ->
      let v = int_of t (get_var t name) + 1 in
      let s = string_of_int v in
      set_var t name s;
      s
  | [ name; amount ] ->
      let v = int_of t (get_var t name) + int_of t amount in
      let s = string_of_int v in
      set_var t name s;
      s
  | args -> fail "wrong # args to incr: %d" (List.length args)

let cmd_if t args =
  (* if cond body ?elseif cond body ...? ?else body? *)
  let rec go = function
    | cond :: body :: rest ->
        if eval_expr t cond <> 0 then eval_script t body
        else begin
          match rest with
          | [] -> ""
          | "elseif" :: rest -> go rest
          | [ "else"; body ] -> eval_script t body
          | [ body ] -> eval_script t body (* bare else body *)
          | _ -> fail "malformed if"
        end
    | _ -> fail "malformed if"
  in
  go args

let cmd_while t = function
  | [ cond; body ] ->
      (* Re-substitute and re-parse both the condition and the body on
         every iteration — the defining cost of a source interpreter. *)
      let rec loop () =
        if eval_expr t cond <> 0 then begin
          (match eval_script t body with
          | _ -> ()
          | exception Continue_exc -> ());
          loop ()
        end
      in
      (try loop () with Break_exc -> ());
      ""
  | args -> fail "wrong # args to while: %d" (List.length args)

let cmd_for t = function
  | [ init; cond; step; body ] ->
      ignore (eval_script t init);
      let rec loop () =
        if eval_expr t cond <> 0 then begin
          (match eval_script t body with
          | _ -> ()
          | exception Continue_exc -> ());
          ignore (eval_script t step);
          loop ()
        end
      in
      (try loop () with Break_exc -> ());
      ""
  | args -> fail "wrong # args to for: %d" (List.length args)

let cmd_proc t = function
  | [ name; params; body ] ->
      let params =
        String.split_on_char ' ' params
        |> List.concat_map (String.split_on_char '\n')
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      Hashtbl.replace t.procs name (params, body);
      ""
  | args -> fail "wrong # args to proc: %d" (List.length args)

let cmd_return _t = function
  | [] -> raise (Return_exc "")
  | [ v ] -> raise (Return_exc v)
  | args -> fail "wrong # args to return: %d" (List.length args)

let cmd_break _t _ = raise Break_exc
let cmd_continue _t _ = raise Continue_exc

let cmd_global t args =
  let frame = current_frame t in
  if frame == t.globals then ""
  else begin
    List.iter (fun name -> Hashtbl.replace frame.glinks name ()) args;
    ""
  end

let lookup_array t name =
  match Hashtbl.find_opt t.arrays name with
  | Some a -> a
  | None -> fail "no kernel array named %S" name

let cmd_kload t = function
  | [ name; idx ] ->
      let a = lookup_array t name in
      let i = int_of t idx in
      if i < 0 || i >= a.len then
        Fault.raise_fault (Fault.Out_of_bounds { access = Fault.Read; addr = i });
      string_of_int (Memory.cells t.mem).(a.base + i)
  | args -> fail "wrong # args to kload: %d" (List.length args)

let cmd_kstore t = function
  | [ name; idx; value ] ->
      let a = lookup_array t name in
      let i = int_of t idx in
      if i < 0 || i >= a.len then
        Fault.raise_fault
          (Fault.Out_of_bounds { access = Fault.Write; addr = i });
      if not a.writable then
        Fault.raise_fault
          (Fault.Protection { access = Fault.Write; addr = a.base + i });
      (Memory.cells t.mem).(a.base + i) <- int_of t value;
      ""
  | args -> fail "wrong # args to kstore: %d" (List.length args)

(* ------------------------------------------------------------------ *)
(* Public API.                                                         *)
(* ------------------------------------------------------------------ *)

let create ?(fuel = max_int) mem =
  let t =
    {
      mem;
      arrays = Hashtbl.create 8;
      procs = Hashtbl.create 8;
      commands = Hashtbl.create 32;
      globals = new_frame ();
      frames = [];
      fuel;
      depth = 0;
    }
  in
  List.iter
    (fun (name, f) -> Hashtbl.replace t.commands name f)
    [
      ("set", cmd_set); ("expr", cmd_expr); ("incr", cmd_incr);
      ("if", cmd_if); ("while", cmd_while); ("for", cmd_for);
      ("proc", cmd_proc); ("return", cmd_return); ("break", cmd_break);
      ("continue", cmd_continue); ("global", cmd_global);
      ("kload", cmd_kload); ("kstore", cmd_kstore);
    ];
  t

let set_fuel t fuel = t.fuel <- fuel

let bind_array t ~name (region : Memory.region) ~writable =
  Hashtbl.replace t.arrays name
    { base = region.Memory.base; len = region.Memory.len; writable }

let bind_command t ~name f = Hashtbl.replace t.commands name f

let define_variable t name value = Hashtbl.replace t.globals.vars name value

(** Evaluate a script at top level. *)
let eval t (src : string) : (string, Fault.t) result =
  match eval_script t src with
  | v -> Ok v
  | exception Fault.Fault f -> Error f
  | exception Return_exc v -> Ok v
  | exception Break_exc ->
      Error (Fault.Type_error "break outside a loop")
  | exception Continue_exc ->
      Error (Fault.Type_error "continue outside a loop")

(** Invoke a proc previously defined by [eval]. This is how the kernel
    upcalls into a script graft. *)
let call t name (args : string list) : (string, Fault.t) result =
  match dispatch t name args with
  | v -> Ok v
  | exception Fault.Fault f -> Error f
  | exception Return_exc v -> Ok v
  | exception Break_exc -> Error (Fault.Type_error "break outside a loop")
  | exception Continue_exc ->
      Error (Fault.Type_error "continue outside a loop")
