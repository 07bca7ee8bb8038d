(** The typed helper table: the one place where kernel helper
    signatures are declared.

    A graft reaches kernel services (today: graft maps) by declaring
    externs; an extern whose name matches a row of this table is a
    *helper* and must match the row's signature exactly — arity,
    all-[int] parameters, [int] return. Every verifier checks this
    identically: GEL loaders via {!check_externs} before linking, the
    stack-VM verifier and the register-VM verifier against the
    [ext_names]/[ext_arity] tables baked into their programs. A graft
    that declares [map_lookup] with the wrong arity is therefore
    rejected by every tier, not silently linked against a dispatcher
    that will misread its argument vector. *)

module Ir = Graft_gel.Ir

type sig_ = {
  h_name : string;
  h_arity : int;  (** parameter count; all parameters and the return are int *)
}

(** First helper parameter is always the map id; [map_update] takes
    (map, key, value), the rest take (map, key) or just (map). *)
let table =
  [
    { h_name = "map_lookup"; h_arity = 2 };
    { h_name = "map_update"; h_arity = 3 };
    { h_name = "map_delete"; h_arity = 2 };
    { h_name = "map_contains"; h_arity = 2 };
    { h_name = "map_size"; h_arity = 1 };
  ]

let find name = List.find_opt (fun s -> s.h_name = name) table

(** Check every helper-named extern of [prog] against the table.
    Non-helper externs are unconstrained (they are kernel-provided
    callbacks whose contract lives with the linker, as before). *)
let check_externs (prog : Ir.program) : (unit, string) result =
  let bad = ref None in
  Array.iter
    (fun (e : Ir.ext) ->
      if !bad = None then
        match find e.Ir.ename with
        | None -> ()
        | Some s ->
            let arity = List.length e.Ir.eparams in
            if arity <> s.h_arity then
              bad :=
                Some
                  (Printf.sprintf
                     "helper %s declared with arity %d, signature says %d"
                     e.Ir.ename arity s.h_arity)
            else if
              List.exists (fun t -> t <> Graft_gel.Ast.Tint) e.Ir.eparams
            then
              bad :=
                Some
                  (Printf.sprintf
                     "helper %s declared with a non-int parameter" e.Ir.ename)
            else if e.Ir.eret <> Some Graft_gel.Ast.Tint then
              bad :=
                Some
                  (Printf.sprintf "helper %s must return int" e.Ir.ename))
    prog.Ir.externs;
  match !bad with None -> Ok () | Some msg -> Error msg
