(* The shared JSON envelope. Every JSON artifact the toolkit emits —
   graftkit measure --json, graftkit trace, the bench baseline — used
   to hand-build its own schema_version/host/ocaml header; this module
   is now the only author of those keys, so the artifacts agree and a
   consumer can dispatch on one shape. *)

let host () = try Unix.gethostname () with _ -> "unknown"

(** The envelope keys as (key, rendered JSON value) pairs, for emitters
    that need to splice them into an existing object. *)
let fields ~schema_version =
  [
    ("schema_version", string_of_int schema_version);
    ("host", Graft_util.Minijson.quote (host ()));
    ("ocaml", Graft_util.Minijson.quote Sys.ocaml_version);
  ]

(** Rendered "k":v,... prefix (no braces), ready to lead an object. *)
let prefix ~schema_version =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v)
       (fields ~schema_version))

(** Wrap [body] — the inner "k":v,... members of an object, without
    braces — into a complete enveloped JSON object. *)
let wrap ~schema_version body =
  if body = "" then Printf.sprintf "{%s}" (prefix ~schema_version)
  else Printf.sprintf "{%s,%s}" (prefix ~schema_version) body
