(* Drive the graftkit binary the way a user or a CI step does. Shared
   by every test executable in this directory. *)

(** Run [../bin/graftkit.exe args] and return its exit code and
    standard output; standard error goes to the file [stderr] if
    given. *)
let graftkit ?stderr args =
  let out = Filename.temp_file "graftkit" ".out" in
  let code =
    Sys.command
      (Filename.quote_command "../bin/graftkit.exe" ~stdout:out ?stderr args)
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)
