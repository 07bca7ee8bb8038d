(* Extension technology outside the kernel (paper section 2): database
   servers let clients load query-specific code — Illustra DataBlades
   ran unprotected, Thor used a typesafe language. Here a tiny query
   engine evaluates a user-supplied predicate ("UDF") over a table,
   with the UDF running as a graft: once in unsafe native code
   (Illustra's model) and once in the safe bytecode VM (Thor's model).

   The safe UDF also demonstrates why Thor bothered: a buggy predicate
   faults and the server survives, returning an error for that query
   only.

   Run with: dune exec examples/db_datablade.exe *)

open Graft_gel
open Graft_mem

(* The table: orders (price, quantity), column-major. *)
let nrows = 200_000

let price, qty =
  let rng = Graft_util.Prng.create 0xDBDBL in
  ( Array.init nrows (fun _ -> 1 + Graft_util.Prng.int rng 1000),
    Array.init nrows (fun _ -> 1 + Graft_util.Prng.int rng 50) )

(* The query: count rows where price * qty > 20000 and price odd. *)

let native_udf p q = (p * q > 20_000) && p land 1 = 1

let udf_source =
  {|
shared array row[2];

fn keep() : int {
  var p = row[0];
  var q = row[1];
  if (p * q > 20000 && p % 2 == 1) { return 1; }
  return 0;
}

fn buggy() : int {
  return row[99];   // reads past the row window
}
|}

let () =
  (* Native (Illustra-style, unprotected) scan. *)
  let t_native, native_count =
    Graft_util.Timer.time_it (fun () ->
        let c = ref 0 in
        for i = 0 to nrows - 1 do
          if native_udf price.(i) qty.(i) then incr c
        done;
        !c)
  in
  (* Safe bytecode UDF (Thor-style): the server maps the current row
     into the graft's window and upcalls per row. *)
  let prog = Gel.compile_exn udf_source in
  let mem = Memory.create 1024 in
  let row = Memory.alloc mem ~name:"row" ~len:2 ~perm:Memory.perm_ro in
  let image =
    match Link.link prog ~mem ~shared:[ ("row", row) ] ~hosts:[] with
    | Ok image -> image
    | Error m -> failwith m
  in
  let vm = Graft_stackvm.Stackvm.load_exn image in
  let session = Graft_stackvm.Vm.create_session vm in
  (* Each UDF is resolved once; a call then enters it by index. *)
  let udf name = Result.get_ok (Ir.entry prog name ~nargs:0) in
  let keep = udf "keep" and buggy = udf "buggy" in
  let run fn = Graft_stackvm.Vm.run_session session ~fn ~args:[||] ~fuel:10_000 in
  let cells = Memory.cells mem in
  let t_vm, vm_count =
    Graft_util.Timer.time_it (fun () ->
        let c = ref 0 in
        for i = 0 to nrows - 1 do
          cells.(row.Memory.base) <- price.(i);
          cells.(row.Memory.base + 1) <- qty.(i);
          match run keep with
          | 1 -> incr c
          | _ -> ()
          | exception Fault.Fault _ -> failwith "udf faulted"
        done;
        !c)
  in
  Printf.printf "query: count(*) where price*qty > 20000 and price odd  (%d rows)\n\n" nrows;
  Printf.printf "  %-28s count=%d in %s\n" "native UDF (DataBlade-style)"
    native_count
    (Graft_util.Timer.pp_seconds t_native);
  Printf.printf "  %-28s count=%d in %s (%.0fx)\n" "bytecode UDF (Thor-style)"
    vm_count
    (Graft_util.Timer.pp_seconds t_vm)
    (t_vm /. t_native);
  assert (native_count = vm_count);
  (* The buggy UDF faults; the server survives and keeps answering. *)
  (match run buggy with
  | exception Fault.Fault f ->
      Printf.printf "\nbuggy UDF contained: %s\n" (Fault.to_string f)
  | _ -> failwith "buggy UDF should fault");
  (match run keep with
  | _ -> print_endline "server still answering queries afterwards"
  | exception Fault.Fault _ -> failwith "server should survive");
  print_endline
    "\nIllustra ran DataBlades unprotected ('does not currently protect\n\
     itself from misbehaved DataBlade code'); Thor paid interpretation\n\
     for safety. Same trade as in the kernel."
