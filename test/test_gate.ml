(* Graftgate: graft maps as kernel objects, the typed helper table,
   and verifier-bounded loops.

   The acceptance spine: the stateful connection demux (a backward
   jump + two map helpers) must load and run identically on every VM
   tier; the same graft with its loop written outside the canonical
   counted shape must be rejected by every bounded loader; tampered
   loop windows, helper-arity mismatches and out-of-range map keys
   must all be caught; and a qcheck property ties the closed-form
   trip counts to an independent simulation. *)

open Graft_core
module K = Graft_kernel
module Map = K.Graftmap
module Lb = Graft_analysis.Loopbound
module Ir = Graft_gel.Ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let protocol = K.Netpkt.proto_tcp
let marker = 0x42

(* ------------------------------------------------------------------ *)
(* Graft map unit tests.                                               *)
(* ------------------------------------------------------------------ *)

let test_array_map () =
  let m = Map.create_array ~name:"t-arr" 8 in
  check_int "update in range" 1 (Map.update m 3 40);
  check_int "lookup hit" 40 (Map.lookup m 3);
  check_int "lookup empty slot" 0 (Map.lookup m 0);
  check_int "size is capacity" 8 (Map.size m);
  check_int "contains in range" 1 (Map.contains m 7);
  check_int "contains out of range" 0 (Map.contains m 8);
  check_int "delete zeroes" 1 (Map.delete m 3);
  check_int "deleted slot reads 0" 0 (Map.lookup m 3);
  let faults f =
    match f () with
    | (_ : int) -> Alcotest.fail "expected an out-of-bounds fault"
    | exception Graft_mem.Fault.Fault (Graft_mem.Fault.Out_of_bounds _) -> ()
  in
  faults (fun () -> Map.lookup m 8);
  faults (fun () -> Map.lookup m (-1));
  faults (fun () -> Map.update m 99 1);
  faults (fun () -> Map.delete m 8)

let test_hash_map () =
  let m = Map.create_hash ~name:"t-hash" 3 in
  check_int "miss reads 0" 0 (Map.lookup m 1000);
  check_int "insert" 1 (Map.update m 10 1);
  check_int "insert" 1 (Map.update m 20 2);
  check_int "insert" 1 (Map.update m 30 3);
  check_int "size" 3 (Map.size m);
  (* Full + absent key: refused, eBPF E2BIG style. *)
  check_int "full insert refused" 0 (Map.update m 40 4);
  check_int "refused key absent" 0 (Map.lookup m 40);
  (* Full + present key: replaces in place. *)
  check_int "full replace ok" 1 (Map.update m 20 22);
  check_int "replaced value" 22 (Map.lookup m 20);
  check_int "delete present" 1 (Map.delete m 10);
  check_int "delete absent" 0 (Map.delete m 10);
  check_int "room again" 1 (Map.update m 40 4);
  Alcotest.(check (list (pair int int)))
    "entries sorted" [ (20, 22); (30, 3); (40, 4) ] (Map.entries m)

let test_lru_map () =
  let m = Map.create_lru ~name:"t-lru" 3 in
  check_int "insert" 1 (Map.update m 1 100);
  check_int "insert" 1 (Map.update m 2 200);
  check_int "insert" 1 (Map.update m 3 300);
  (* Refresh key 1 so key 2 is now the least recently used. *)
  check_int "hit refreshes" 100 (Map.lookup m 1);
  check_int "insert over capacity" 1 (Map.update m 4 400);
  check_int "LRU key evicted" 0 (Map.contains m 2);
  check_int "refreshed key kept" 1 (Map.contains m 1);
  check_int "recent keys kept" 1 (Map.contains m 3);
  check_int "new key present" 1 (Map.contains m 4);
  (* Next eviction takes key 3: 1 was refreshed, 4 is newest. *)
  check_int "insert over capacity" 1 (Map.update m 5 500);
  check_int "second LRU evicted" 0 (Map.contains m 3);
  check_int "population capped" 3 (Map.size m);
  (* A miss does not refresh (there is nothing to refresh). *)
  check_int "miss reads 0" 0 (Map.lookup m 3)

let test_map_hosts () =
  let a = Map.create_array ~name:"t-h0" 4 in
  let h = Map.create_hash ~name:"t-h1" 4 in
  let hosts = Map.hosts [| a; h |] in
  let call name argv = (List.assoc name hosts) argv 0 in
  check_int "update via helper" 1 (call "map_update" [| 0; 2; 7 |]);
  check_int "lookup via helper" 7 (call "map_lookup" [| 0; 2 |]);
  check_int "hash via helper" 1 (call "map_update" [| 1; 99; 5 |]);
  check_int "contains via helper" 1 (call "map_contains" [| 1; 99 |]);
  check_int "size via helper" 1 (call "map_size" [| 1 |]);
  check_int "delete via helper" 1 (call "map_delete" [| 1; 99 |]);
  (match call "map_lookup" [| 5; 0 |] with
  | (_ : int) -> Alcotest.fail "bad map id must fault"
  | exception Graft_mem.Fault.Fault (Graft_mem.Fault.Illegal_instruction _) ->
      ())

(* Hash and LRU maps against a reference model: an association list
   in recency order, most recent first. An LRU map refreshes a key on
   a hit and evicts the list's last key; a hash map never reads the
   order. Multiples of 8 (and [min_int]) share bucket 0 at every
   capacity up to 8, so chains longer than one slot are exercised. *)
type map_op =
  | Lookup of int
  | Update of int * int
  | Delete of int
  | Contains of int
  | Size
  | Clear

let show_map_op = function
  | Lookup k -> Printf.sprintf "lookup %d" k
  | Update (k, v) -> Printf.sprintf "update %d %d" k v
  | Delete k -> Printf.sprintf "delete %d" k
  | Contains k -> Printf.sprintf "contains %d" k
  | Size -> "size"
  | Clear -> "clear"

let apply_map_op m = function
  | Lookup k -> Map.lookup m k
  | Update (k, v) -> Map.update m k v
  | Delete k -> Map.delete m k
  | Contains k -> Map.contains m k
  | Size -> Map.size m
  | Clear ->
      Map.clear m;
      0

let model_step ~lru ~cap model = function
  | Lookup k -> (
      match List.assoc_opt k model with
      | None -> (0, model)
      | Some v -> (v, (k, v) :: List.remove_assoc k model))
  | Update (k, v) ->
      if List.mem_assoc k model then (1, (k, v) :: List.remove_assoc k model)
      else if List.length model < cap then (1, (k, v) :: model)
      else if lru then (1, (k, v) :: List.filteri (fun i _ -> i < cap - 1) model)
      else (0, model)
  | Delete k ->
      if List.mem_assoc k model then (1, List.remove_assoc k model)
      else (0, model)
  | Contains k -> (Bool.to_int (List.mem_assoc k model), model)
  | Size -> (List.length model, model)
  | Clear -> (0, [])

let prop_map_model =
  let open QCheck.Gen in
  let key =
    frequency
      [
        (6, int_range (-3) 19);
        (3, map (fun j -> 8 * j) (int_range (-8) 8));
        (1, oneofl [ max_int; min_int ]);
      ]
  in
  let op =
    frequency
      [
        (4, map (fun k -> Lookup k) key);
        (5, map2 (fun k v -> Update (k, v)) key (int_range 1 999));
        (2, map (fun k -> Delete k) key);
        (2, map (fun k -> Contains k) key);
        (1, return Size);
        (1, return Clear);
      ]
  in
  let print (lru, cap, ops) =
    Printf.sprintf "%s map, capacity %d: %s"
      (if lru then "lru" else "hash")
      cap
      (String.concat "; " (List.map show_map_op ops))
  in
  QCheck.Test.make ~name:"hash and lru maps match a reference model"
    ~count:1000
    (QCheck.make ~print (triple bool (int_range 1 8) (list_size (0 -- 80) op)))
    (fun (lru, cap, ops) ->
      let m =
        if lru then Map.create_lru ~name:"t-model" cap
        else Map.create_hash ~name:"t-model" cap
      in
      let step model op =
        let want, model = model_step ~lru ~cap model op in
        let got = apply_map_op m op in
        if got <> want then
          QCheck.Test.fail_reportf "%s returned %d, model %d" (show_map_op op)
            got want;
        if Map.entries m <> List.sort compare model then
          QCheck.Test.fail_reportf "entries differ after %s" (show_map_op op);
        if not (Map.invariant_ok m) then
          QCheck.Test.fail_reportf "invariant broken after %s" (show_map_op op);
        model
      in
      ignore (List.fold_left step [] ops);
      true)

(* Minor words per call of [f], over [n] calls. *)
let words_per_call n f =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A touch (lookup, then update) on a full 64-entry LRU map allocates
   nothing, whether it hits or evicts: the key index and the recency
   list are preallocated int arrays, and the counters and trace spans
   take their counts as plain ints. *)
let test_map_touch_allocation () =
  let m = Map.create_lru ~name:"t-alloc" 64 in
  let touch k = ignore (Map.update m k (Map.lookup m k + 1)) in
  for k = 0 to 63 do
    touch k
  done;
  let hit = words_per_call 10_000 (fun i -> touch (i land 63)) in
  (* 256 keys cycled through 64 slots: every touch misses and evicts. *)
  let evict = words_per_call 10_000 (fun i -> touch (64 + (i land 255))) in
  check_int "still full" 64 (Map.size m);
  if hit > 0. then Alcotest.failf "hit touch: %.1f minor words" hit;
  if evict > 0. then Alcotest.failf "evicting touch: %.1f minor words" evict

(* ------------------------------------------------------------------ *)
(* The stateful demux across every tier.                               *)
(* ------------------------------------------------------------------ *)

(* A packet with a 32-byte payload (total length 70, the demux
   minimum); [mark] places the marker where the certified scan probes
   payload bytes 16..31, so [mark:(Some i)] yields scan index [i]. *)
let packet ?(ethertype = K.Netpkt.ethertype_ip) ?(proto = protocol)
    ?(src_port = 7) ?mark () =
  let payload = Bytes.make 32 '\x00' in
  (match mark with
  | Some i -> Bytes.set payload (16 + i) (Char.chr marker)
  | None -> ());
  K.Netpkt.make ~ethertype ~protocol:proto ~src_port ~dst_port:80 ~payload ()

let demux_techs =
  [
    Technology.Ast_interp;
    Technology.Bytecode_vm;
    Technology.Bytecode_opt;
    Technology.Safe_lang_static;
    Technology.Jit;
    Technology.Sfi_write_jump;
    Technology.Sfi_full;
    Technology.Specialized_vm;
  ]

(* The packet sequence every tier must classify identically: marker at
   each probed offset, marker absent, rejects (non-IP, wrong protocol,
   short), and per-connection counters accumulating across ports that
   do and do not collide modulo the map size. *)
let demux_traffic =
  List.concat
    [
      List.init 16 (fun i -> packet ~src_port:(100 + i) ~mark:i ());
      [
        packet ~src_port:100 ~mark:3 ();
        (* port 100 again: count 2 *)
        packet ~src_port:(100 + 64) ~mark:0 ();
        (* collides with port 100 *)
        packet ~src_port:500 ();
        (* marker absent: scan 16 *)
        packet ~ethertype:0x0806 ~src_port:9 ~mark:0 ();
        (* non-IP *)
        packet ~proto:K.Netpkt.proto_udp ~src_port:9 ~mark:0 ();
        (* wrong proto *)
        K.Netpkt.make ~protocol ~src_port:9
          ~payload:(Bytes.make 8 (Char.chr marker))
          ();
        (* short: 46 bytes *)
        packet ~src_port:500 ~mark:15 ();
        (* port 500 again: count 2 *)
      ];
    ]

let run_demux tech =
  let d = Runners.demux tech ~protocol ~marker in
  let results = List.map d.Runners.demux demux_traffic in
  (results, Map.entries d.Runners.d_conn)

let test_demux_reference () =
  (* Pin the reference semantics on the AST interpreter by hand before
     trusting it as the parity baseline. *)
  let results, conn = run_demux Technology.Ast_interp in
  let expect =
    List.init 16 (fun i -> (i * 1024) + 1)
    @ [
        (3 * 1024) + 2;
        (* port 100, second packet on that connection *)
        3;
        (* port 164 collides with port 100: scan 0, count 3 *)
        (16 * 1024) + 1;
        (* marker absent *)
        0;
        0;
        0;
        (* rejects *)
        (15 * 1024) + 2;
        (* port 500, second packet *)
      ]
  in
  Alcotest.(check (list int)) "hand-computed classifications" expect results;
  (* Connection counters: ports 100+164 share key 36 (3 packets),
     port 500 lands on key 52 (2 packets), everything else counts 1. *)
  check_int "colliding connection" 3 (List.assoc (100 land 63) conn);
  check_int "repeat connection" 2 (List.assoc (500 land 63) conn);
  check_int "distinct connections" 17 (List.length conn)

let test_demux_parity () =
  let ref_results, ref_conn = run_demux Technology.Ast_interp in
  List.iter
    (fun tech ->
      let results, conn = run_demux tech in
      if results <> ref_results then
        Alcotest.failf "%s classifies differently from the interpreter"
          (Technology.name tech);
      if conn <> ref_conn then
        Alcotest.failf "%s leaves different connection state"
          (Technology.name tech))
    demux_techs

(* ------------------------------------------------------------------ *)
(* Hot-set tracking parity (the LRU map graft).                        *)
(* ------------------------------------------------------------------ *)

let hotset_techs =
  List.filter (fun t -> t <> Technology.Specialized_vm) demux_techs

let test_hotset_parity () =
  List.iter
    (fun tech ->
      let h = Runners.hotset tech ~capacity:2 in
      let n = Technology.name tech in
      check_int (n ^ ": first touch") 1 (h.Runners.touch 1);
      check_int (n ^ ": first touch") 1 (h.Runners.touch 2);
      check_int (n ^ ": repeat touch counts") 2 (h.Runners.touch 1);
      (* Touching page 3 overflows capacity 2; page 2 is the LRU. *)
      check_int (n ^ ": overflow touch") 1 (h.Runners.touch 3);
      check_bool (n ^ ": LRU page evicted") false (h.Runners.hot 2);
      check_bool (n ^ ": refreshed page kept") true (h.Runners.hot 1);
      check_bool (n ^ ": new page kept") true (h.Runners.hot 3);
      (* The evicted page's count restarts: persistence lives in the
         map, and the map forgot it. *)
      check_int (n ^ ": evicted count restarts") 1 (h.Runners.touch 2))
    hotset_techs

(* ------------------------------------------------------------------ *)
(* Rejection paths: every bounded loader refuses what it must.         *)
(* ------------------------------------------------------------------ *)

let pkt_windows = [ ("pkt", Runners.pkt_window_cells, false) ]

let demux_env ~src tech =
  let maps = [| Map.create_array ~name:"conn" 64 |] in
  (maps, Runners.gel_env ~hosts:(Runners.map_hosts maps) tech src pkt_windows)

(* [env]'s graft loaded for [tech], entered by name at
   {!Runners.huge_fuel}; the graft's fault raises. *)
let by_name ?bounded tech env =
  let image = env.Runners.image in
  let run = Runners.engine ?bounded ~fuel:Runners.huge_fuel tech image in
  fun ~entry ~args -> run ~fn:(Gelrun.fn image entry ~args) ~args

let expect_rejected what tech f =
  match
    let (_ : entry:string -> args:int array -> int) = f () in
    ()
  with
  | () ->
      Alcotest.failf "%s: loader admitted %s" (Technology.name tech) what
  | exception Failure _ -> ()

(* Every bounded loader must reject the while-form demux — semantically
   identical to the certified one, but not the canonical counted shape,
   so no trip count can be derived for its backward jump. *)
let test_unbounded_rejected () =
  let src =
    Graft_grafts.Gel_sources.demux_unbounded
      ~window_cells:Runners.pkt_window_cells ~protocol ~marker
  in
  List.iter
    (fun tech ->
      let _, env = demux_env ~src tech in
      expect_rejected "an uncertified backward jump" tech (fun () ->
          by_name ~bounded:true tech env);
      (* The same tier without ~bounded accepts it: the fuel watchdog
         is then the only backstop, which is exactly the trade the
         certificate removes. *)
      let entry = by_name tech env in
      let pkt = packet ~src_port:9 ~mark:5 () in
      let cells = Graft_mem.Memory.cells env.Runners.image.Graft_gel.Link.mem in
      let w = Runners.window env "pkt" in
      Bytes.iteri
        (fun i c ->
          cells.(w.Graft_mem.Memory.base + i) <- Char.code c)
        pkt.K.Netpkt.data;
      check_int
        (Technology.name tech ^ ": unbounded form still runs unfueled")
        ((5 * 1024) + 1)
        (entry ~entry:"demux" ~args:[| K.Netpkt.length pkt |]))
    hotset_techs

(* A declared helper whose signature disagrees with the kernel's typed
   table is rejected by every tier — including tiers that never reach
   the loop verifier. *)
let test_helper_mismatch_rejected () =
  let cases =
    [
      ("a lookup missing its map id",
       "extern fn map_lookup(int) : int;\n\
        fn main(k : int) : int { return map_lookup(k); }");
      ( "an update missing its value",
        "extern fn map_update(int, int) : int;\n\
         fn main(k : int) : int { return map_update(0, k); }" );
      ( "an over-applied contains",
        "extern fn map_contains(int, int, int) : int;\n\
         fn main(k : int) : int { return map_contains(0, k, 1); }" );
    ]
  in
  List.iter
    (fun (what, src) ->
      List.iter
        (fun tech ->
          let maps = [| Map.create_array ~name:"m" 8 |] in
          let env = Runners.gel_env ~hosts:(Runners.map_hosts maps) tech src [] in
          expect_rejected what tech (fun () ->
              by_name tech env))
        hotset_techs)
    cases;
  (* A non-helper extern remains unconstrained: its contract lives
     with the linker, exactly as before Graftgate. *)
  let maps = [| Map.create_array ~name:"m" 8 |] in
  let env =
    Runners.gel_env
      ~hosts:
        ({ Graft_gel.Link.hname = "map_probe"; hfn = (fun _ _ -> 41) }
        :: Runners.map_hosts maps)
      Technology.Bytecode_vm
      "extern fn map_probe(int) : int;\n\
       fn main(k : int) : int { return map_probe(k) + 1; }"
      []
  in
  let entry = by_name Technology.Bytecode_vm env in
  check_int "non-helper externs still link" 42 (entry ~entry:"main" ~args:[| 0 |])

(* The bounded stack verifier derives the demux scan loop's bound from
   its bytecode windows. Each edit below is one a bad compiler or a
   hostile program could make to those windows, and each must leave
   the loop unbounded in the verifier's eyes. *)
let test_tampered_windows_rejected () =
  let _, env =
    demux_env
      ~src:
        (Graft_grafts.Gel_sources.demux ~window_cells:Runners.pkt_window_cells
           ~protocol ~marker)
      Technology.Bytecode_vm
  in
  let module SP = Graft_stackvm.Program in
  let module Op = Graft_stackvm.Opcode in
  let p = Graft_stackvm.Stackvm.load_exn ~bounded:true env.Runners.image in
  let verify p = Graft_stackvm.Verify.verify ~bounded:true p in
  (match verify p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "genuine loop rejected: %s" m);
  (* The scan loop: its back edge [b] jumps to the head [t]. *)
  let b, t =
    let found = ref None in
    Array.iteri
      (fun pc op ->
        match op with
        | Op.Jmp t when t <= pc && !found = None -> found := Some (pc, t)
        | _ -> ())
      p.SP.code;
    match !found with Some bt -> bt | None -> Alcotest.fail "no loop in demux"
  in
  let counter =
    match p.SP.code.(t) with
    | Op.Load_local n -> n
    | op -> Alcotest.failf "loop head reads %s" (Op.to_string op)
  in
  (* A body store to another local, to repoint at the counter. *)
  let body_store =
    let found = ref (-1) in
    for pc = t + 4 to b - 5 do
      match p.SP.code.(pc) with
      | Op.Store_local n when n <> counter && !found < 0 -> found := pc
      | _ -> ()
    done;
    !found
  in
  check_bool "the scan body stores a local" true (body_store >= 0);
  let rejects what fragment edits =
    let code = Array.copy p.SP.code in
    List.iter (fun (pc, op) -> code.(pc) <- op) edits;
    match verify { p with SP.code } with
    | Ok () -> Alcotest.failf "verifier accepted %s" what
    | Error m ->
        if not (contains m fragment) then
          Alcotest.failf "%s: error %S does not mention %S" what m fragment
  in
  rejects "a zero step" "not positive" [ (b - 3, Op.Const 0) ];
  rejects "a backwards step" "does not advance" [ (b - 2, Op.Sub) ];
  rejects "a second counter write" "also written"
    [ (body_store, Op.Store_local counter) ];
  rejects "a non-constant limit" "no constant limit"
    [ (t + 1, Op.Load_local counter) ];
  rejects "a non-constant initialiser" "no constant initialiser"
    [ (t - 2, Op.Load_local counter) ];
  (* The body's [break], repointed at the back edge, would iterate
     without the step. *)
  let break_pc =
    let found = ref (-1) in
    for pc = t + 4 to b - 5 do
      match p.SP.code.(pc) with
      | Op.Jmp u when u > b && !found < 0 -> found := pc
      | _ -> ()
    done;
    !found
  in
  check_bool "the scan body breaks out" true (break_pc >= 0);
  rejects "a body jump into the step window" "step window"
    [ (break_pc, Op.Jmp b) ]

(* The register-code twin: [c = 0; while (c < 4) { body; c = c + 1 }]
   with its head at pc 2, an optional body from pc 5, then the step and
   the back edge [br 2]. [extra] functions follow it. *)
let register_loop ?(body = []) ?(funcs = []) ?(extra = []) () =
  let module Isa = Graft_regvm.Isa in
  let module RP = Graft_regvm.Program in
  let nb = List.length body in
  let back = 8 + nb in
  let code =
    Array.of_list
      ([
         Isa.Movi (5, 0);
         Isa.Mov (4, 5);
         Isa.Movi (6, 4);
         Isa.Cmp (Ir.Lt, 7, 4, 6);
         Isa.Brz (7, back + 1);
       ]
      @ body
      @ [
          Isa.Movi (8, 1);
          Isa.Bin (Ir.Kint, Ir.Add, 8, 4, 8);
          Isa.Mov (4, 8);
          Isa.Br 2;
          Isa.Ret Isa.reg_zero;
        ]
      @ extra)
  in
  let fdesc name nargs entry code_end = { RP.name; nargs; entry; code_end } in
  {
    RP.code;
    funcs =
      Array.of_list
        (fdesc "main" 0 0 (back + 2)
        :: List.map
             (fun (name, nargs, entry) ->
               fdesc name nargs entry (Array.length code))
             funcs);
    host = [||];
    ext_arity = [||];
    ext_names = [||];
    cells = Array.make 1024 0;
    segment = { RP.base = 0; size = 1024 };
    protection = RP.Unprotected;
  }

(* The bounded register verifier holds a loop to the same entry rule as
   the stack verifier: no conditional back edge, no way into the loop
   past the initialiser, and no way into the step window. *)
let test_register_windows_rejected () =
  let module Isa = Graft_regvm.Isa in
  let verify p = Graft_regvm.Verify.verify ~bounded:true p in
  (match verify (register_loop ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "genuine register loop rejected: %s" m);
  let rejects what fragment p =
    match verify p with
    | Ok () -> Alcotest.failf "register verifier accepted %s" what
    | Error m ->
        if not (contains m fragment) then
          Alcotest.failf "%s: error %S does not mention %S" what m fragment
  in
  (* [h] starts at the back edge, so its argument is the counter:
     h(-10_000_000) would run ten million trips past the bound of 4. *)
  rejects "a function starting at the back edge" "starts inside a certified loop"
    (register_loop ~funcs:[ ("h", 1, 8) ] ());
  rejects "a conditional backward branch" "conditional backward branch"
    (let p = register_loop () in
     let code = Array.copy p.Graft_regvm.Program.code in
     code.(8) <- Isa.Brnz (4, 2);
     { p with Graft_regvm.Program.code });
  rejects "an outside jump into the loop" "enters a certified loop at 3"
    (register_loop ~extra:[ Isa.Br 3; Isa.Ret Isa.reg_zero ]
       ~funcs:[ ("k", 0, 10) ] ());
  rejects "a body jump into the step window" "step window at 7"
    (register_loop ~body:[ Isa.Br 7 ] ())

(* Out-of-range map keys: the kernel object checks every key, and
   faults on array maps — on every tier, through the helper call. *)
let test_map_oob_faults () =
  let src =
    "extern fn map_lookup(int, int) : int;\n\
     fn mapoob(k : int) : int { return map_lookup(0, k); }"
  in
  List.iter
    (fun tech ->
      let maps = [| Map.create_array ~name:"m8" 8 |] in
      let env = Runners.gel_env ~hosts:(Runners.map_hosts maps) tech src [] in
      let entry = by_name tech env in
      check_int
        (Technology.name tech ^ ": in-range key reads")
        0
        (entry ~entry:"mapoob" ~args:[| 5 |]);
      match entry ~entry:"mapoob" ~args:[| 99 |] with
      | (_ : int) ->
          Alcotest.failf "%s: out-of-range map key did not fault"
            (Technology.name tech)
      | exception Graft_mem.Fault.Fault f ->
          (* The map object's own fault reaches the caller intact. *)
          Alcotest.(check string)
            (Technology.name tech ^ ": fault is the map's bounds check")
            "oob-read" (Graft_mem.Fault.class_name f);
          check_int
            (Technology.name tech ^ ": fault names the bad key")
            99
            (match f with
            | Graft_mem.Fault.Out_of_bounds { addr; _ } -> addr
            | _ -> -1))
    hotset_techs;
  (* The filter VM's runtime fallback rejects the packet instead: a
     dynamic key the verifier cannot range-check is checked by the map
     object per packet. *)
  let m = Map.create_array ~name:"m8" 8 in
  let probe key = [| K.Pfvm.Ldx key; K.Pfvm.Mld 0; K.Pfvm.Add 1; K.Pfvm.Reta |] in
  (match K.Pfvm.verify ~nmaps:1 (probe 5) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "pfvm rejected an in-range map probe: %s" m);
  check_int "pfvm in-range key reads" 1
    (K.Pfvm.run ~maps:[| m |] (probe 5) (packet ()));
  check_int "pfvm out-of-range key rejects the packet" 0
    (K.Pfvm.run ~maps:[| m |] (probe 99) (packet ()))

(* ------------------------------------------------------------------ *)
(* The filter VM's own verifier: diagnostics and budgets.              *)
(* ------------------------------------------------------------------ *)

let test_pfvm_verifier () =
  let reject what prog sub =
    match K.Pfvm.verify ~nmaps:2 prog with
    | Ok () -> Alcotest.failf "pfvm verifier accepted %s" what
    | Error msg ->
        let has needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        if not (has sub msg) then
          Alcotest.failf "pfvm rejection of %s lacks its disassembly: %s" what
            msg
  in
  (match K.Pfvm.verify ~nmaps:2 (K.Pfvm.demux_conn ~protocol ~marker) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "demux_conn failed verification: %s" m);
  (* The stateful demux needs its maps: with none attached, the map
     opcodes are out of range. *)
  reject "a map opcode with no attached map"
    [| K.Pfvm.Ldx 0; K.Pfvm.Mld 7; K.Pfvm.Reta |]
    "mld map7[x]";
  reject "a forward jloop" [| K.Pfvm.Jloop (1, 4); K.Pfvm.Ret 1 |] "jloop";
  reject "a runaway loop budget"
    [| K.Pfvm.Ldlen; K.Pfvm.Jloop (-1, K.Pfvm.max_budget); K.Pfvm.Ret 1 |]
    "jloop";
  reject "a jump past the end" [| K.Pfvm.Jeq (0, 40, 0); K.Pfvm.Ret 1 |] "jeq";
  reject "an oversized shift"
    [| K.Pfvm.Ldlen; K.Pfvm.Lsh 63; K.Pfvm.Reta |]
    "lsh #63";
  reject "a negative shift"
    [| K.Pfvm.Ldlen; K.Pfvm.Rsh (-1); K.Pfvm.Reta |]
    "rsh #-1"

(* Shift counts are honoured exactly, odd ones included — the verifier
   bounds them to [0, 62] at load, so the runtime never masks or
   quietly rewrites a count. *)
let test_pfvm_shifts () =
  let run prog =
    (match K.Pfvm.verify prog with
    | Ok () -> ()
    | Error m -> Alcotest.failf "pfvm rejected a legal shift: %s" m);
    K.Pfvm.run prog (packet ())
  in
  check_int "odd left shift" 8
    (run [| K.Pfvm.Ldx 1; K.Pfvm.Txa; K.Pfvm.Lsh 3; K.Pfvm.Reta |]);
  check_int "odd right shift" 2
    (run [| K.Pfvm.Ldx 16; K.Pfvm.Txa; K.Pfvm.Rsh 3; K.Pfvm.Reta |]);
  check_int "shift by one" 10
    (run [| K.Pfvm.Ldx 5; K.Pfvm.Txa; K.Pfvm.Lsh 1; K.Pfvm.Reta |])

(* ------------------------------------------------------------------ *)
(* Fuel parity: the certified demux cuts at the same instruction on    *)
(* the statically verified stack tier and the JIT, at every budget.    *)
(* ------------------------------------------------------------------ *)

let test_demux_fuel_parity () =
  let src =
    Graft_grafts.Gel_sources.demux ~window_cells:Runners.pkt_window_cells
      ~protocol ~marker
  in
  let make_tier load run =
    let maps, env = demux_env ~src Technology.Safe_lang_static in
    let prog = load ~bounded:true env.Runners.image in
    let cells = Graft_mem.Memory.cells env.Runners.image.Graft_gel.Link.mem in
    let w = Runners.window env "pkt" in
    let pkt = packet ~src_port:300 ~mark:11 () in
    Bytes.iteri
      (fun i c -> cells.(w.Graft_mem.Memory.base + i) <- Char.code c)
      pkt.K.Netpkt.data;
    let len = K.Netpkt.length pkt in
    fun fuel ->
      Map.clear maps.(0);
      let outcome =
        match run env.Runners.image prog ~entry:"demux" ~args:[| len |] ~fuel with
        | Ok v -> Printf.sprintf "ok:%d" v
        | Error (`Fault f) -> Graft_mem.Fault.class_name f
      in
      (outcome, Map.entries maps.(0))
  in
  let static_at =
    make_tier
      (fun ~bounded img -> Graft_stackvm.Stackvm.load_static_exn ~bounded img)
      Gelrun.vm
  in
  let jit_at =
    make_tier
      (fun ~bounded img -> Graft_jit.Jit.load_exn ~bounded img)
      Gelrun.jit
  in
  (* Sweep every budget until three past the first terminal outcome:
     at each cut point both tiers must agree on outcome *and* on what
     made it into the connection map before fuel ran out. *)
  let rec sweep fuel remaining =
    if remaining = 0 then ()
    else if fuel > 4000 then
      Alcotest.failf "demux still exhausting fuel at %d" fuel
    else begin
      let (so, sm) = static_at fuel and (jo, jm) = jit_at fuel in
      if so <> jo then
        Alcotest.failf "fuel %d: static %s, jit %s" fuel so jo;
      if sm <> jm then
        Alcotest.failf "fuel %d: tiers cut with different map state" fuel;
      let remaining =
        if so <> "fuel" then remaining - 1
        else remaining
      in
      sweep (fuel + 1) remaining
    end
  in
  sweep 1 3;
  (* And the terminal outcome is the right classification. *)
  let (o, m) = static_at 4000 in
  Alcotest.(check string) "terminal outcome" "ok:11265" o;
  Alcotest.(check (list (pair int int)))
    "terminal map state"
    [ (300 land 63, 1) ]
    m

(* ------------------------------------------------------------------ *)
(* Trip counts: the closed form against an independent simulation.     *)
(* ------------------------------------------------------------------ *)

let simulate ~init ~limit ~cmp ~step ~cap =
  let continues v =
    match cmp with
    | Ir.Lt -> v < limit
    | Ir.Le -> v <= limit
    | Ir.Gt -> v > limit
    | Ir.Ge -> v >= limit
    | Ir.Eq -> v = limit
    | Ir.Ne -> v <> limit
  in
  let dir = match cmp with Ir.Gt | Ir.Ge -> -step | _ -> step in
  let rec go v n = if n > cap || not (continues v) then n else go (v + dir) (n + 1) in
  go init 0

let prop_trips_sound =
  QCheck.Test.make ~name:"certified trip counts match simulation" ~count:2000
    QCheck.(
      quad (int_range (-2000) 2000) (int_range (-2000) 2000)
        (int_range (-2) 10) (int_range 0 5))
    (fun (init, limit, step, cmpi) ->
      let cmp = [| Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge; Ir.Eq; Ir.Ne |].(cmpi) in
      match Lb.trips ~init ~limit ~cmp ~step with
      | None -> true (* underivable: the loader rejects, nothing to hold *)
      | Some n ->
          n <= Lb.max_trip
          && simulate ~init ~limit ~cmp ~step ~cap:(n + 1) = n)

let prop_demux_scan_bounded =
  (* End to end: whatever bytes arrive, the certified demux terminates
     within its certificate on an unfueled tier — the interpreter here,
     with the loop-bound gate doing the admission. *)
  let d = Runners.demux Technology.Ast_interp ~protocol ~marker in
  QCheck.Test.make ~name:"certified demux terminates on arbitrary packets"
    ~count:300
    QCheck.(pair (int_range 0 65535) (list_of_size Gen.(0 -- 64) (int_range 0 255)))
    (fun (port, payload) ->
      let payload = Bytes.of_string (String.init (List.length payload)
        (fun i -> Char.chr (List.nth payload i))) in
      let pkt = K.Netpkt.make ~protocol ~src_port:port ~payload () in
      let v = d.Runners.demux pkt in
      (* scan <= 16 always: the certificate caps the probe loop. *)
      v >= 0 && v / 1024 <= 16)

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_gate"
    [
      ( "maps",
        [
          Alcotest.test_case "array map" `Quick test_array_map;
          Alcotest.test_case "hash map" `Quick test_hash_map;
          Alcotest.test_case "lru map" `Quick test_lru_map;
          Alcotest.test_case "helper dispatchers" `Quick test_map_hosts;
          Alcotest.test_case "touch allocation" `Quick test_map_touch_allocation;
        ]
        @ qc [ prop_map_model ] );
      ( "demux",
        [
          Alcotest.test_case "reference semantics" `Quick test_demux_reference;
          Alcotest.test_case "tier parity" `Quick test_demux_parity;
          Alcotest.test_case "hotset parity" `Quick test_hotset_parity;
          Alcotest.test_case "fuel parity" `Quick test_demux_fuel_parity;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "unbounded loop" `Quick test_unbounded_rejected;
          Alcotest.test_case "helper mismatch" `Quick
            test_helper_mismatch_rejected;
          Alcotest.test_case "tampered loop windows" `Quick
            test_tampered_windows_rejected;
          Alcotest.test_case "register loop windows" `Quick
            test_register_windows_rejected;
          Alcotest.test_case "map key out of range" `Quick test_map_oob_faults;
          Alcotest.test_case "pfvm verifier" `Quick test_pfvm_verifier;
          Alcotest.test_case "pfvm shift semantics" `Quick test_pfvm_shifts;
        ] );
      ("soundness", qc [ prop_trips_sound; prop_demux_scan_bounded ]);
    ]
