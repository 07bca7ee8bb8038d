(* The bytecode-tier benchmark behind BENCH_stackvm.json: the
   interpreted, optimized and JIT tiers over each graft's core
   operation, timed by the shared harness (interleaved rounds, GC
   fences, CI-driven repetition). {!doc} turns a run into the twelve
   graft/tier rows {!Gate} judges. *)

open Graft_util
open Graft_core

type row = {
  graft : string;
  interp : Graft_stats.Robust.estimate;  (** ns per op *)
  opt : Graft_stats.Robust.estimate;  (** ns per op *)
  jit : Graft_stats.Robust.estimate;  (** ns per op *)
  rounds : int;
}

(* ------------------------------------------------------------------ *)
(* The suite: each graft's core op under both bytecode tiers.          *)
(* ------------------------------------------------------------------ *)

let hot_pages = Array.init 64 (fun i -> 3 * i)

let evict_op tech =
  let runner =
    Runners.evict ~rng:(Prng.create 0x5EEDL) tech ~capacity_nodes:128 ()
  in
  runner.Runners.refresh ~hot:hot_pages ~lru:[||];
  fun () -> ignore (runner.Runners.contains 99_999)

let md5_op tech =
  let size = 65536 in
  let data = Prng.bytes (Prng.create 0x3D5L) size in
  let runner = Runners.md5 tech ~capacity:size in
  runner.Runners.load data;
  fun () -> runner.Runners.compute size

let logdisk_op tech =
  let nblocks = 4096 in
  let policy = Runners.logdisk_policy tech ~nblocks in
  let next = ref 0 in
  fun () ->
    next := (!next + 1677) land (nblocks - 1);
    ignore (policy.Graft_kernel.Logdisk.map_write !next)

let pkt_op tech =
  let traffic =
    Graft_kernel.Netpkt.random_traffic (Prng.create 0xF17L) ~count:256
  in
  let accepts =
    Runners.packet_filter tech ~protocol:Graft_kernel.Netpkt.proto_udp ~port:53
  in
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land 255;
    ignore (accepts traffic.(!i))

let suite =
  [
    ("evict_contains", evict_op); ("md5_64k", md5_op);
    ("logdisk_map_write", logdisk_op); ("packet_filter", pkt_op);
  ]

(* Thresholds below which a statistically real median move is still
   tolerated: tight for the long-running MD5 op (stable), loose for
   the nanosecond-scale ops where codegen luck moves medians. *)
let default_threshold graft =
  match graft with "md5_64k" -> 0.15 | _ -> 0.30

let ns e =
  Graft_stats.Robust.
    { e with
      mean = e.mean *. 1e9;
      stddev = e.stddev *. 1e9;
      median = e.median *. 1e9;
      mad = e.mad *. 1e9;
      ci95_lo = e.ci95_lo *. 1e9;
      ci95_hi = e.ci95_hi *. 1e9;
    }

let run_suite ?(config = Graft_stats.Harness.quick) () =
  List.map
    (fun (name, mk) ->
      let thunks =
        [|
          Graft_stats.Harness.stage (mk Technology.Bytecode_vm);
          Graft_stats.Harness.stage (mk Technology.Bytecode_opt);
          Graft_stats.Harness.stage (mk Technology.Jit);
        |]
      in
      let ms = Graft_stats.Harness.interleaved ~config thunks in
      let interp = ms.(0) and opt = ms.(1) and jit = ms.(2) in
      {
        graft = name;
        interp = ns interp.Graft_stats.Harness.est;
        opt = ns opt.Graft_stats.Harness.est;
        jit = ns jit.Graft_stats.Harness.est;
        rounds = Array.length interp.Graft_stats.Harness.samples;
      })
    suite

let doc rows =
  Gate.make ~suite:"stackvm" ~config:[]
    (List.concat_map
       (fun r ->
         List.map
           (fun (tier, e) ->
             Gate.of_estimate ~key:(r.graft ^ "/" ^ tier) ~higher_better:false
               ~threshold:(default_threshold r.graft) e)
           [ ("interp", r.interp); ("opt", r.opt); ("jit", r.jit) ])
       rows)
