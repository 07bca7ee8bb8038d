(* The [hooks] workload: one caller invoking a synchronous hook, the
   way a kernel does, in a closed loop.

   Every input goes to each tier's instance of the same graft, in
   rotation order, and each [Manager.invoke] is timed on its own. The
   instances come from [Serve.make_tenant] (tenants 0-5 hold one tier
   each), so they are shaped like serve's; inputs follow serve's class
   mix without the stream class, whose MD5 bodies would swamp the
   per-call fixed cost this workload exists to expose. *)

open Graft_core
module Serve = Graft_slo.Serve
module Fi = Graft_faultinject.Faultinject

let demux = Prof.demux
let hotset = Prof.hotset
let evict = Prof.evict

(* One round's inputs. [arg] is the packet index (demux), the L3 index
   (hotset) or the page (evict); [arg2] is the child index (hotset) or
   the refresh to install before the probe, -1 for none (evict). *)
type round = {
  cls : int array;
  arg : int array;
  arg2 : int array;
  hots : int array array;  (** hot lists, in refresh order *)
}

type t = {
  tenants : Serve.tenant array;  (** one per tier, in tier order *)
  plan : Fi.t;  (** no arms: the check runs but never fires *)
  packets : Graft_kernel.Netpkt.t array;
  rng : Graft_util.Prng.t;
  mutable evicts : int;
}

let ntiers = Array.length Serve.tech_rotation

let tenant_cfg seed = { Serve.default with Serve.seed }

(* Build the six tiers' grafts, maps and input pools. [prof] charges
   each tenant to its tier's load layer. *)
let make_tenants ?prof seed =
  let cfg = tenant_cfg seed in
  let mgr = Manager.create () in
  Array.init ntiers (fun i ->
      Prof.span prof (Prof.load i) (fun () -> Serve.make_tenant mgr cfg i))

let create ?prof seed =
  let tenants = make_tenants ?prof seed in
  let rng = Graft_util.Prng.create (Int64.of_int (seed + 0x600d)) in
  {
    tenants;
    plan = Fi.make [];
    packets =
      Prof.span prof Prof.gen (fun () ->
          Graft_kernel.Netpkt.random_sized_traffic (Graft_util.Prng.split rng)
            ~count:4096 ~protocol:Graft_kernel.Netpkt.proto_udp
            ~port:(Serve.graft_port 0));
    rng;
    evicts = 0;
  }

(* Serve's class mix (45 demux : 25 hotset : 15 evict) without streams. *)
let gen h n =
  let rng = h.rng in
  let btree = h.tenants.(0).Serve.btree in
  let hots = ref [] and nhots = ref 0 in
  let cls = Array.make n 0 and arg = Array.make n 0 and arg2 = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = Graft_util.Prng.int rng 85 in
    if r < 45 then begin
      cls.(i) <- demux;
      arg.(i) <- Graft_util.Prng.int rng (Array.length h.packets)
    end
    else if r < 70 then begin
      cls.(i) <- hotset;
      arg.(i) <- Graft_util.Prng.int rng 64;
      arg2.(i) <- Graft_util.Prng.int rng 32
    end
    else begin
      cls.(i) <- evict;
      h.evicts <- h.evicts + 1;
      if h.evicts mod Serve.evict_refresh_every = 1 then begin
        hots :=
          Array.init Serve.hot_pages_per_refresh (fun _ ->
              Graft_util.Prng.int rng btree.Graft_workload.Tpcb.npages)
          :: !hots;
        arg2.(i) <- !nhots;
        incr nhots
      end
      else arg2.(i) <- -1;
      arg.(i) <- Graft_util.Prng.int rng btree.Graft_workload.Tpcb.npages
    end
  done;
  { cls; arg; arg2; hots = Array.of_list (List.rev !hots) }

type stats = {
  mutable calls : int;
  mutable good : int;  (** invocations the graft answered *)
  mutable failed : int;  (** [None] answers plus tier disagreements *)
  mutable digest : int;  (** order-sensitive hash of every answer *)
}

let stats () = { calls = 0; good = 0; failed = 0; digest = 0 }

(* Run one round, writing each call's wall time to [lat] (length at
   least [6 * inputs]). With [prof], every call is also spanned. *)
let run_round ?prof h r st lat =
  let n = Array.length r.cls in
  let btree = h.tenants.(0).Serve.btree in
  let k = ref 0 and first = ref 0 in
  let account s = function
    | None -> st.failed <- st.failed + 1
    | Some v ->
        st.good <- st.good + 1;
        if s = 0 then first := v else if v <> !first then st.failed <- st.failed + 1;
        st.digest <- (st.digest * 31) + v
  in
  for i = 0 to n - 1 do
    let cls = r.cls.(i) and a = r.arg.(i) and b = r.arg2.(i) in
    if cls = evict && b >= 0 then begin
      let hot = r.hots.(b) in
      Array.iter
        (fun t ->
          Prof.span prof Prof.refresh (fun () ->
              t.Serve.evict_r.Runners.refresh ~hot ~lru:[||]))
        h.tenants
    end;
    let path =
      if cls = hotset then
        Graft_workload.Tpcb.lookup_path btree ~l3_index:a ~child_index:b
      else [||]
    in
    for s = 0 to ntiers - 1 do
      let t = h.tenants.(s) in
      let g, thunk =
        if cls = demux then
          (t.Serve.demux_g, fun () -> t.Serve.demux_r.Runners.demux h.packets.(a))
        else if cls = hotset then
          ( t.Serve.hotset_g,
            fun () ->
              Array.fold_left (fun _ page -> t.Serve.hotset_r.Runners.touch page) 0 path
          )
        else
          ( t.Serve.evict_g,
            fun () -> if t.Serve.evict_r.Runners.contains a then 1 else 0 )
      in
      let t0 = Prof.now_ns () in
      let result =
        match prof with
        | None ->
            Manager.invoke g (fun () ->
                Fi.check h.plan g.Manager.g_name;
                thunk ())
        | Some p ->
            Replay.guarded p Prof.invoke (fun () ->
                Manager.invoke g (fun () ->
                    Replay.guarded p Prof.check (fun () ->
                        Fi.check h.plan g.Manager.g_name);
                    let f0 = Prof.fuel_now () in
                    let v = Replay.guarded p (Prof.exec ~tier:s ~cls) thunk in
                    p.Prof.fuel.(s) <- p.Prof.fuel.(s) + Prof.fuel_now () - f0;
                    v))
      in
      lat.(!k) <- Prof.now_ns () - t0;
      incr k;
      st.calls <- st.calls + 1;
      account s result
    done
  done;
  !k
