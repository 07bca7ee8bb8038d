(* The traced run's span recorder.

   A span is opened and closed around each public call the workload
   makes. Spans nest (an invoke span holds the fault check and the
   graft body), so each layer is charged its self time: the span's
   duration minus what its child spans cover. Minor-heap words are
   charged the same way, from the calling domain's own counter.

   One recorder per domain; nothing here is shared or locked. Spans
   are aggregated as they close rather than kept, so a recorder's size
   does not grow with the run. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The six tiers serve rotates through, in rotation order. *)
let tiers = Array.map Graft_core.Technology.name Graft_slo.Serve.tech_rotation
let ntiers = Array.length tiers

let tier_index tech =
  let name = Graft_core.Technology.name tech in
  let rec find i =
    if i = ntiers then invalid_arg ("Prof.tier_index: " ^ name)
    else if tiers.(i) = name then i
    else find (i + 1)
  in
  find 0

let classes = [| "demux"; "hotset"; "stream"; "evict" |]
let nclasses = Array.length classes
let demux = 0
let hotset = 1
let stream = 2
let evict = 3

(* Layer ids. Loading and execution are split by tier (and execution
   also by op class) so the report can sum them either way. *)
let load tier = tier
let exec ~tier ~cls = ntiers + (tier * nclasses) + cls
let gen = ntiers + (ntiers * nclasses)
let refresh = gen + 1
let invoke = gen + 2
let check = gen + 3
let account = gen + 4
let nlayers = gen + 5

type t = {
  self_ns : int array;
  self_words : float array;
  calls : int array;
  fuel : int array;  (** VM fuel burnt inside exec spans, by tier *)
  st_layer : int array;
  st_t0 : int array;
  st_w0 : float array;
  st_child_ns : int array;
  st_child_w : float array;
  mutable depth : int;
}

let max_depth = 8

let create () =
  {
    self_ns = Array.make nlayers 0;
    self_words = Array.make nlayers 0.0;
    calls = Array.make nlayers 0;
    fuel = Array.make ntiers 0;
    st_layer = Array.make max_depth 0;
    st_t0 = Array.make max_depth 0;
    st_w0 = Array.make max_depth 0.0;
    st_child_ns = Array.make max_depth 0;
    st_child_w = Array.make max_depth 0.0;
    depth = 0;
  }

let enter p layer =
  let d = p.depth in
  p.depth <- d + 1;
  p.st_layer.(d) <- layer;
  p.st_child_ns.(d) <- 0;
  p.st_child_w.(d) <- 0.0;
  p.st_w0.(d) <- Gc.minor_words ();
  p.st_t0.(d) <- now_ns ()

let leave p =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = p.depth - 1 in
  p.depth <- d;
  let layer = p.st_layer.(d) in
  let dur = t1 - p.st_t0.(d) in
  let words = w1 -. p.st_w0.(d) in
  p.self_ns.(layer) <- p.self_ns.(layer) + dur - p.st_child_ns.(d);
  p.self_words.(layer) <- p.self_words.(layer) +. words -. p.st_child_w.(d);
  p.calls.(layer) <- p.calls.(layer) + 1;
  if d > 0 then begin
    p.st_child_ns.(d - 1) <- p.st_child_ns.(d - 1) + dur;
    p.st_child_w.(d - 1) <- p.st_child_w.(d - 1) +. words
  end

(* [span p layer f] runs [f] inside a span; [p = None] runs it bare. *)
let span p layer f =
  match p with
  | None -> f ()
  | Some p ->
      enter p layer;
      let r = f () in
      leave p;
      r

(* Fuel counters of the four VM engines, read in the calling domain's
   registry (the AST interpreter keeps none). *)
let fuel_cells =
  Array.map
    (fun tier -> Graft_metrics.domain_counter "graftkit_vm_fuel" [ ("tier", tier) ])
    [| "interp"; "opt"; "jit"; "regvm" |]

let fuel_now () =
  Array.fold_left
    (fun acc c -> acc + Graft_metrics.counter_value (c ()))
    0 fuel_cells

(* Graft-map operation counters (every serve runner names its maps
   "conn" or "hotset"), in the calling domain's registry. *)
let map_cells op =
  List.map
    (fun map -> Graft_metrics.counter "graftkit_map_ops" [ ("map", map); ("op", op) ])
    [ "conn"; "hotset" ]

let map_ops op =
  List.fold_left (fun acc c -> acc + Graft_metrics.counter_value c) 0 (map_cells op)

(* Merge per-domain recorders (all closed) into one. *)
let merge ps =
  let m = create () in
  List.iter
    (fun p ->
      for l = 0 to nlayers - 1 do
        m.self_ns.(l) <- m.self_ns.(l) + p.self_ns.(l);
        m.self_words.(l) <- m.self_words.(l) +. p.self_words.(l);
        m.calls.(l) <- m.calls.(l) + p.calls.(l)
      done;
      for t = 0 to ntiers - 1 do
        m.fuel.(t) <- m.fuel.(t) + p.fuel.(t)
      done)
    ps;
  m

let secs ns = float_of_int ns *. 1e-9
let sum_layers p ls = List.fold_left (fun acc l -> acc + p.self_ns.(l)) 0 ls
let all_layers = List.init nlayers (fun l -> l)
let tier_exec tier = List.init nclasses (fun cls -> exec ~tier ~cls)
let class_exec cls = List.init ntiers (fun tier -> exec ~tier ~cls)
