(** Graft maps: shared kernel/graft state, eBPF-style.

    A map is a first-class kernel object holding int keys and int
    values. Three kinds mirror the eBPF staples:

    - [Array_map]: a dense [0, max_entries) table. Out-of-range keys
      fault ({!Graft_mem.Fault.Out_of_bounds}), which makes array maps
      behave exactly like a graft-private array — and lets the static
      analyser elide the bounds check when the key's interval is
      provably in range (PR 2's proof-carrying elision, extended to
      map opcodes by Graftgate).
    - [Hash_map]: sparse, capacity-bounded. Lookups miss to 0; an
      update that would grow past [max_entries] is refused (returns 0)
      rather than faulting, matching eBPF's [E2BIG] behaviour.
    - [Lru_map]: a hash map that evicts the least-recently-used entry
      instead of refusing when full. Lookup hits and updates both
      refresh recency.

    Maps are reachable from every tier through one of two doors: the
    typed helper table ([map_lookup]/[map_update]/...) dispatched as
    extern host calls (AST interpreter, register VM), or the dedicated
    stack-VM opcodes [Mlookup]/[Mupdate] and their check-elided [_u]
    twins (bytecode tiers, JIT). Both doors land here, so semantics —
    including fault behaviour — are identical by construction. *)

module Fault = Graft_mem.Fault

type kind = Array_map | Hash_map | Lru_map

let kind_name = function
  | Array_map -> "array"
  | Hash_map -> "hash"
  | Lru_map -> "lru"

type t = {
  name : string;
  kind : kind;
  max_entries : int;
  arr : int array;  (** backing store, [Array_map] only (else [||]) *)
  tbl : (int, int) Hashtbl.t;  (** entries, hash kinds only *)
  recency : (int, int) Hashtbl.t;  (** key -> last-touch tick, LRU only *)
  mutable tick : int;
  m_lookups : Graft_metrics.counter;
  m_updates : Graft_metrics.counter;
  m_evictions : Graft_metrics.counter;
}

let make name kind max_entries =
  if max_entries < 1 then
    invalid_arg (Printf.sprintf "Graftmap.%s: max_entries %d < 1" name
                   max_entries);
  let labels op = [ ("map", name); ("op", op) ] in
  {
    name;
    kind;
    max_entries;
    arr = (if kind = Array_map then Array.make max_entries 0 else [||]);
    tbl = Hashtbl.create 16;
    recency = Hashtbl.create 16;
    tick = 0;
    m_lookups =
      Graft_metrics.counter "graftkit_map_ops" (labels "lookup")
        ~help:"Graft map operations by map and op";
    m_updates = Graft_metrics.counter "graftkit_map_ops" (labels "update");
    m_evictions = Graft_metrics.counter "graftkit_map_ops" (labels "evict");
  }

let create_array ~name max_entries = make name Array_map max_entries
let create_hash ~name max_entries = make name Hash_map max_entries
let create_lru ~name max_entries = make name Lru_map max_entries
let name t = t.name
let kind t = t.kind
let max_entries t = t.max_entries
let is_array t = t.kind = Array_map

(** [Some backing] for array maps: the dense store the check-elided
    fast path indexes directly once the verifier has admitted the
    key's interval. *)
let backing t = if t.kind = Array_map then Some t.arr else None

let in_range t k = k >= 0 && k < t.max_entries

let oob access k =
  Fault.raise_fault (Fault.Out_of_bounds { access; addr = k })

let touch t k =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.recency k t.tick

(** Evict the least-recently-used key. Ticks are unique (strictly
    increasing), so the argmin is unambiguous and iteration order of
    the table cannot leak into behaviour. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k tick acc ->
        match acc with
        | Some (_, best) when best <= tick -> acc
        | _ -> Some (k, tick))
      t.recency None
  in
  match victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      Hashtbl.remove t.recency k;
      Graft_metrics.inc t.m_evictions

(* Graftscope span names for the hot ops, preallocated: the tracer
   stores the pointer. On the fault paths the span is abandoned (the
   token is never closed) — the op-scoped retention in Graftlens still
   attributes the fault to the op via the Manager span. *)
let n_lookup = "map:lookup"
and n_update = "map:update"
and n_delete = "map:delete"

let lookup t k =
  Graft_metrics.inc t.m_lookups;
  let tok = Graft_trace.Trace.hot_begin () in
  let v =
    match t.kind with
    | Array_map -> if in_range t k then t.arr.(k) else oob Fault.Read k
    | Hash_map -> (
        match Hashtbl.find_opt t.tbl k with Some v -> v | None -> 0)
    | Lru_map -> (
        match Hashtbl.find_opt t.tbl k with
        | Some v ->
            touch t k;
            v
        | None -> 0)
  in
  Graft_trace.Trace.span_end ~arg:k Graft_trace.Trace.Map n_lookup tok;
  v

(** [update t k v] stores and returns 1 on success. Array maps fault
    on out-of-range keys; hash maps return 0 when full and the key is
    absent; LRU maps evict to make room. *)
let update t k v =
  Graft_metrics.inc t.m_updates;
  let tok = Graft_trace.Trace.hot_begin () in
  let r =
    match t.kind with
    | Array_map ->
        if in_range t k then (
          t.arr.(k) <- v;
          1)
        else oob Fault.Write k
    | Hash_map ->
        if Hashtbl.mem t.tbl k then (
          Hashtbl.replace t.tbl k v;
          1)
        else if Hashtbl.length t.tbl >= t.max_entries then 0
        else (
          Hashtbl.replace t.tbl k v;
          1)
    | Lru_map ->
        if not (Hashtbl.mem t.tbl k) && Hashtbl.length t.tbl >= t.max_entries
        then evict_lru t;
        Hashtbl.replace t.tbl k v;
        touch t k;
        1
  in
  Graft_trace.Trace.span_end ~arg:k Graft_trace.Trace.Map n_update tok;
  r

(** [delete t k] returns 1 if the key was present (array maps: in
    range — the slot is zeroed), 0 otherwise. Array maps fault on
    out-of-range keys, like any other array write. *)
let delete t k =
  let tok = Graft_trace.Trace.hot_begin () in
  let r =
    match t.kind with
    | Array_map ->
        if in_range t k then (
          t.arr.(k) <- 0;
          1)
        else oob Fault.Write k
    | Hash_map | Lru_map ->
        if Hashtbl.mem t.tbl k then (
          Hashtbl.remove t.tbl k;
          Hashtbl.remove t.recency k;
          1)
        else 0
  in
  Graft_trace.Trace.span_end ~arg:k Graft_trace.Trace.Map n_delete tok;
  r

(** Pure membership query: never faults (it is the guard a graft would
    use *before* an access, so it must be safe on any key). *)
let contains t k =
  match t.kind with
  | Array_map -> if in_range t k then 1 else 0
  | Hash_map | Lru_map -> if Hashtbl.mem t.tbl k then 1 else 0

(** Occupancy: population for hash kinds, capacity for array maps
    (every array slot always exists). *)
let size t =
  match t.kind with
  | Array_map -> t.max_entries
  | Hash_map | Lru_map -> Hashtbl.length t.tbl

let clear t =
  Array.fill t.arr 0 (Array.length t.arr) 0;
  Hashtbl.reset t.tbl;
  Hashtbl.reset t.recency;
  t.tick <- 0

(** Unchecked fast path for verified map opcodes ([Mlookup_u] /
    [Mupdate_u]). Only legal on array maps whose key interval the
    verifier has re-derived as within bounds; calling these without a
    certificate is memory-unsafe by design, exactly like
    [Aload_u]. *)
let unsafe_get t k = Array.unsafe_get t.arr k

let unsafe_set t k v = Array.unsafe_set t.arr k v

(** Snapshot of the map contents as a sorted (key, value) list — the
    differential fuzzer compares these across engines. *)
let entries t =
  match t.kind with
  | Array_map ->
      Array.to_list (Array.mapi (fun k v -> (k, v)) t.arr)
      |> List.filter (fun (_, v) -> v <> 0)
  | Hash_map | Lru_map ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
      |> List.sort compare

(** Host-call dispatchers for the typed helper table. The first
    argument of every helper is the map id (an index into [maps]);
    the dispatcher validates it and hands off to the map object, so
    the AST interpreter and the register VM get byte-identical
    semantics to the stack-VM map opcodes. The returned pairs plug
    straight into GEL's linker as [(name, fn)] externs. *)
let hosts (maps : t array) : (string * (int array -> int)) list =
  let map_of id =
    if id < 0 || id >= Array.length maps then
      Fault.raise_fault
        (Fault.Illegal_instruction (Printf.sprintf "map id %d out of range" id))
    else maps.(id)
  in
  [
    ("map_lookup", fun argv -> lookup (map_of argv.(0)) argv.(1));
    ("map_update", fun argv -> update (map_of argv.(0)) argv.(1) argv.(2));
    ("map_delete", fun argv -> delete (map_of argv.(0)) argv.(1));
    ("map_contains", fun argv -> contains (map_of argv.(0)) argv.(1));
    ("map_size", fun argv -> size (map_of argv.(0)));
  ]
