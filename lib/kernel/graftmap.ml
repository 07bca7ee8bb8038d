(** Graft maps: shared kernel/graft state, eBPF-style.

    A map is a first-class kernel object holding int keys and int
    values. Three kinds mirror the eBPF staples:

    - [Array_map]: a dense [0, max_entries) table. Out-of-range keys
      fault ({!Graft_mem.Fault.Out_of_bounds}), which makes array maps
      behave exactly like a graft-private array.
    - [Hash_map]: sparse, capacity-bounded. Lookups miss to 0; an
      update that would grow past [max_entries] is refused (returns 0)
      rather than faulting, matching eBPF's [E2BIG] behaviour.
    - [Lru_map]: a hash map that evicts the least-recently-used entry
      instead of refusing when full. Lookup hits and updates both
      refresh recency.

    Every tier reaches a map through one door: the typed helper table
    ([map_lookup]/[map_update]/...), dispatched as extern host calls
    ({!hosts}) that read their arguments in the engine's own storage.
    The map object checks every key, so semantics — including fault
    behaviour — are the same on every tier. *)

module Fault = Graft_mem.Fault

type kind = Array_map | Hash_map | Lru_map

let kind_name = function
  | Array_map -> "array"
  | Hash_map -> "hash"
  | Lru_map -> "lru"

(* Hash and LRU maps are preallocated, as eBPF preallocates hash-map
   elements by default: [max_entries] slots whose keys and values live
   in int arrays. A key finds its slot through power-of-two bucket
   heads and a per-slot chain; a free slot is threaded through the same
   chain, so no operation allocates. Keys are small ints (pages, ports),
   so a key's low bits pick its bucket, and a chain holds at most
   [max_entries] slots. [lru] is the kernel's intrusive {!Lru} list
   over the used slots: an LRU map moves a slot to the MRU end on every
   touch and evicts from the LRU end, both O(1); a hash map never
   touches, so there the list only counts. *)
type t = {
  name : string;
  kind : kind;
  max_entries : int;
  arr : int array;  (** backing store, [Array_map] only (else [||]) *)
  keys : int array;  (** slot -> key, hash kinds only (else [||]) *)
  vals : int array;  (** slot -> value, hash kinds only (else [||]) *)
  heads : int array;  (** bucket -> first slot of its chain, or -1 *)
  chain : int array;  (** slot -> next slot in its bucket or the free list *)
  mutable free : int;  (** first free slot, or -1 when every slot is used *)
  lru : Lru.t;  (** used slots; a one-frame stub on array maps *)
  m_lookups : Graft_metrics.counter;
  m_updates : Graft_metrics.counter;
  m_evictions : Graft_metrics.counter;
}

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

let make name kind max_entries =
  if max_entries < 1 then
    invalid_arg (Printf.sprintf "Graftmap.%s: max_entries %d < 1" name
                   max_entries);
  let labels op = [ ("map", name); ("op", op) ] in
  let slots = if kind = Array_map then 0 else max_entries in
  {
    name;
    kind;
    max_entries;
    arr = (if kind = Array_map then Array.make max_entries 0 else [||]);
    keys = Array.make slots 0;
    vals = Array.make slots 0;
    heads = Array.make (pow2_at_least slots 1) (-1);
    chain = Array.init slots (fun s -> if s + 1 < slots then s + 1 else -1);
    free = (if slots = 0 then -1 else 0);
    lru = Lru.create (max slots 1);
    m_lookups =
      Graft_metrics.counter "graftkit_map_ops" (labels "lookup")
        ~help:"Graft map operations by map and op";
    m_updates = Graft_metrics.counter "graftkit_map_ops" (labels "update");
    m_evictions = Graft_metrics.counter "graftkit_map_ops" (labels "evict");
  }

let create_array ~name max_entries = make name Array_map max_entries
let create_hash ~name max_entries = make name Hash_map max_entries
let create_lru ~name max_entries = make name Lru_map max_entries
let is_array t = t.kind = Array_map

let in_range t k = k >= 0 && k < t.max_entries

let oob access k =
  Fault.raise_fault (Fault.Out_of_bounds { access; addr = k })

let bucket t k = k land (Array.length t.heads - 1)

let rec find_from t k s =
  if s < 0 || t.keys.(s) = k then s else find_from t k t.chain.(s)

(* The slot holding [k], or -1. *)
let slot_of t k = find_from t k t.heads.(bucket t k)

(* Put [k] in the first free slot, at the head of its bucket's chain
   and the MRU end of [lru]. The caller guarantees a free slot. *)
let insert t k v =
  let s = t.free in
  let b = bucket t k in
  t.free <- t.chain.(s);
  t.keys.(s) <- k;
  t.vals.(s) <- v;
  t.chain.(s) <- t.heads.(b);
  t.heads.(b) <- s;
  Lru.push_mru t.lru s

(* The slot before [s] in a chain that holds it, walking from [p]. *)
let rec pred_of t s p = if t.chain.(p) = s then p else pred_of t s t.chain.(p)

(* Unlink used slot [s] from its bucket and [lru], and free it. *)
let release t s =
  let b = bucket t t.keys.(s) in
  if t.heads.(b) = s then t.heads.(b) <- t.chain.(s)
  else t.chain.(pred_of t s t.heads.(b)) <- t.chain.(s);
  Lru.remove t.lru s;
  t.chain.(s) <- t.free;
  t.free <- s

(** Evict the least recently touched key: the head of [lru]. *)
let evict_lru t =
  release t (Lru.lru_frame t.lru);
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
    | Hash_map ->
        let s = slot_of t k in
        if s < 0 then 0 else t.vals.(s)
    | Lru_map ->
        let s = slot_of t k in
        if s < 0 then 0
        else (
          Lru.touch t.lru s;
          t.vals.(s))
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
        let s = slot_of t k in
        if s >= 0 then (
          t.vals.(s) <- v;
          1)
        else if t.free < 0 then 0
        else (
          insert t k v;
          1)
    | Lru_map ->
        let s = slot_of t k in
        if s >= 0 then (
          t.vals.(s) <- v;
          Lru.touch t.lru s)
        else (
          if t.free < 0 then evict_lru t;
          insert t k v);
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
        let s = slot_of t k in
        if s >= 0 then (
          release t s;
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
  | Hash_map | Lru_map -> if slot_of t k >= 0 then 1 else 0

(** Occupancy: population for hash kinds, capacity for array maps
    (every array slot always exists). *)
let size t =
  match t.kind with
  | Array_map -> t.max_entries
  | Hash_map | Lru_map -> Lru.length t.lru

let clear t =
  Array.fill t.arr 0 (Array.length t.arr) 0;
  while not (Lru.is_empty t.lru) do
    release t (Lru.lru_frame t.lru)
  done

(** Snapshot of the map contents as a sorted (key, value) list — the
    differential fuzzer compares these across engines. *)
let entries t =
  match t.kind with
  | Array_map ->
      Array.to_list (Array.mapi (fun k v -> (k, v)) t.arr)
      |> List.filter (fun (_, v) -> v <> 0)
  | Hash_map | Lru_map ->
      List.map (fun s -> (t.keys.(s), t.vals.(s))) (Lru.to_list t.lru)
      |> List.sort compare

(** Internal-consistency check used by property tests: every bucket's
    chain holds used slots of that bucket; each used slot's key finds
    that slot, and only once; the free list holds the unused slots;
    and [lru] is a sound list of the used slots, so [size] (its
    length) is the population. *)
let invariant_ok t =
  let n = Array.length t.keys in
  let used s = Lru.mem t.lru s in
  (* The chain from [s] if it holds only slots satisfying [ok] and ends
     within [n] steps: its length, else -1. *)
  let rec chain_len ok s len =
    if s < 0 then len
    else if len >= n || not (ok s) then -1
    else chain_len ok t.chain.(s) (len + 1)
  in
  let bucket_ok (b, s) =
    chain_len (fun s -> used s && bucket t t.keys.(s) = b) s 0 >= 0
  in
  let found_once s =
    let k = t.keys.(s) in
    slot_of t k = s && find_from t k t.chain.(s) < 0
  in
  let nfree = chain_len (fun s -> not (used s)) t.free 0 in
  Lru.invariant_ok t.lru
  && Seq.for_all bucket_ok (Array.to_seqi t.heads)
  && List.for_all found_once (Lru.to_list t.lru)
  && nfree >= 0
  && nfree + Lru.length t.lru = n

(** Host-call dispatchers for the typed helper table. A dispatcher
    reads its arguments in place, from [a.(i)] on, in the calling
    engine's own storage. The first argument of every helper is the
    map id (an index into [maps]); the dispatcher validates it and
    hands off to the map object, so every tier gets the same
    semantics. The returned pairs plug straight into GEL's linker as
    [(name, fn)] externs. *)
let hosts (maps : t array) : (string * (int array -> int -> int)) list =
  let map_of id =
    if id < 0 || id >= Array.length maps then
      Fault.raise_fault
        (Fault.Illegal_instruction (Printf.sprintf "map id %d out of range" id))
    else maps.(id)
  in
  [
    ("map_lookup", fun a i -> lookup (map_of a.(i)) a.(i + 1));
    ("map_update", fun a i -> update (map_of a.(i)) a.(i + 1) a.(i + 2));
    ("map_delete", fun a i -> delete (map_of a.(i)) a.(i + 1));
    ("map_contains", fun a i -> contains (map_of a.(i)) a.(i + 1));
    ("map_size", fun a i -> size (map_of a.(i)));
  ]
