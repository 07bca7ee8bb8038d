(** The three paper grafts written in GEL, the safe extension language,
    for execution by the interpreted and VM technologies (reference
    interpreter, stack bytecode VM, register VM with SFI). *)

let md5_t_literals =
  Md5_graft.t_table |> Array.to_list
  |> List.map (Printf.sprintf "0x%08x")
  |> String.concat ", "

let md5_s_literals =
  Md5_graft.s_table |> Array.to_list |> List.map string_of_int
  |> String.concat ", "

(** Page-eviction graft. Shared window [heap] holds (page, next) node
    pairs; node index 0 is NIL.
    - [contains(head, page)] — the measured hot-list membership walk;
    - [choose(lru_head, hot_head)] — the full victim-selection graft. *)
let evict ~heap_cells =
  Printf.sprintf
    {|
shared array heap[%d];

fn contains(head : int, page : int) : int {
  var p = head;
  while (p != 0) {
    if (heap[p] == page) { return 1; }
    p = heap[p + 1];
  }
  return 0;
}

fn choose(lru_head : int, hot_head : int) : int {
  if (lru_head == 0) { return -1; }
  var p = lru_head;
  while (p != 0) {
    if (contains(hot_head, heap[p]) == 0) { return heap[p]; }
    p = heap[p + 1];
  }
  return heap[lru_head];
}
|}
    heap_cells

(** MD5 graft. Shared windows: [data] (one byte per cell, writable —
    the graft appends RFC 1321 padding in place) and [digest] (16
    cells). [run(n)] fingerprints the first [n] bytes and returns the
    number of 64-byte blocks processed. [data] must have at least
    [n + 72] cells of padding headroom. *)
let md5 ~data_cells =
  Printf.sprintf
    {|
shared array data[%d];
shared array digest[16];

array x[16] : word;
array state[4] : word;
array t[64] : word = { %s };
array s[64] = { %s };

fn rotl(v : word, n : int) : word {
  return (v << n) | (v >>> (32 - n));
}

fn transform(base : int) {
  for (var i = 0; i < 16; i = i + 1) {
    var o = base + 4 * i;
    x[i] = word(data[o])
         | (word(data[o + 1]) << 8)
         | (word(data[o + 2]) << 16)
         | (word(data[o + 3]) << 24);
  }
  var a : word = state[0];
  var b : word = state[1];
  var c : word = state[2];
  var d : word = state[3];
  for (var i = 0; i < 64; i = i + 1) {
    var f : word = 0;
    var k = 0;
    if (i < 16) {
      f = (b & c) | (~b & d);
      k = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      k = (5 * i + 1) %% 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      k = (3 * i + 5) %% 16;
    } else {
      f = c ^ (b | ~d);
      k = (7 * i) %% 16;
    }
    var sum : word = a + f + x[k] + t[i];
    var anew : word = b + rotl(sum, s[i]);
    a = d;
    d = c;
    c = b;
    b = anew;
  }
  state[0] = state[0] + a;
  state[1] = state[1] + b;
  state[2] = state[2] + c;
  state[3] = state[3] + d;
}

fn run(n : int) : int {
  state[0] = 0x67452301;
  state[1] = 0xefcdab89;
  state[2] = 0x98badcfe;
  state[3] = 0x10325476;
  var p = n;
  data[p] = 128;
  p = p + 1;
  while (p %% 64 != 56) {
    data[p] = 0;
    p = p + 1;
  }
  var bits = n * 8;
  for (var i = 0; i < 8; i = i + 1) {
    data[p] = (bits >> (8 * i)) & 255;
    p = p + 1;
  }
  var nblocks = p / 64;
  for (var blk = 0; blk < nblocks; blk = blk + 1) {
    transform(blk * 64);
  }
  for (var i = 0; i < 4; i = i + 1) {
    var v = int(state[i]);
    digest[4 * i] = v & 255;
    digest[4 * i + 1] = (v >> 8) & 255;
    digest[4 * i + 2] = (v >> 16) & 255;
    digest[4 * i + 3] = (v >> 24) & 255;
  }
  return nblocks;
}
|}
    data_cells md5_t_literals md5_s_literals

(** Logical-disk graft: private logical-to-physical map with a
    sequential (log-structured) allocator.
    - [map_write(logical)] returns the physical block assigned;
    - [lookup(logical)] returns the mapping or -1. *)
let logdisk ~nblocks =
  Printf.sprintf
    {|
array map[%d];
var next_free : int = 0;
var initialized : int = 0;

fn reset() {
  for (var i = 0; i < %d; i = i + 1) { map[i] = -1; }
  next_free = 0;
  initialized = 1;
}

fn map_write(logical : int) : int {
  if (initialized == 0) { reset(); }
  var phys = next_free;
  next_free = next_free + 1;
  if (next_free >= %d) { next_free = 0; }
  map[logical] = phys;
  return phys;
}

fn lookup(logical : int) : int {
  if (initialized == 0) { reset(); }
  return map[logical];
}
|}
    nblocks nblocks nblocks

(* The demux graft around its payload marker scan: [scan_loop] sets
   [scan] to the marker's index in payload bytes 54..69 (it starts at
   16, "absent"). *)
let demux_around ~window_cells ~protocol scan_loop =
  Printf.sprintf
    {|
shared array pkt[%d];

extern fn map_lookup(int, int) : int;
extern fn map_update(int, int, int) : int;

fn be16(off : int) : int {
  return pkt[off] * 256 + pkt[off + 1];
}

fn demux(len : int) : int {
  if (len < 70) { return 0; }
  if (be16(12) != 2048) { return 0; }
  if (pkt[23] != %d) { return 0; }
  var scan = 16;
%s
  var key = be16(34) & 63;
  var n = map_lookup(0, key) + 1;
  map_update(0, key, n);
  return scan * 1024 + n;
}
|}
    window_cells protocol scan_loop

(** Stateful connection demux — the Graftgate showcase graft: a packet
    filter with a bounded marker scan (certified loop) and per-
    connection counters in graft map 0 ("conn", a 64-entry array map,
    keyed by src port land 63). Returns [scan * 1024 + count] where
    [scan] is the index of [marker] in payload bytes 54..69 (16 if
    absent) and [count] the packet's per-connection sequence number;
    non-IP, wrong-protocol or short packets return 0. Loadable with
    [~bounded:true] on every tier: the one loop is the canonical
    counted shape {!Graft_analysis.Loopbound} derives. *)
let demux ~window_cells ~protocol ~marker =
  demux_around ~window_cells ~protocol
    (Printf.sprintf
       {|  for (var i = 0; i < 16; i = i + 1) {
    if (pkt[54 + i] == %d) { scan = i; break; }
  }|}
       marker)

(** The same demux with the scan loop written as a raw [while] whose
    counter bumps inside the body — semantically identical, but not
    the canonical counted shape, so every [~bounded:true] loader must
    reject it (the negative control for the verifier tests). *)
let demux_unbounded ~window_cells ~protocol ~marker =
  demux_around ~window_cells ~protocol
    (Printf.sprintf
       {|  var i = 0;
  while (i < 16) {
    if (pkt[54 + i] == %d) { scan = i; break; }
    i = i + 1;
  }|}
       marker)

(** Hot-set tracking over an LRU graft map (map 0): [touch(page)]
    counts an access and returns the page's access count, [hot(page)]
    asks whether the page is still resident in the map — eviction
    policy lives in the kernel's LRU map, persistence across calls in
    the map object, and the graft stays loop-free. *)
let hotset =
  {|
extern fn map_lookup(int, int) : int;
extern fn map_update(int, int, int) : int;
extern fn map_contains(int, int) : int;

fn touch(page : int) : int {
  var n = map_lookup(0, page) + 1;
  map_update(0, page, n);
  return n;
}

fn hot(page : int) : int {
  return map_contains(0, page);
}
|}

(** Packet-filter graft: "ip and <protocol> and dst port <port>" over a
    packet window (one byte per cell; the kernel copies each packet in
    and calls [accept(len)]). *)
let packet_filter ~window_cells ~protocol ~port =
  Printf.sprintf
    {|
shared array pkt[%d];

fn be16(off : int) : int {
  return pkt[off] * 256 + pkt[off + 1];
}

fn accept(len : int) : int {
  if (len < 38) { return 0; }
  if (be16(12) != 2048) { return 0; }
  if (pkt[23] != %d) { return 0; }
  if (be16(36) != %d) { return 0; }
  return 1;
}
|}
    window_cells protocol port
