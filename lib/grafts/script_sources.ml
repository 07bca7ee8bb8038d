(** The three paper grafts written in the Tcl-like scripting language.

    Scripted grafts reach kernel memory through [kload]/[kstore] on
    windows the kernel binds before evaluation:
    - eviction: [heap] (node pairs, RO);
    - MD5: [data] (bytes, RW for in-place padding), [digest] (16 cells,
      RW), [t] and [s] (constant tables, RO), [x] (16-cell scratch, RW
      — the interpreter has no arrays of its own, as Tcl 3.7 grafts
      would use kernel scratch for bulk state);
    - logical disk: [map] (RW), with globals [nblocks] and [next_free]
      pre-set by the kernel. *)

let evict =
  {|
proc contains {head page} {
  set p $head
  while {$p != 0} {
    if {[kload heap $p] == $page} { return 1 }
    set p [kload heap [expr {$p + 1}]]
  }
  return 0
}

proc choose {lru_head hot_head} {
  if {$lru_head == 0} { return -1 }
  set p $lru_head
  while {$p != 0} {
    if {[contains $hot_head [kload heap $p]] == 0} { return [kload heap $p] }
    set p [kload heap [expr {$p + 1}]]
  }
  return [kload heap $lru_head]
}
|}

let md5 =
  {|
proc rotl {v n} {
  return [expr {(($v << $n) | ($v >> (32 - $n))) & 0xFFFFFFFF}]
}

proc transform {base} {
  global s0 s1 s2 s3
  for {set i 0} {$i < 16} {incr i} {
    set o [expr {$base + 4 * $i}]
    kstore x $i [expr {[kload data $o] | ([kload data [expr {$o + 1}]] << 8) | ([kload data [expr {$o + 2}]] << 16) | ([kload data [expr {$o + 3}]] << 24)}]
  }
  set a $s0
  set b $s1
  set c $s2
  set d $s3
  for {set i 0} {$i < 64} {incr i} {
    if {$i < 16} {
      set f [expr {(($b & $c) | ((~$b) & $d)) & 0xFFFFFFFF}]
      set k $i
    } elseif {$i < 32} {
      set f [expr {(($d & $b) | ((~$d) & $c)) & 0xFFFFFFFF}]
      set k [expr {(5 * $i + 1) % 16}]
    } elseif {$i < 48} {
      set f [expr {$b ^ $c ^ $d}]
      set k [expr {(3 * $i + 5) % 16}]
    } else {
      set f [expr {($c ^ ($b | ((~$d) & 0xFFFFFFFF))) & 0xFFFFFFFF}]
      set k [expr {(7 * $i) % 16}]
    }
    set sum [expr {($a + $f + [kload x $k] + [kload t $i]) & 0xFFFFFFFF}]
    set anew [expr {($b + [rotl $sum [kload s $i]]) & 0xFFFFFFFF}]
    set a $d
    set d $c
    set c $b
    set b $anew
  }
  set s0 [expr {($s0 + $a) & 0xFFFFFFFF}]
  set s1 [expr {($s1 + $b) & 0xFFFFFFFF}]
  set s2 [expr {($s2 + $c) & 0xFFFFFFFF}]
  set s3 [expr {($s3 + $d) & 0xFFFFFFFF}]
}

proc run {n} {
  global s0 s1 s2 s3
  set s0 [expr {0x67452301}]
  set s1 [expr {0xefcdab89}]
  set s2 [expr {0x98badcfe}]
  set s3 [expr {0x10325476}]
  set p $n
  kstore data $p 128
  incr p
  while {$p % 64 != 56} {
    kstore data $p 0
    incr p
  }
  set bits [expr {$n * 8}]
  for {set i 0} {$i < 8} {incr i} {
    kstore data $p [expr {($bits >> (8 * $i)) & 255}]
    incr p
  }
  set nblocks [expr {$p / 64}]
  for {set blk 0} {$blk < $nblocks} {incr blk} {
    transform [expr {$blk * 64}]
  }
  set i 0
  foreach_state $s0 0
  foreach_state $s1 4
  foreach_state $s2 8
  foreach_state $s3 12
  return $nblocks
}

proc foreach_state {v off} {
  kstore digest $off [expr {$v & 255}]
  kstore digest [expr {$off + 1}] [expr {($v >> 8) & 255}]
  kstore digest [expr {$off + 2}] [expr {($v >> 16) & 255}]
  kstore digest [expr {$off + 3}] [expr {($v >> 24) & 255}]
}
|}

let logdisk =
  {|
proc ld_reset {} {
  global next_free
  set next_free 0
}

proc map_write {logical} {
  global next_free nblocks
  set phys $next_free
  incr next_free
  if {$next_free >= $nblocks} { set next_free 0 }
  kstore map $logical $phys
  return $phys
}

proc lookup {logical} {
  return [kload map $logical]
}
|}

(** Packet-filter graft for the source interpreter; the kernel binds
    the packet window as [pkt] and calls [accept $len]. *)
let packet_filter ~protocol ~port =
  Printf.sprintf
    {|
proc be16 {off} {
  return [expr {[kload pkt $off] * 256 + [kload pkt [expr {$off + 1}]]}]
}

proc accept {len} {
  if {$len < 38} { return 0 }
  if {[be16 12] != 2048} { return 0 }
  if {[kload pkt 23] != %d} { return 0 }
  if {[be16 36] != %d} { return 0 }
  return 1
}
|}
    protocol port
