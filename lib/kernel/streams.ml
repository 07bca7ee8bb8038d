(** STREAMS-like filter chains (Ritchie [RITCH84]), the substrate for
    the paper's Stream grafts: filters are inserted into the data path
    between the storage system and the application, each consuming
    chunks and passing (possibly transformed) chunks downstream.

    Built-in filters cover the paper's motivating examples: an MD5
    fingerprint observer, a real run-length compressor/decompressor
    pair, a XOR stream cipher, and a byte counter. *)

type filter = {
  name : string;
  push : bytes -> bytes;
      (** consume one chunk, return the downstream chunk (may be the
          same buffer for observers, or empty) *)
  flush : unit -> bytes;  (** drain buffered state at end of stream *)
}

type chain = { filters : filter list; sink : bytes -> unit }

let build filters ~sink = { filters; sink }

let empty = Bytes.create 0

(* Graftmeter counters for the stream data path. *)
let m_pushes =
  Graft_metrics.domain_counter "graftkit_streams_pushes"
    ~help:"Chunks pushed through a filter (per-filter stage count)" []

let m_flushes =
  Graft_metrics.domain_counter "graftkit_streams_flushes"
    ~help:"Filter flushes at end of stream" []

let m_bytes =
  Graft_metrics.domain_counter "graftkit_streams_bytes"
    ~help:"Bytes entering filter stages" []

(* Each filter's push/flush runs under a span on the Streams track
   named after the filter, with the chunk length as the argument. A
   filter that faults loses its span — the chain is unwinding anyway. *)
let traced_push f data =
  Graft_metrics.inc (m_pushes ());
  Graft_metrics.add (m_bytes ()) (Bytes.length data);
  let tok = Graft_trace.Trace.span_begin () in
  let out = f.push data in
  Graft_trace.Trace.span_end ~arg:(Bytes.length data) Graft_trace.Trace.Streams
    f.name tok;
  out

let push chain chunk =
  let out =
    List.fold_left
      (fun data f -> if Bytes.length data = 0 then data else traced_push f data)
      chunk chain.filters
  in
  if Bytes.length out > 0 then chain.sink out

(** Flush every filter in order, pushing residues through the rest of
    the chain. *)
let finish chain =
  let rec flush_from = function
    | [] -> ()
    | f :: rest ->
        Graft_metrics.inc (m_flushes ());
        let tok = Graft_trace.Trace.span_begin () in
        let residue = f.flush () in
        Graft_trace.Trace.span_end ~arg:(Bytes.length residue)
          Graft_trace.Trace.Streams
          (f.name ^ ".flush")
          tok;
        if Bytes.length residue > 0 then begin
          let out =
            List.fold_left
              (fun data g ->
                if Bytes.length data = 0 then data else traced_push g data)
              residue rest
          in
          if Bytes.length out > 0 then chain.sink out
        end;
        flush_from rest
  in
  flush_from chain.filters

(* ------------------------------------------------------------------ *)
(* Built-in filters.                                                   *)
(* ------------------------------------------------------------------ *)

(** Pass-through MD5 fingerprint; query the digest after [finish] with
    the returned closure. The paper's representative Stream graft. *)
let md5_filter () =
  let ctx = Graft_md5.Md5.init () in
  let digest = ref None in
  let filter =
    {
      name = "md5";
      push =
        (fun chunk ->
          Graft_md5.Md5.update ctx chunk 0 (Bytes.length chunk);
          chunk);
      flush =
        (fun () ->
          digest := Some (Graft_md5.Md5.final ctx);
          empty);
    }
  in
  (filter, fun () -> !digest)

(** Byte counter observer. *)
let count_filter () =
  let count = ref 0 in
  let filter =
    {
      name = "count";
      push =
        (fun chunk ->
          count := !count + Bytes.length chunk;
          chunk);
      flush = (fun () -> empty);
    }
  in
  (filter, fun () -> !count)

(** XOR stream cipher with a keystream from a seeded PRNG. Encrypting
    and decrypting are the same filter with the same seed. *)
let xor_filter ~seed =
  let rng = Graft_util.Prng.create seed in
  {
    name = "xor";
    push =
      (fun chunk ->
        let out = Bytes.create (Bytes.length chunk) in
        for i = 0 to Bytes.length chunk - 1 do
          let k = Graft_util.Prng.int rng 256 in
          Bytes.unsafe_set out i
            (Char.unsafe_chr (Char.code (Bytes.unsafe_get chunk i) lxor k))
        done;
        out);
    flush = (fun () -> empty);
  }

(** Run-length compression: output is (count, byte) pairs with runs up
    to 255. Expands incompressible data by 2x, like real RLE. *)
let rle_compress_filter () =
  let cur = ref (-1) in
  let run = ref 0 in
  let emit buf =
    if !run > 0 then begin
      Buffer.add_char buf (Char.chr !run);
      Buffer.add_char buf (Char.chr !cur)
    end
  in
  {
    name = "rle-compress";
    push =
      (fun chunk ->
        let buf = Buffer.create (Bytes.length chunk) in
        Bytes.iter
          (fun c ->
            let b = Char.code c in
            if b = !cur && !run < 255 then incr run
            else begin
              emit buf;
              cur := b;
              run := 1
            end)
          chunk;
        Bytes.of_string (Buffer.contents buf));
    flush =
      (fun () ->
        let buf = Buffer.create 2 in
        emit buf;
        run := 0;
        cur := -1;
        Bytes.of_string (Buffer.contents buf));
  }

(** Inverse of [rle_compress_filter]; tolerates pair boundaries split
    across chunks. *)
let rle_decompress_filter () =
  let pending_count = ref (-1) in
  {
    name = "rle-decompress";
    push =
      (fun chunk ->
        let buf = Buffer.create (2 * Bytes.length chunk) in
        Bytes.iter
          (fun c ->
            if !pending_count < 0 then pending_count := Char.code c
            else begin
              for _ = 1 to !pending_count do
                Buffer.add_char buf c
              done;
              pending_count := -1
            end)
          chunk;
        Bytes.of_string (Buffer.contents buf));
    flush =
      (fun () ->
        if !pending_count >= 0 then
          Graft_mem.Fault.raise_fault
            (Graft_mem.Fault.Host_error "rle: truncated stream");
        empty);
  }

(** Wrap any filter with a fuel meter so a runaway filter graft is
    preempted like every other technology. *)
let with_fuel ~fuel_per_byte ~budget filter =
  let fuel = ref budget in
  {
    filter with
    push =
      (fun chunk ->
        fuel := !fuel - (fuel_per_byte * Bytes.length chunk);
        if !fuel < 0 then
          Graft_mem.Fault.raise_fault Graft_mem.Fault.Fuel_exhausted;
        filter.push chunk);
  }

(** Deterministic fault injection for the stream path: a pass-through
    filter that raises [fault] on push number [after + 1] (so
    [after = 0] faults immediately). Used by the Graftjail harness to
    exercise the manager barrier and the chain's unwind behaviour at a
    chosen trigger count. *)
let inject_filter ~after ~fault =
  let remaining = ref after in
  {
    name = "inject";
    push =
      (fun chunk ->
        if !remaining = 0 then Graft_mem.Fault.raise_fault fault;
        decr remaining;
        chunk);
    flush = (fun () -> empty);
  }

(** Journaling filter (the paper's example of turning a standard
    filesystem into a journaling one by inserting a graft into the
    request stream): each pushed chunk is one I/O request; requests
    classified as metadata by [is_metadata] are appended to a journal
    before being passed along unchanged. Returns the filter and a
    function returning the journal contents. *)
let journal_filter ~is_metadata =
  let journal = Buffer.create 256 in
  let filter =
    {
      name = "journal";
      push =
        (fun chunk ->
          if is_metadata chunk then begin
            (* Length-prefixed records so the journal can be replayed. *)
            Buffer.add_string journal (Printf.sprintf "%08d" (Bytes.length chunk));
            Buffer.add_bytes journal chunk
          end;
          chunk);
      flush = (fun () -> empty);
    }
  in
  (filter, fun () -> Buffer.contents journal)

(** Replay a journal produced by {!journal_filter}: the list of
    metadata records in write order. *)
let replay_journal data =
  let rec go pos acc =
    if pos >= String.length data then List.rev acc
    else begin
      let len = int_of_string (String.sub data pos 8) in
      let record = String.sub data (pos + 8) len in
      go (pos + 8 + len) (record :: acc)
    end
  in
  go 0 []
