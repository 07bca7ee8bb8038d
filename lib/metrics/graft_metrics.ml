(* Graftmeter: the metrics registry, sharded per domain.

   Counters, gauges, and log-linear histograms, registered once (by
   family name + label set) and incremented from the kernel hot paths.
   The design constraint is the disabled cost: tracing already showed
   that a single global [bool ref] load plus a branch is unobservable
   in the dispatch loops, so counter increments and histogram
   observations gate on {!on} exactly the way [Graft_trace.Trace]
   gates its hot path. Gauges are NOT gated — they record
   configuration facts (was the platform profile measured or assumed?)
   that must survive whether or not someone enabled metrics before the
   fact was observed.

   Graftswarm makes the registry domain-local: each domain owns a
   private registry (no locks on the increment path — the hot-path
   cost is identical to the single-domain design), and export merges
   all shards on read. Merge laws: counters sum, gauges take the max
   (shard-distinguishing gauges should carry a ["domain"] label
   instead), histograms merge bucketwise. The main domain's registry
   is the legacy process-wide one, so single-domain behaviour — and
   the exported bytes — are unchanged when no worker domain ever
   touched a metric.

   Export is deterministic: families sorted by name, series within a
   family sorted by their canonical (sorted) label list. Two formats:
   OpenMetrics text (counters get the [_total] sample suffix,
   histograms emit cumulative [le] buckets + [_sum]/[_count], the
   exposition ends with [# EOF]) and a JSON mirror for embedding in
   [graftkit measure --json]. *)

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

let with_enabled flag f =
  let saved = !on in
  on := flag;
  Fun.protect ~finally:(fun () -> on := saved) f

type labels = (string * string) list

type counter = { mutable c : int }
type gauge = { mutable g : float }

type cell =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Graft_trace.Histo.t

type kind = Kcounter | Kgauge | Khistogram

type series = { family : string; labels : labels; cell : cell }
type family = { fname : string; help : string; fkind : kind }

(* Graftlens exemplar: the trace id of the worst retained op that
   landed in a histogram bucket, attached to the bucket's [le] bound.
   [ex_value] is the op's observed value (latency), used both as the
   exemplar payload and as the merge tie-breaker. *)
type exemplar = { ex_le : int; ex_trace : string; ex_value : int }

(* Registry: families in a table for help/type metadata, series in a
   table keyed by (family, canonical labels) for dedupe. Insertion
   order is irrelevant — export sorts. Exemplars ride in a side table
   keyed like series: they annotate histogram buckets at export time
   without touching the cell layout or the increment path. *)
type registry = {
  families : (string, family) Hashtbl.t;
  series : (string * labels, series) Hashtbl.t;
  exemplars : (string * labels, exemplar list) Hashtbl.t;
}

let create_registry () =
  {
    families = Hashtbl.create 32;
    series = Hashtbl.create 64;
    exemplars = Hashtbl.create 8;
  }

(* The main domain keeps the legacy process-wide registry; every other
   domain lazily gets a fresh shard on first use, parked on the shard
   list so merge-on-read can find it after the domain has been joined.
   Only the shard list itself is behind a lock — it is touched once
   per domain, never on the increment path. *)
let main = create_registry ()
let main_domain = Domain.self ()
let shards_lock = Mutex.create ()
let shards : registry list ref = ref []

let current_key =
  Domain.DLS.new_key (fun () ->
      if Domain.self () = main_domain then main
      else begin
        let r = create_registry () in
        Mutex.protect shards_lock (fun () -> shards := r :: !shards);
        r
      end)

let current () = Domain.DLS.get current_key

(* [with_registry r f] routes every registration/export inside [f] to
   [r] instead of the calling domain's registry — the merge-law tests
   build scenario shards this way without spawning domains. *)
let with_registry r f =
  let saved = Domain.DLS.get current_key in
  Domain.DLS.set current_key r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key saved) f

let shard_registries () =
  Mutex.protect shards_lock (fun () -> !shards)

(* Drop all worker-domain shards from the merged view. Call between
   serve runs: a joined domain's registry would otherwise keep
   contributing stale counts to the next export. *)
let reset_shards () = Mutex.protect shards_lock (fun () -> shards := [])

let canon labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let kind_clash name =
  invalid_arg
    (Printf.sprintf "Metrics: family %s re-registered with another kind" name)

let register_family_in reg name help kind =
  match Hashtbl.find_opt reg.families name with
  | Some f -> if f.fkind <> kind then kind_clash name
  | None -> Hashtbl.add reg.families name { fname = name; help; fkind = kind }

let register name help kind labels fresh unwrap =
  let reg = current () in
  let labels = canon labels in
  register_family_in reg name help kind;
  match Hashtbl.find_opt reg.series (name, labels) with
  | Some s -> unwrap s.cell
  | None ->
      let cell = fresh () in
      Hashtbl.add reg.series (name, labels) { family = name; labels; cell };
      unwrap cell

let counter ?(help = "") name labels =
  register name help Kcounter labels
    (fun () -> Counter { c = 0 })
    (function Counter c -> c | _ -> kind_clash name)

let gauge ?(help = "") name labels =
  register name help Kgauge labels
    (fun () -> Gauge { g = 0.0 })
    (function Gauge g -> g | _ -> kind_clash name)

let histogram ?(help = "") ?(subbits = 0) name labels =
  register name help Khistogram labels
    (fun () -> Histogram (Graft_trace.Histo.create ~subbits ()))
    (function Histogram h -> h | _ -> kind_clash name)

(* Domain-cached cells: instrumentation sites that used to hook a cell
   at module initialisation (main domain, forever) instead hold a
   thunk that resolves the cell once per domain. The per-call cost
   after the first hit is a DLS load — comparable to the [!on] gate
   that already guards the increment. *)
let domain_counter ?help name labels =
  let key = Domain.DLS.new_key (fun () -> counter ?help name labels) in
  fun () -> Domain.DLS.get key

let domain_histogram ?help ?subbits name labels =
  let key = Domain.DLS.new_key (fun () -> histogram ?help ?subbits name labels) in
  fun () -> Domain.DLS.get key

(* Replace the exemplar set of one histogram series (Graftlens feeds
   this after a serve run: at most one exemplar per [le] bound, the
   worst retained op in that bucket). Not a hot-path operation. *)
let set_exemplars name labels exs =
  let reg = current () in
  Hashtbl.replace reg.exemplars (name, canon labels) exs

(* The hot-path operations. Disabled cost: one global load, one
   branch. *)
let inc c = if !on then c.c <- c.c + 1
let add c n = if !on then c.c <- c.c + n
let observe h v = if !on then Graft_trace.Histo.add h v

(* Gauges are configuration facts — always recorded. *)
let set g v = g.g <- v

let counter_value c = c.c
let gauge_value g = g.g

(* Graftscope ring health, published as gauges so periodic snapshots
   (graftkit serve) record trace loss over time: a tail-latency number
   from a ring that silently dropped events is not trustworthy, so the
   drop counter travels with the data. Gauges, not counters: the ring's
   own counter is authoritative and resets with it. Sharded serve
   passes a ["domain"] label so each ring keeps its own series — ring
   occupancy is per-domain state, and max-merging two rings' drop
   counts would lie about both. *)
let publish_trace_gauges ?(labels = []) () =
  set
    (gauge "graftkit_trace_dropped_events"
       ~help:"Graftscope ring events overwritten before export" labels)
    (float_of_int (Graft_trace.Trace.dropped ()));
  set
    (gauge "graftkit_trace_recorded_events"
       ~help:"Graftscope events recorded since enable/clear" labels)
    (float_of_int (Graft_trace.Trace.total_recorded ()))

let reset_registry reg =
  Hashtbl.iter
    (fun _ s ->
      match s.cell with
      | Counter c -> c.c <- 0
      | Gauge g -> g.g <- 0.0
      | Histogram h -> Graft_trace.Histo.reset h)
    reg.series;
  Hashtbl.reset reg.exemplars

let reset () =
  reset_registry main;
  List.iter reset_registry (shard_registries ())

(* ---------- merge ---------- *)

(* Merge [src] into [dst]: counters sum, gauges max, histograms merge
   bucketwise (fresh destination cells are copies, so layouts carry
   over). Commutative and associative in every observable (export
   sorts; a family's help string is taken from whichever shard
   registered it first, and every call site uses one help text per
   family), with the empty registry as identity — the qcheck laws in
   test_swarm pin this down. *)
let merge_into ~dst src =
  Hashtbl.iter
    (fun name (f : family) -> register_family_in dst name f.help f.fkind)
    src.families;
  Hashtbl.iter
    (fun key (s : series) ->
      match Hashtbl.find_opt dst.series key with
      | None ->
          let cell =
            match s.cell with
            | Counter c -> Counter { c = c.c }
            | Gauge g -> Gauge { g = g.g }
            | Histogram h -> Histogram (Graft_trace.Histo.copy h)
          in
          Hashtbl.add dst.series key { s with cell }
      | Some d -> (
          match (d.cell, s.cell) with
          | Counter dc, Counter sc -> dc.c <- dc.c + sc.c
          | Gauge dg, Gauge sg -> dg.g <- Float.max dg.g sg.g
          | Histogram dh, Histogram sh ->
              Graft_trace.Histo.merge_into ~dst:dh sh
          | _ -> kind_clash s.family))
    src.series;
  (* Exemplar merge law: per [le] bound keep the worse (larger-valued)
     exemplar — commutative, associative, empty-identity like the cell
     merges. *)
  Hashtbl.iter
    (fun key src_exs ->
      let dst_exs =
        Option.value ~default:[] (Hashtbl.find_opt dst.exemplars key)
      in
      let merged =
        List.fold_left
          (fun acc (ex : exemplar) ->
            match List.find_opt (fun e -> e.ex_le = ex.ex_le) acc with
            | Some e when e.ex_value >= ex.ex_value -> acc
            | Some e -> ex :: List.filter (fun x -> x != e) acc
            | None -> ex :: acc)
          dst_exs src_exs
      in
      Hashtbl.replace dst.exemplars key
        (List.sort (fun a b -> compare a.ex_le b.ex_le) merged))
    src.exemplars

let merge_registries regs =
  let dst = create_registry () in
  List.iter (fun r -> merge_into ~dst r) regs;
  dst

(* The exported view: the main registry alone while no worker domain
   has registered anything (bit-identical to the single-domain
   design), otherwise main merged with every shard. *)
let merged_view () =
  match shard_registries () with
  | [] -> main
  | shards -> merge_registries (main :: shards)

(* ---------- export ---------- *)

let sorted_series reg =
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) reg.series [] in
  List.sort
    (fun a b ->
      match String.compare a.family b.family with
      | 0 -> compare a.labels b.labels
      | c -> c)
    all

let sorted_families reg =
  let all = Hashtbl.fold (fun _ f acc -> f :: acc) reg.families [] in
  List.sort (fun a b -> String.compare a.fname b.fname) all

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
             labels)
      ^ "}"

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let kind_str = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khistogram -> "histogram"

let registry_openmetrics reg =
  let buf = Buffer.create 4096 in
  let all = sorted_series reg in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" f.fname (kind_str f.fkind));
      if f.help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" f.fname f.help);
      List.iter
        (fun s ->
          if s.family = f.fname then
            match s.cell with
            | Counter c ->
                Buffer.add_string buf
                  (Printf.sprintf "%s_total%s %d\n" f.fname
                     (render_labels s.labels) c.c)
            | Gauge g ->
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %s\n" f.fname (render_labels s.labels)
                     (float_str g.g))
            | Histogram h ->
                let open Graft_trace in
                let exs =
                  Option.value ~default:[]
                    (Hashtbl.find_opt reg.exemplars (s.family, s.labels))
                in
                List.iter
                  (fun (bound, cum) ->
                    (* OpenMetrics exemplar: `# {trace_id="..."} value`
                       appended to the bucket sample carrying the worst
                       retained op that landed in this bucket. *)
                    let ex_suffix =
                      match
                        List.find_opt (fun e -> e.ex_le = bound) exs
                      with
                      | Some e ->
                          Printf.sprintf " # {trace_id=\"%s\"} %d"
                            (escape_label e.ex_trace) e.ex_value
                      | None -> ""
                    in
                    Buffer.add_string buf
                      (Printf.sprintf "%s_bucket%s %d%s\n" f.fname
                         (render_labels s.labels
                            ~extra:("le", string_of_int bound))
                         cum ex_suffix))
                  (Histo.cumulative h);
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" f.fname
                     (render_labels s.labels ~extra:("le", "+Inf"))
                     (Histo.count h));
                Buffer.add_string buf
                  (Printf.sprintf "%s_sum%s %d\n" f.fname
                     (render_labels s.labels) (Histo.sum h));
                Buffer.add_string buf
                  (Printf.sprintf "%s_count%s %d\n" f.fname
                     (render_labels s.labels) (Histo.count h)))
        all)
    (sorted_families reg);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let to_openmetrics () = registry_openmetrics (merged_view ())

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Graft_util.Minijson.quote k ^ ":" ^ Graft_util.Minijson.quote v)
         labels)
  ^ "}"

(* The JSON mirror of the exposition: a flat series list, one object
   per series, embeddable under a "metrics" key. *)
let registry_json reg =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"series\":[";
  let first = ref true in
  List.iter
    (fun s ->
      if !first then first := false else Buffer.add_char buf ',';
      let kind =
        match s.cell with
        | Counter _ -> Kcounter
        | Gauge _ -> Kgauge
        | Histogram _ -> Khistogram
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%s,\"kind\":\"%s\",\"labels\":%s,"
           (Graft_util.Minijson.quote s.family) (kind_str kind)
           (json_labels s.labels));
      (match s.cell with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "\"value\":%d}" c.c)
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "\"value\":%s}" (float_str g.g))
      | Histogram h ->
          let open Graft_trace in
          Buffer.add_string buf
            (Printf.sprintf "\"count\":%d,\"sum\":%d,\"buckets\":[%s]}"
               (Histo.count h) (Histo.sum h)
               (String.concat ","
                  (List.map
                     (fun (bound, cum) ->
                       Printf.sprintf "{\"le\":%d,\"count\":%d}" bound cum)
                     (Histo.cumulative h))))))
    (sorted_series reg);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_json () = registry_json (merged_view ())
