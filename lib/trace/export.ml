(** Exporters over the recorded event buffer.

    Three output shapes, all computed at reporting time so recording
    stays allocation-free:

    - {!chrome_json}: Chrome trace-event JSON (load in Perfetto or
      [chrome://tracing]) with one named thread per subsystem track;
    - {!folded}: folded-stacks text ([path count] lines, self-time in
      nanoseconds) for flamegraph tooling, nesting reconstructed per
      track from span intervals;
    - {!summary}/{!summary_json}: per-event counters and latency
      percentiles (from log2 histograms) as a {!Graft_util.Tablefmt}
      table or JSON. *)

let quote = Graft_util.Minijson.quote

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON.                                            *)
(* ------------------------------------------------------------------ *)

(* Envelope keys spliced into a top-level object: [extra] is
   (key, rendered JSON value) pairs, e.g. {!Graft_report.Envelope.fields}. *)
let extra_members extra =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf ",%s:%s" (quote k) v) extra)

(** One Chrome process worth of events — a domain's ring. Sharded
    serve exports one per domain ([p_pid] = domain id + 1) so traces
    from [--domains N] don't interleave under a single process. *)
type process = {
  p_pid : int;
  p_name : string;
  p_events : Trace.event array;
  p_dropped : int;
}

(* Span/instant args: the integer payload, plus the causal trace id
   when the event was recorded inside a Graftlens op scope. *)
let args_json (e : Trace.event) =
  if e.Trace.tid = 0 then Printf.sprintf "{\"arg\":%d}" e.Trace.arg
  else
    Printf.sprintf "{\"arg\":%d,\"trace_id\":\"%s\"}" e.Trace.arg
      (Trace.id_string e.Trace.tid)

(** Chrome trace-event JSON over explicit (process, events) groups.
    Timestamps are microseconds relative to the earliest event across
    every group; each subsystem track becomes thread [track_index + 1]
    of its group's process. *)
let chrome_json_of ?(extra = []) processes =
  let t0 =
    List.fold_left
      (fun acc p ->
        Array.fold_left
          (fun acc (e : Trace.event) -> min acc e.Trace.ts_ns)
          acc p.p_events)
      max_int processes
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let us ns = float_of_int ns /. 1e3 in
  let nevents =
    List.fold_left (fun acc p -> acc + Array.length p.p_events) 0 processes
  in
  let buf = Buffer.create (4096 + (nevents * 96)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let add s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  List.iter
    (fun p ->
      add
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}"
           p.p_pid (quote p.p_name));
      let present = Array.make Trace.ntracks false in
      Array.iter
        (fun (e : Trace.event) ->
          present.(Trace.track_index e.Trace.track) <- true)
        p.p_events;
      Array.iteri
        (fun i pr ->
          if pr then
            add
              (Printf.sprintf
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}"
                 p.p_pid (i + 1)
                 (quote (Trace.track_name Trace.tracks.(i)))))
        present;
      Array.iter
        (fun (e : Trace.event) ->
          let tid = Trace.track_index e.Trace.track + 1 in
          let ts = us (e.Trace.ts_ns - t0) in
          match e.Trace.kind with
          | Trace.Span ->
              add
                (Printf.sprintf
                   "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
                   (quote e.Trace.name)
                   (quote (Trace.track_name e.Trace.track))
                   p.p_pid tid ts
                   (us e.Trace.dur_ns)
                   (args_json e))
          | Trace.Instant ->
              add
                (Printf.sprintf
                   "{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"args\":%s}"
                   (quote e.Trace.name)
                   (quote (Trace.track_name e.Trace.track))
                   p.p_pid tid ts (args_json e))
          | Trace.Counter ->
              add
                (Printf.sprintf
                   "{\"name\":%s,\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"args\":{\"value\":%d}}"
                   (quote e.Trace.name) p.p_pid tid ts e.Trace.arg))
        p.p_events)
    processes;
  let dropped =
    List.fold_left (fun acc p -> acc + p.p_dropped) 0 processes
  in
  Buffer.add_string buf
    (Printf.sprintf
       "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":%d}%s}"
       dropped (extra_members extra));
  Buffer.contents buf

(** Chrome trace-event JSON over the current (calling domain's)
    buffer, as a single process [pid 1]. *)
let chrome_json ?(extra = []) () =
  chrome_json_of ~extra
    [
      {
        p_pid = 1;
        p_name = "graftkit";
        p_events = Trace.events ();
        p_dropped = Trace.dropped ();
      };
    ]

(* ------------------------------------------------------------------ *)
(* Folded stacks (flamegraph input).                                   *)
(* ------------------------------------------------------------------ *)

(** Folded-stacks text: one [track;parent;child self_ns] line per
    unique span path. Nesting is reconstructed per track from span
    intervals (a span contains every span that starts and ends inside
    it); values are self time, so flamegraph tooling sums children
    back in. *)
let folded () =
  let evs = Trace.events () in
  let acc = Hashtbl.create 64 in
  let emit path self =
    let prev = Option.value ~default:0 (Hashtbl.find_opt acc path) in
    Hashtbl.replace acc path (prev + max 0 self)
  in
  Array.iter
    (fun t ->
      let spans =
        Array.of_list
          (List.filter
             (fun (e : Trace.event) ->
               e.Trace.kind = Trace.Span && e.Trace.track = t)
             (Array.to_list evs))
      in
      Array.sort
        (fun (a : Trace.event) (b : Trace.event) ->
          if a.Trace.ts_ns <> b.Trace.ts_ns then
            compare a.Trace.ts_ns b.Trace.ts_ns
          else compare b.Trace.dur_ns a.Trace.dur_ns)
        spans;
      (* (end_ts, path, dur, child time) innermost first *)
      let stack = ref [] in
      let pop () =
        match !stack with
        | (_, path, dur, children) :: rest ->
            stack := rest;
            emit path (dur - children);
            (match rest with
            | (fin, p, d, c) :: rest' ->
                stack := (fin, p, d, c + dur) :: rest'
            | [] -> ())
        | [] -> ()
      in
      Array.iter
        (fun (e : Trace.event) ->
          let start = e.Trace.ts_ns in
          let fin = start + e.Trace.dur_ns in
          while
            match !stack with
            | (f, _, _, _) :: _ -> f <= start
            | [] -> false
          do
            pop ()
          done;
          let parent =
            match !stack with
            | (_, p, _, _) :: _ -> p
            | [] -> Trace.track_name t
          in
          stack := (fin, parent ^ ";" ^ e.Trace.name, e.Trace.dur_ns, 0) :: !stack)
        spans;
      while !stack <> [] do
        pop ()
      done)
    Trace.tracks;
  let lines =
    Hashtbl.fold (fun path self l -> (path, self) :: l) acc []
    |> List.sort compare
  in
  String.concat ""
    (List.map (fun (path, self) -> Printf.sprintf "%s %d\n" path self) lines)

(* ------------------------------------------------------------------ *)
(* Metrics summary.                                                    *)
(* ------------------------------------------------------------------ *)

type agg = {
  a_track : Trace.track;
  a_name : string;
  a_kind : Trace.kind;
  mutable a_count : int;
  mutable a_total : int;  (** span ns or counter-value sum *)
  mutable a_max : int;
  a_hist : Histo.t;  (** span durations *)
}

let aggregate () =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (e : Trace.event) ->
      let key = (Trace.track_index e.Trace.track, e.Trace.name, e.Trace.kind) in
      let a =
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
            let a =
              {
                a_track = e.Trace.track;
                a_name = e.Trace.name;
                a_kind = e.Trace.kind;
                a_count = 0;
                a_total = 0;
                a_max = 0;
                a_hist = Histo.create ();
              }
            in
            Hashtbl.replace tbl key a;
            a
      in
      a.a_count <- a.a_count + 1;
      (match e.Trace.kind with
      | Trace.Span ->
          a.a_total <- a.a_total + e.Trace.dur_ns;
          a.a_max <- max a.a_max e.Trace.dur_ns;
          Histo.add a.a_hist e.Trace.dur_ns
      | Trace.Counter ->
          a.a_total <- a.a_total + e.Trace.arg;
          a.a_max <- max a.a_max e.Trace.arg
      | Trace.Instant -> ()))
    (Trace.events ());
  Hashtbl.fold (fun _ a l -> a :: l) tbl []
  |> List.sort (fun a b ->
         let ta = Trace.track_index a.a_track
         and tb = Trace.track_index b.a_track in
         if ta <> tb then compare ta tb else compare b.a_total a.a_total)

let kind_name = function
  | Trace.Span -> "span"
  | Trace.Instant -> "instant"
  | Trace.Counter -> "counter"

let pp_ns ns = Graft_util.Timer.pp_seconds (float_of_int ns /. 1e9)

(** Counter/latency summary rendered with {!Graft_util.Tablefmt}: one
    row per (track, event), with p50/p95 from the duration histogram
    for spans and value sums for counters. *)
let summary () =
  let t =
    Graft_util.Tablefmt.create
      [| "Track"; "Event"; "Kind"; "Count"; "Total"; "Mean"; "p50"; "p95"; "Max" |]
  in
  List.iter
    (fun a ->
      let timing =
        match a.a_kind with
        | Trace.Span ->
            [|
              pp_ns a.a_total;
              pp_ns (a.a_total / max 1 a.a_count);
              pp_ns (Histo.percentile a.a_hist 0.50);
              pp_ns (Histo.percentile a.a_hist 0.95);
              pp_ns a.a_max;
            |]
        | Trace.Counter ->
            [|
              string_of_int a.a_total;
              Printf.sprintf "%.1f" (float_of_int a.a_total /. float_of_int (max 1 a.a_count));
              "-";
              "-";
              string_of_int a.a_max;
            |]
        | Trace.Instant -> [| "-"; "-"; "-"; "-"; "-" |]
      in
      Graft_util.Tablefmt.add_row t
        (Array.append
           [|
             Trace.track_name a.a_track;
             a.a_name;
             kind_name a.a_kind;
             string_of_int a.a_count;
           |]
           timing))
    (aggregate ());
  Graft_util.Tablefmt.render t
  ^ Printf.sprintf "events recorded: %d  dropped: %d\n"
      (Array.length (Trace.events ()))
      (Trace.dropped ())

(** The same aggregation as JSON (ns-valued fields). *)
let summary_json ?(extra = []) () =
  let rows =
    List.map
      (fun a ->
        let base =
          Printf.sprintf
            "{\"track\":%s,\"event\":%s,\"kind\":%s,\"count\":%d"
            (quote (Trace.track_name a.a_track))
            (quote a.a_name)
            (quote (kind_name a.a_kind))
            a.a_count
        in
        match a.a_kind with
        | Trace.Span ->
            Printf.sprintf
              "%s,\"total_ns\":%d,\"mean_ns\":%d,\"p50_ns\":%d,\"p95_ns\":%d,\"max_ns\":%d}"
              base a.a_total
              (a.a_total / max 1 a.a_count)
              (Histo.percentile a.a_hist 0.50)
              (Histo.percentile a.a_hist 0.95)
              a.a_max
        | Trace.Counter ->
            Printf.sprintf "%s,\"sum\":%d,\"max\":%d}" base a.a_total a.a_max
        | Trace.Instant -> base ^ "}")
      (aggregate ())
  in
  Printf.sprintf "{\"dropped\":%d,\"events\":[%s]%s}\n" (Trace.dropped ())
    (String.concat "," rows) (extra_members extra)
