(** Mean-time-to-recovery measurement for supervised grafts.

    An {e incident} opens at the first faulted invocation of a healthy
    graft and closes when the service point is genuinely restored:

    - the graft answers again itself ([Graft_ok] — Graftjail's backoff
      elapsed and the re-enabled graft held), or
    - the kernel default path answers {e after the graft was
      quarantined} ([Fallback_ok] once quarantine is observed) — the
      manager has struck the graft out, the fallback {e is} the
      steady state now, so the repair is complete.

    A fallback answer while the graft is merely disabled does not
    close the incident: the backoff is still running and the graft is
    expected back — counting those would make every incident look one
    invocation long. Repeated faults inside an open incident extend
    it rather than opening another. *)

type outcome =
  | Graft_ok  (** the graft itself answered *)
  | Fallback_ok  (** the kernel default answered for it *)
  | Faulted  (** the invocation faulted; the op failed *)

type incident = {
  i_start_s : float;
  mutable i_stop_s : float option;  (** [None] while open / censored *)
  mutable i_quarantined : bool;  (** quarantine observed during it *)
  mutable i_faults : int;
}

type t = {
  mutable current : incident option;
  mutable closed : incident list;  (** newest first *)
}

let create () = { current = None; closed = [] }

let close t inc ~now =
  inc.i_stop_s <- Some now;
  t.closed <- inc :: t.closed;
  t.current <- None

(** Feed one invocation outcome at simulated time [now];
    [quarantined] is the graft's supervision state after the call. *)
let observe t ~now ~quarantined outcome =
  (match t.current with
  | Some inc when quarantined -> inc.i_quarantined <- true
  | _ -> ());
  match (outcome, t.current) with
  | Faulted, None ->
      t.current <-
        Some
          {
            i_start_s = now;
            i_stop_s = None;
            i_quarantined = quarantined;
            i_faults = 1;
          }
  | Faulted, Some inc -> inc.i_faults <- inc.i_faults + 1
  | Graft_ok, Some inc -> close t inc ~now
  | Fallback_ok, Some inc -> if inc.i_quarantined then close t inc ~now
  | (Graft_ok | Fallback_ok), None -> ()

(** All incidents, oldest first; open one (if any) last, censored. *)
let incidents t =
  List.rev (match t.current with Some i -> i :: t.closed | None -> t.closed)

let durations t =
  List.filter_map
    (fun i ->
      Option.map (fun stop -> stop -. i.i_start_s) i.i_stop_s)
    (incidents t)

type summary = {
  m_incidents : int;  (** closed incidents *)
  m_open : int;  (** still-open (censored) incidents: 0 or 1 *)
  m_mean_s : float;  (** MTTR over closed incidents; 0 if none *)
  m_max_s : float;
}

(** Pool several trackers' closed incidents into one summary. A
    tracker that never saw a fault adds nothing. *)
let summarize_all ts =
  let ds = List.concat_map durations ts in
  let n = List.length ds in
  {
    m_incidents = n;
    m_open =
      List.fold_left
        (fun acc t -> acc + match t.current with Some _ -> 1 | None -> 0)
        0 ts;
    m_mean_s =
      (if n = 0 then 0.0
       else List.fold_left ( +. ) 0.0 ds /. float_of_int n);
    m_max_s = List.fold_left max 0.0 ds;
  }

let summarize t = summarize_all [ t ]
