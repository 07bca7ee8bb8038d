(** Simulated time.

    The kernel simulator charges I/O and protection-boundary costs to a
    virtual clock instead of sleeping, so experiments that model 1995
    disks finish in milliseconds while preserving the paper's cost
    ratios. Real CPU time spent inside grafts is measured separately
    with {!Graft_util.Timer} and can be charged in by the caller. *)

(* A label's running total. All-float, so adding to it allocates
   nothing. *)
type total = { mutable sum : float }

type t = { mutable now_s : float; mutable totals : (string * total) list }

let create () = { now_s = 0.0; totals = [] }

let now t = t.now_s

(** [charge t label dt] advances the clock by [dt] seconds, recording
    [label] for the cost breakdown. Negative charges are rejected. *)
let charge t label dt =
  if dt < 0.0 then invalid_arg "Simclock.charge: negative time";
  t.now_s <- t.now_s +. dt;
  (match List.assoc label t.totals with
  | total -> total.sum <- total.sum +. dt
  | exception Not_found -> t.totals <- (label, { sum = dt }) :: t.totals);
  (* Counter (not instant) so the trace summary can sum charge totals
     per label; the value is the charge in simulated nanoseconds. *)
  Graft_trace.Trace.counter Graft_trace.Trace.Clock label
    (int_of_float (dt *. 1e9))

(** [advance_to t target] moves the clock forward to absolute time
    [target] without recording a charge — idle time between arrivals in
    an open-loop workload, as opposed to work someone pays for. A
    target in the past is a no-op (the clock never runs backwards). *)
let advance_to t target = if target > t.now_s then t.now_s <- target

(** Total time charged under [label]. *)
let charged t label =
  match List.assoc label t.totals with
  | total -> total.sum
  | exception Not_found -> 0.0

(** Cost breakdown, aggregated by label, largest first. *)
let breakdown t =
  List.map (fun (l, total) -> (l, total.sum)) t.totals
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let reset t =
  t.now_s <- 0.0;
  t.totals <- []
