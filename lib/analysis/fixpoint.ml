(** The one interval fixpoint every load-time verifier runs.

    A worklist solver over a code range's control-flow graph, generic
    over the abstract state and the transfer function. The stack
    verifier's pass 2 ([Graft_stackvm.Verify]) and the register VM's
    [Graft_regvm.Flow] both call it, so the two verifiers share one
    widening rule and one termination argument. [graftkit check] runs
    no analysis of its own: it reads pass 2's fixpoint
    ([Graft_stackvm.Check]), so its diagnostics keep the same rule:

    - the worklist always takes the lowest pending pc, so every arm of
      a loop body merges before the back edge runs and each pass over
      the body reaches the head over a back edge once;
    - only back-edge targets (targets of jumps at or below their own pc)
      widen. Every CFG cycle's lowest pc is entered from a higher pc
      inside the cycle, so every cycle holds one, which is enough for
      termination, while straight-line merge points keep plain joins
      and the narrowing a guard proves is not thrown away downstream of
      a widened loop head;
    - at a back-edge target, an arrival over a back edge joins exactly
      the first time it changes the head, and widens from its second
      change on;
    - an arrival from a lower pc joins exactly and restarts that count,
      so an inner loop re-entered with a wider outer counter keeps the
      counter's guard-refined range instead of widening it to infinity;
    - any arrival at a back-edge target widens once the target has been
      visited {!widen_after} times, the termination backstop for
      arbitrary hand-built code. *)

let widen_after = 300

(** [solve ~lo ~hi ~target ~merge ~transfer entries] returns the
    in-state of every pc in [\[lo, hi)], at index [pc - lo]; [None]
    where no path reaches.
    - [entries] seeds the analysis: (pc, state) pairs, each an arrival
      from below.
    - [target pc] is the static jump target of the instruction at [pc],
      if it has one; it only locates the back-edge targets.
    - [merge ~wide old now] joins an arriving state into the stored
      one, widening each component when [wide]; [None] means the stored
      state did not change.
    - [transfer pc st arrive] runs the instruction at [pc] from its
      in-state [st] and calls [arrive succ st'] for each successor. The
      solver may keep a state passed to [arrive], so the transfer
      function must not mutate it afterwards, nor mutate [st].

    Arrivals outside [\[lo, hi)] are dropped. *)
let solve ~lo ~hi ~target ~merge ~transfer entries =
  let size = max 0 (hi - lo) in
  let states = Array.make size None in
  let visits = Array.make size 0 in
  let head = Array.make size false in
  for pc = lo to hi - 1 do
    match target pc with
    | Some t when t >= lo && t <= pc -> head.(t - lo) <- true
    | _ -> ()
  done;
  (* Changes a back edge has made at each head since an arrival from a
     lower pc last changed it. *)
  let back_changes = Array.make size 0 in
  (* The worklist: pending pcs by offset, and the lowest offset that
     may be pending (none below it is). *)
  let pending = Array.make size false in
  let first = ref size in
  let arrive ~from pc st =
    if pc >= lo && pc < hi then begin
      let i = pc - lo in
      let changed =
        match states.(i) with
        | None ->
            states.(i) <- Some st;
            true
        | Some old -> (
            let back = from >= pc in
            let wide =
              head.(i)
              && (visits.(i) > widen_after || (back && back_changes.(i) >= 1))
            in
            match merge ~wide old st with
            | None -> false
            | joined ->
                states.(i) <- joined;
                back_changes.(i) <- (if back then back_changes.(i) + 1 else 0);
                true)
      in
      if changed then begin
        pending.(i) <- true;
        if i < !first then first := i
      end
    end
  in
  List.iter (fun (pc, st) -> arrive ~from:(pc - 1) pc st) entries;
  let rec next_pending () =
    if !first < size && not pending.(!first) then begin
      incr first;
      next_pending ()
    end
  in
  next_pending ();
  while !first < size do
    let i = !first in
    pending.(i) <- false;
    visits.(i) <- visits.(i) + 1;
    (match states.(i) with
    | Some st -> transfer (lo + i) st (arrive ~from:(lo + i))
    | None -> assert false);
    next_pending ()
  done;
  states
