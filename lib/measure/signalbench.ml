(** Real signal-delivery measurement, reproducing the paper's Table 1
    methodology: post signals a child handles, subtract the cost of an
    equivalent interaction in which it does not handle them, and divide
    by the count.

    One adaptation: the paper posted a group of twenty distinct signals
    at once. Delivering many signals simultaneously to an OCaml 5
    process nests their handlers fatally, so we post the same twenty
    signals one at a time in a ping-pong with a child that handles them
    and acknowledges each over a pipe, and subtract rounds, alternating
    with these, against a child that ignores the signals and
    acknowledges a plain pipe message instead. The difference is the
    delivery-and-handling cost, which is what Table 1 reports; for an
    OCaml 5 child it includes two mask changes (see [child_body]). *)

(* Catchable and distinct, as in the paper's group of twenty. *)
let signal_group =
  [
    Sys.sighup; Sys.sigint; Sys.sigquit; Sys.sigusr1; Sys.sigusr2;
    Sys.sigterm; Sys.sigalrm; Sys.sigvtalrm; Sys.sigprof; Sys.sigchld;
    Sys.sigcont; Sys.sigtstp; Sys.sigttin; Sys.sigttou; Sys.sigurg;
    Sys.sigxcpu; Sys.sigxfsz; Sys.sigpoll; Sys.sigtrap; Sys.sigpipe;
  ]

type result = {
  per_signal_s : Graft_stats.Robust.estimate;  (** handled minus baseline *)
  post_only_s : float;  (** mean baseline (post + sync) per signal *)
  group_size : int;
  rounds : int;
}

let read_byte fd =
  let buf = Bytes.create 1 in
  match Unix.read fd buf 0 1 with
  | 1 -> Bytes.get buf 0
  | _ -> failwith "Signalbench: child pipe closed"

let rec read_byte_retry fd =
  match read_byte fd with
  | c -> c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_byte_retry fd

let write_byte fd c =
  let buf = Bytes.make 1 c in
  ignore (Unix.write fd buf 0 1)

(* Child body: acknowledge one wake-up at a time until killed. The
   handling child keeps the group blocked except inside
   [Unix.sigsuspend], so no signal can land between a check and the
   wait and leave it asleep with the handler unrun. The runtime runs an
   OCaml handler only while its signal is unblocked, so each wake-up
   opens the group (the handler runs), closes it, and only then
   acknowledges. The baseline child ignores the signals and waits on
   the pipe. *)
let child_body ~handle ~go_rd ~ack_wr =
  List.iter
    (fun s ->
      Sys.set_signal s
        (if handle then Sys.Signal_handle ignore else Sys.Signal_ignore))
    signal_group;
  let opened =
    if handle then Unix.sigprocmask Unix.SIG_BLOCK signal_group else []
  in
  write_byte ack_wr 'R';
  while true do
    if handle then begin
      Unix.sigsuspend opened;
      ignore (Unix.sigprocmask Unix.SIG_SETMASK opened);
      ignore (Unix.sigprocmask Unix.SIG_BLOCK signal_group)
    end
    else ignore (read_byte_retry go_rd);
    write_byte ack_wr 'A'
  done

(* Seconds for one round of the whole group against child [pid];
   [nudge] wakes a baseline child. *)
let round ~nudge pid ~go_wr ~ack_rd =
  let t0 = Graft_util.Timer.now_ns () in
  List.iter
    (fun s ->
      Unix.kill pid s;
      if nudge then write_byte go_wr 'P';
      ignore (read_byte ack_rd))
    signal_group;
  let t1 = Graft_util.Timer.now_ns () in
  Int64.to_float (Int64.sub t1 t0) /. 1e9

(* Run [f] with the round function of a fresh child once it is ready,
   killing and reaping the child however [f] ends. *)
let with_child ~handle f =
  let go_rd, go_wr = Unix.pipe () in
  let ack_rd, ack_wr = Unix.pipe () in
  (* The child must never flush inherited stdio buffers (it uses
     Unix._exit), and flushing before the fork keeps buffered output
     single-copy even on abnormal child paths. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close go_wr;
      Unix.close ack_rd;
      (try child_body ~handle ~go_rd ~ack_wr with _ -> ());
      Unix._exit 1
  | pid ->
      Unix.close go_rd;
      Unix.close ack_wr;
      let rec reap () =
        try ignore (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      in
      Fun.protect
        ~finally:(fun () ->
          Unix.kill pid Sys.sigkill;
          reap ();
          Unix.close go_wr;
          Unix.close ack_rd)
        (fun () ->
          if read_byte ack_rd <> 'R' then
            failwith "Signalbench: child failed to start";
          f (fun () -> round ~nudge:(not handle) pid ~go_wr ~ack_rd))

(** Measure per-signal handling time over [rounds] paired rounds of the
    twenty-signal group (paper: 30 runs of 1000 iterations; scaled
    down because modern machines deliver signals in microseconds). *)
let measure ?(rounds = 100) () : result =
  let n = List.length signal_group in
  let handled = Array.make rounds 0.0 and baseline = Array.make rounds 0.0 in
  with_child ~handle:true (fun h ->
      with_child ~handle:false (fun b ->
          for i = 0 to rounds - 1 do
            (* Alternate which mode goes first within a pair. *)
            if i land 1 = 1 then baseline.(i) <- b ();
            handled.(i) <- h ();
            if i land 1 = 0 then baseline.(i) <- b ()
          done));
  let post_only = Graft_util.Stats.mean baseline /. float_of_int n in
  (* Subtract each round's paired baseline; clamp noise-negative
     samples. *)
  let diffs =
    Array.init rounds (fun i ->
        Float.max 0.0 ((handled.(i) -. baseline.(i)) /. float_of_int n))
  in
  {
    per_signal_s = Graft_stats.Robust.estimate diffs;
    post_only_s = post_only;
    group_size = n;
    rounds;
  }

(** The paper's upcall estimate from the measured signal time. *)
let upcall_estimate_s (r : result) =
  Graft_kernel.Upcall.estimate_from_signal_s
    r.per_signal_s.Graft_stats.Robust.median
