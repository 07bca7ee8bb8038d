(* GC pauses and collections per domain, read from OCaml 5's
   Runtime_events ring of this very process.

   Only the traced run starts the ring. Each domain's op loop writes a
   start and a stop user event on its own ring ([loop_start],
   [loop_stop]); a pause counts when it begins between the two on the
   same ring. Ring ids are runtime domain slots, which [Domain.self]
   does not give, hence the markers. A pause is an outermost interval
   of the phases below: nested phases are part of it. *)

let pause_phase = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR
  | Runtime_events.EV_MAJOR_SLICE | Runtime_events.EV_MAJOR_GC_STW
  | Runtime_events.EV_STW_LEADER | Runtime_events.EV_STW_HANDLER ->
      true
  | _ -> false

type Runtime_events.User.tag += Loop_start | Loop_stop

let start_ev =
  Runtime_events.User.register "perfbench.loop_start" Loop_start
    Runtime_events.Type.unit

let stop_ev =
  Runtime_events.User.register "perfbench.loop_stop" Loop_stop
    Runtime_events.Type.unit

let loop_start () = Runtime_events.User.write start_ev ()
let loop_stop () = Runtime_events.User.write stop_ev ()

type ring = {
  mutable depth : int;
  mutable t0 : int;
  mutable pauses : (int * int) list;  (** (start, duration) in ns *)
  mutable minors : int list;  (** start times of minor collections *)
  mutable open_at : int option;  (** an op loop running since *)
  mutable loops : (int * int) list;
}

type t = {
  cursor : Runtime_events.cursor;
  rings : (int, ring) Hashtbl.t;
  mutable lost : int;
  lock : Mutex.t;
}

let ring t id =
  match Hashtbl.find_opt t.rings id with
  | Some r -> r
  | None ->
      let r =
        { depth = 0; t0 = 0; pauses = []; minors = []; open_at = None; loops = [] }
      in
      Hashtbl.add t.rings id r;
      r

let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x)

let callbacks t =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun id at phase ->
      if pause_phase phase then begin
        let r = ring t id in
        if r.depth = 0 then r.t0 <- ts at;
        r.depth <- r.depth + 1;
        if phase = Runtime_events.EV_MINOR then r.minors <- ts at :: r.minors
      end)
    ~runtime_end:(fun id at phase ->
      if pause_phase phase then begin
        let r = ring t id in
        (* The ring may open inside a phase: its end has no begin. *)
        if r.depth > 0 then begin
          r.depth <- r.depth - 1;
          if r.depth = 0 then r.pauses <- (r.t0, ts at - r.t0) :: r.pauses
        end
      end)
    ~lost_events:(fun _ n -> t.lost <- t.lost + n)
    ()
  |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.unit
       (fun id at ev () ->
         let r = ring t id in
         match (Runtime_events.User.tag ev, r.open_at) with
         | Loop_start, _ -> r.open_at <- Some (ts at)
         | Loop_stop, Some a ->
             r.loops <- (a, ts at) :: r.loops;
             r.open_at <- None
         | _ -> ())

let start () =
  Runtime_events.start ();
  {
    cursor = Runtime_events.create_cursor None;
    rings = Hashtbl.create 4;
    lost = 0;
    lock = Mutex.create ();
  }

(* Drain the ring. Safe from any domain; one reader at a time. *)
let poll t =
  Mutex.lock t.lock;
  ignore (Runtime_events.read_poll t.cursor (callbacks t) None);
  Mutex.unlock t.lock

type summary = {
  minor_collections : int;  (** most seen by any one domain's loops *)
  pause_ns : int;  (** summed over domains *)
  pause_max_ns : int;
  per_domain : (int * int * int) list;  (** ring, minors, pause ns *)
  lost : int;
}

let summary t =
  poll t;
  let per_domain =
    Hashtbl.fold
      (fun id r acc ->
        if r.loops = [] then acc
        else
          let inside x = List.exists (fun (a, b) -> x >= a && x <= b) r.loops in
          let minors = List.length (List.filter inside r.minors) in
          let ps = List.map snd (List.filter (fun (s, _) -> inside s) r.pauses) in
          (id, minors, ps) :: acc)
      t.rings []
    |> List.sort compare
  in
  let all = List.concat_map (fun (_, _, ps) -> ps) per_domain in
  {
    minor_collections = List.fold_left (fun acc (_, m, _) -> max acc m) 0 per_domain;
    pause_ns = List.fold_left ( + ) 0 all;
    pause_max_ns = List.fold_left max 0 all;
    per_domain =
      List.map (fun (id, m, ps) -> (id, m, List.fold_left ( + ) 0 ps)) per_domain;
    lost = t.lost;
  }

(* Forget everything seen so far (the ring keeps running). *)
let reset t =
  poll t;
  Hashtbl.reset t.rings;
  t.lost <- 0
