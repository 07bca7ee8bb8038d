(* The regression gate behind every committed BENCH_*.json file.

   A suite turns a run into a document of rows. Each row is one gated
   number with its 95% CI, its direction, and the fractional median
   move it tolerates. Wall-clock suites (the bytecode tiers, the
   throughput sweep) carry bootstrap CIs; the deterministic serve
   suite carries degenerate [v, v] intervals. One rule judges them all:
   a row moves only when the fresh CI and the baseline CI are disjoint
   (the move is real, not noise) AND the median moved beyond the
   threshold (the move is big enough to care). Overlapping intervals
   never fail, so a noisy runner does not cry wolf; with degenerate
   intervals the rule is a plain relative-threshold comparison.

   The policy lives in code: each suite's row builder sets a row's
   direction and threshold, and {!verdict} reads them from the fresh
   row. A saved baseline stores them too, so the file reads on its
   own, but those copies are informational; editing a threshold in a
   BENCH file changes nothing (pass --threshold instead). *)

open Graft_util

type row = {
  key : string;
  value : float;
  ci95_lo : float;
  ci95_hi : float;
  higher_better : bool;
  threshold : float;  (** fractional median move tolerated *)
}

type doc = {
  suite : string;
  config : (string * float) list;
      (** the workload; two documents compare only when these match *)
  cores : int option;
      (** cores the run had; recorded for readers, never compared *)
  rows : row list;
}

let make ~suite ~config rows =
  { suite; config; cores = Some (Domain.recommended_domain_count ()); rows }

let of_estimate ~key ~higher_better ~threshold
    (e : Graft_stats.Robust.estimate) =
  {
    key;
    value = e.Graft_stats.Robust.median;
    ci95_lo = e.Graft_stats.Robust.ci95_lo;
    ci95_hi = e.Graft_stats.Robust.ci95_hi;
    higher_better;
    threshold;
  }

(* ------------------------------------------------------------------ *)
(* The schema.                                                         *)
(* ------------------------------------------------------------------ *)

let schema_version = 5

(* The shortest decimal that reads back as the same float, so a
   baseline round-trips exactly. *)
let num x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let row_json r =
  Printf.sprintf
    "  {\"key\": %S, \"value\": %s, \"ci95_lo\": %s, \"ci95_hi\": %s, \
     \"higher_better\": %b, \"threshold\": %s}"
    r.key (num r.value) (num r.ci95_lo) (num r.ci95_hi) r.higher_better
    (num r.threshold)

let to_json d =
  Envelope.wrap ~schema_version
    (Printf.sprintf
       "\n  \"suite\": %S, \"cores\": %s,\n  \"config\": {%s},\n\
       \  \"rows\": [\n%s\n  ]\n"
       d.suite
       (match d.cores with Some n -> string_of_int n | None -> "null")
       (String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (num v)) d.config))
       (String.concat ",\n" (List.map row_json d.rows)))

let save ~path d =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json d);
      Out_channel.output_string oc "\n")

let parse text =
  let open Minijson in
  let ( let* ) = Result.bind in
  let need what = function
    | Some x -> Ok x
    | None -> Error ("baseline: missing or malformed " ^ what)
  in
  let number key j = need key (Option.bind (member key j) to_float) in
  let* j = Result.map_error (( ^ ) "baseline: ") (Minijson.parse text) in
  let* version = number "schema_version" j in
  if version <> float_of_int schema_version then
    Error
      (Printf.sprintf
         "baseline: schema_version %g, expected %d; regenerate it with \
          --save-baseline"
         version schema_version)
  else
    let* suite = need "suite" (Option.bind (member "suite" j) to_string) in
    let* config =
      match member "config" j with
      | Some (Obj kvs) ->
          List.fold_right
            (fun (k, v) acc ->
              let* acc = acc in
              let* v = need ("config " ^ k) (to_float v) in
              Ok ((k, v) :: acc))
            kvs (Ok [])
      | _ -> Error "baseline: missing or malformed config"
    in
    let row r =
      let* key = need "row key" (Option.bind (member "key" r) to_string) in
      let field f =
        Result.map_error (fun e -> e ^ " in row " ^ key) (number f r)
      in
      let* value = field "value" in
      let* ci95_lo = field "ci95_lo" in
      let* ci95_hi = field "ci95_hi" in
      let* threshold = field "threshold" in
      match member "higher_better" r with
      | Some (Bool higher_better) ->
          Ok { key; value; ci95_lo; ci95_hi; higher_better; threshold }
      | _ ->
          Error ("baseline: missing or malformed higher_better in row " ^ key)
    in
    let* rows = need "rows" (Option.bind (member "rows" j) to_list) in
    let* rows =
      List.fold_right
        (fun r acc ->
          let* acc = acc in
          let* r = row r in
          Ok (r :: acc))
        rows (Ok [])
    in
    let cores =
      Option.map int_of_float (Option.bind (member "cores" j) to_float)
    in
    Ok { suite; config; cores; rows }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* The verdict.                                                        *)
(* ------------------------------------------------------------------ *)

type verdict = Pass | Regression | Improvement

let verdict_name = function
  | Pass -> "pass"
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"

(** Judge a fresh row against its baseline row. The fresh row carries
    the direction and threshold, so a baseline file supplies numbers
    and never loosens the policy; [threshold] overrides the row's. *)
let verdict ?threshold ~base cur =
  let t = Option.value threshold ~default:cur.threshold in
  let rose =
    cur.ci95_lo > base.ci95_hi && cur.value > base.value *. (1.0 +. t)
  and fell =
    cur.ci95_hi < base.ci95_lo && cur.value < base.value *. (1.0 -. t)
  in
  if not (rose || fell) then Pass
  else if rose = cur.higher_better then Improvement
  else Regression

type check = {
  c_key : string;
  c_base : float;
  c_cur : float;
  c_verdict : verdict;
}

let config_string config =
  String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ num v) config)

(** Gate a fresh document against a baseline. Rows present on only one
    side are skipped (the suite changed; regenerate the baseline). A
    baseline of another suite or another workload is an error, not a
    regression. *)
let gate ?threshold ~baseline fresh =
  if baseline.suite <> fresh.suite then
    Error
      (Printf.sprintf "baseline is for suite %s, the run is %s" baseline.suite
         fresh.suite)
  else if List.sort compare baseline.config <> List.sort compare fresh.config
  then
    Error
      (Printf.sprintf
         "config mismatch: baseline (%s) vs run (%s); regenerate it with \
          --save-baseline"
         (config_string baseline.config) (config_string fresh.config))
  else
    Ok
      (List.filter_map
         (fun cur ->
           List.find_opt (fun b -> b.key = cur.key) baseline.rows
           |> Option.map (fun base ->
                  {
                    c_key = cur.key;
                    c_base = base.value;
                    c_cur = cur.value;
                    c_verdict = verdict ?threshold ~base cur;
                  }))
         fresh.rows)

let passed checks = not (List.exists (fun c -> c.c_verdict = Regression) checks)

let render checks =
  let t =
    Tablefmt.create
      ~aligns:Tablefmt.[| Left; Right; Right; Right; Left |]
      [| "key"; "baseline"; "current"; "move"; "verdict" |]
  in
  List.iter
    (fun c ->
      Tablefmt.add_row t
        [|
          c.c_key;
          Printf.sprintf "%.8g" c.c_base;
          Printf.sprintf "%.8g" c.c_cur;
          (if c.c_base = 0.0 then "-"
           else
             Printf.sprintf "%+.1f%%"
               (100.0 *. (c.c_cur -. c.c_base) /. c.c_base));
          verdict_name c.c_verdict;
        |])
    checks;
  Tablefmt.render t
