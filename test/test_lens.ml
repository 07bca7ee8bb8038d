(* Tests for Graftlens (lens + flight): causal-id encoding, exemplar
   election and soundness (every emitted exemplar id resolves to a
   retained trace in the ring), flight-bundle byte-determinism, and
   the lens-off identity guarantee (reports unchanged byte-for-byte
   when tracing is disabled). *)

open Graft_slo

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Id encoding.                                                        *)
(* ------------------------------------------------------------------ *)

let test_tid_roundtrip () =
  for tenant = 0 to 63 do
    let tid = Lens.tid_of ~tenant ~seq:(tenant * 1009) in
    check_bool "id is nonzero" true (tid <> 0);
    check_int "tenant roundtrips" tenant (Lens.tenant_of_tid tid)
  done;
  (* The rendered form is what exemplars and Chrome args carry. *)
  check_string "canonical rendering" "0100000f"
    (Lens.tid_string (Lens.tid_of ~tenant:0 ~seq:15))

(* ------------------------------------------------------------------ *)
(* Exemplar election: worst retained op per histogram bucket.          *)
(* ------------------------------------------------------------------ *)

let subbits = 3

let mark tid lat =
  { Lens.om_tid = tid; om_class = "op:demux"; om_latency_us = lat }

let prop_exemplar_election =
  QCheck.Test.make ~count:200
    ~name:"exemplars pick the worst mark per bucket, sorted by bound"
    QCheck.(list_of_size Gen.(1 -- 40) (int_range 0 2_000_000))
    (fun lats ->
      let marks = List.mapi (fun i l -> mark (i + 1) l) lats in
      let exs = Lens.exemplars ~subbits marks in
      let layout = Graft_trace.Histo.create ~subbits () in
      (* Sorted, at most one per bound. *)
      let bounds = List.map fst exs in
      List.for_all2 ( = ) bounds (List.sort_uniq compare bounds)
      && List.for_all
           (fun (le, (m : Lens.op_mark)) ->
             (* The exemplar is a real mark, bucketed under its bound,
                and no mark in the same bucket beats it. *)
             List.memq m marks
             && Graft_trace.Histo.bound_of layout m.Lens.om_latency_us = le
             && List.for_all
                  (fun (m' : Lens.op_mark) ->
                    Graft_trace.Histo.bound_of layout m'.Lens.om_latency_us
                    <> le
                    || m'.Lens.om_latency_us <= m.Lens.om_latency_us)
                  marks)
           exs)

(* ------------------------------------------------------------------ *)
(* End-to-end: serve under the lens.                                   *)
(* ------------------------------------------------------------------ *)

(* The smoke config both pages and quarantines (its fault plan is part
   of the committed baseline), so it exercises retention and triggers
   the flight recorder. *)
let lens_cfg = { Serve.smoke with Serve.lens = true }

(* Every trace_id="..." occurrence in an exposition. *)
let extract_ids text =
  let ids = ref [] in
  let key = "trace_id=\"" in
  let kl = String.length key in
  let n = String.length text in
  for i = 0 to n - kl - 1 do
    if String.sub text i kl = key then
      let j = String.index_from text (i + kl) '"' in
      ids := String.sub text (i + kl) (j - i - kl) :: !ids
  done;
  List.rev !ids

let test_exemplar_soundness () =
  let r = Serve.run lens_cfg in
  let lo =
    match r.Serve.r_lens with
    | Some lo -> lo
    | None -> Alcotest.fail "lens on but no lens_out"
  in
  check_bool "smoke run retains ops" true (lo.Serve.lo_retained > 0);
  let marks =
    List.concat_map (fun (_, evs, _) -> Lens.markers evs) lo.Serve.lo_shards
  in
  check_int "one marker per retained op" lo.Serve.lo_retained
    (List.length marks);
  List.iter
    (fun (m : Lens.op_mark) ->
      let tenant = Lens.tenant_of_tid m.Lens.om_tid in
      check_bool "marker id decodes to a real tenant" true
        (tenant >= 0 && tenant < lens_cfg.Serve.tenants))
    marks;
  (* The smoke fault plan force-quarantines tenant 0's demux; its
     faulted ops must be among the retained evidence. *)
  check_bool "smoke run quarantines" true (r.Serve.r_quarantined > 0);
  check_bool "quarantined tenant's ops retained" true
    (List.exists
       (fun (m : Lens.op_mark) -> Lens.tenant_of_tid m.Lens.om_tid = 0)
       marks);
  (* Soundness: every exemplar id the exposition carries resolves to a
     retention marker still present in a ring. *)
  let ids = extract_ids (Graft_metrics.to_openmetrics ()) in
  check_bool "exposition carries exemplars" true (ids <> []);
  let retained =
    List.map (fun (m : Lens.op_mark) -> Lens.tid_string m.Lens.om_tid) marks
  in
  List.iter
    (fun id ->
      check_bool ("exemplar resolves: " ^ id) true (List.mem id retained))
    ids

let test_flight_determinism () =
  let r = Serve.run lens_cfg in
  let b1 = Flight.bundle r in
  let b2 = Flight.bundle (Serve.run lens_cfg) in
  check_bool "smoke run triggers the recorder" true (b1 <> []);
  check_string "manifest leads the bundle" "manifest.json" (fst (List.hd b1));
  check_int "bundle files" 5 (List.length b1);
  List.iter2
    (fun (n1, c1) (n2, c2) ->
      check_string "same file set" n1 n2;
      check_string ("byte-identical: " ^ n1) c1 c2)
    b1 b2;
  (* The trace file carries per-domain processes and causal ids. *)
  let trace = List.assoc "trace.json" b1 in
  check_bool "per-domain process named" true (contains trace "domain-0");
  check_bool "causal ids exported" true (contains trace "trace_id");
  (* Every file is JSON, and the manifest describes this run: the
     files beside it and the retained-op count the report carries. *)
  let module J = Graft_util.Minijson in
  let parse (name, contents) =
    match J.parse contents with
    | Ok doc -> (name, doc)
    | Error msg -> Alcotest.failf "%s does not parse: %s" name msg
  in
  let docs = List.map parse b1 in
  let get k doc =
    match J.member k doc with
    | Some v -> v
    | None -> Alcotest.failf "no %S" k
  in
  let manifest = List.assoc "manifest.json" docs in
  check_bool "manifest suite" true
    (J.to_string (get "suite" manifest) = Some "serve-flight");
  check_bool "manifest lists the other files" true
    (Option.map (List.filter_map J.to_string)
       (J.to_list (get "files" manifest))
    = Some (List.map fst (List.tl b1)));
  let retained =
    match r.Serve.r_lens with
    | Some lo -> lo.Serve.lo_retained
    | None -> Alcotest.fail "lens on but no lens_out"
  in
  check_bool "ops retained" true (retained > 0);
  let manifest_retained = J.to_float (get "retained_ops" manifest) in
  check_bool "manifest retained_ops is the run's" true
    (manifest_retained = Some (float_of_int retained));
  check_bool "manifest retained_ops is the report's" true
    (match J.parse (Serve.to_json r) with
    | Ok report ->
        J.to_float (get "retained_ops" (get "lens" report)) = manifest_retained
    | Error msg -> Alcotest.failf "serve JSON does not parse: %s" msg);
  let events =
    Option.get (J.to_list (get "traceEvents" (List.assoc "trace.json" docs)))
  in
  check_bool "process metadata parsed" true
    (List.exists
       (fun e -> J.to_string (get "name" e) = Some "process_name")
       events);
  check_bool "trace ids parsed" true
    (List.exists
       (fun e ->
         match J.member "args" e with
         | Some a -> J.member "trace_id" a <> None
         | None -> false)
       events)

let test_lens_off_identity () =
  let cfg = { Serve.smoke with Serve.lens = false } in
  let j1 = Serve.to_json (Serve.run cfg) in
  let j2 = Serve.to_json (Serve.run cfg) in
  check_string "lens-off JSON is reproducible" j1 j2;
  check_bool "no lens section when off" false (contains j1 "\"lens\"");
  check_bool "no flight bundle when off" true
    (Flight.bundle (Serve.run cfg) = []);
  (* And the on-path only adds: the off-report's fields survive. *)
  let jon = Serve.to_json (Serve.run lens_cfg) in
  check_bool "lens section when on" true (contains jon "\"lens\"")

let () =
  Alcotest.run "graft_lens"
    [
      ( "ids",
        [ Alcotest.test_case "tenant/seq roundtrip" `Quick test_tid_roundtrip ]
      );
      ( "exemplars",
        QCheck_alcotest.to_alcotest prop_exemplar_election
        :: [
             Alcotest.test_case "end-to-end soundness" `Quick
               test_exemplar_soundness;
           ] );
      ( "flight",
        [
          Alcotest.test_case "byte-deterministic bundle" `Quick
            test_flight_determinism;
          Alcotest.test_case "lens-off identity" `Quick test_lens_off_identity;
        ] );
    ]
