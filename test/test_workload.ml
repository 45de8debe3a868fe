(* Workload: generator distributions match the paper's Section 8 spec, and
   the scenario driver is deterministic and engine-agnostic — the same
   config must present the same stream to every engine, making maturity
   logs diffable. *)

open Rts_workload
module Stats = Rts_util.Stats
open Rts_core

let test_element_values_in_domain () =
  let g = Generator.create ~dim:2 ~seed:1 () in
  for _ = 1 to 5_000 do
    let e = Generator.element g in
    Alcotest.(check int) "dim" 2 (Array.length e.Types.value);
    Array.iter
      (fun x ->
        Alcotest.(check bool) "in [0, 1e5)" true (x >= 0. && x < Generator.domain))
      e.Types.value
  done

let test_weights_gaussian () =
  let g = Generator.create ~dim:1 ~seed:2 () in
  let xs = Array.init 20_000 (fun _ -> float_of_int (Generator.element g).Types.weight) in
  let s = Stats.summarize xs in
  Alcotest.(check bool) "all >= 1" true (s.min >= 1.);
  Alcotest.(check bool) "mean ~100" true (abs_float (s.mean -. 100.) < 1.);
  Alcotest.(check bool) "stddev ~15" true (abs_float (s.stddev -. 15.) < 1.)

let test_unit_weights () =
  let g = Generator.create ~dim:1 ~seed:3 ~unit_weights:true () in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "w=1" 1 (Generator.element g).Types.weight
  done;
  Alcotest.(check (float 0.)) "mean weight" 1. (Generator.mean_weight g)

let test_rectangles_inside_domain () =
  List.iter
    (fun dim ->
      let g = Generator.create ~dim ~seed:4 () in
      for _ = 1 to 2_000 do
        let r = Generator.rectangle g in
        for k = 0 to dim - 1 do
          Alcotest.(check bool) "lo >= 0" true (r.Types.lo.(k) >= 0.);
          Alcotest.(check bool) "hi <= domain" true (r.Types.hi.(k) <= Generator.domain)
        done
      done)
    [ 1; 2; 3 ]

let test_rectangle_volume_10pct () =
  List.iter
    (fun dim ->
      let g = Generator.create ~dim ~seed:5 () in
      let r = Generator.rectangle g in
      let vol = ref 1. in
      for k = 0 to dim - 1 do
        vol := !vol *. (r.Types.hi.(k) -. r.Types.lo.(k))
      done;
      let frac = !vol /. (Generator.domain ** float_of_int dim) in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d volume fraction ~0.1 (got %f)" dim frac)
        true
        (abs_float (frac -. 0.1) < 1e-9))
    [ 1; 2; 3 ]

let test_stab_probability_empirical () =
  (* A uniform element should stab ~10% of queries. *)
  let g = Generator.create ~dim:2 ~seed:6 () in
  Alcotest.(check (float 1e-9)) "predicted" 0.1 (Generator.expected_stab_probability g);
  let rects = List.init 300 (fun _ -> Generator.rectangle g) in
  let hits = ref 0 and trials = ref 0 in
  for _ = 1 to 2_000 do
    let e = Generator.element g in
    List.iter
      (fun r ->
        incr trials;
        if Types.rect_contains r e.Types.value then incr hits)
      rects
  done;
  let p = float_of_int !hits /. float_of_int !trials in
  Alcotest.(check bool) (Printf.sprintf "empirical ~0.1 (got %f)" p) true
    (abs_float (p -. 0.1) < 0.02)

let test_p_del_calibration () =
  (* P(survive expected maturity) must be 10%. *)
  let g = Generator.create ~dim:1 ~seed:7 () in
  let tau = 200_000 in
  let p = Generator.p_del g ~tau in
  let steps = float_of_int tau /. 10. in
  let survive = (1. -. p) ** steps in
  Alcotest.(check bool) (Printf.sprintf "survival ~0.1 (got %f)" survive) true
    (abs_float (survive -. 0.1) < 1e-6)

let test_lifetime_distribution () =
  let g = Generator.create ~dim:1 ~seed:8 () in
  let tau = 100_000 in
  (* fraction of lifetimes exceeding tau/10 should be ~10% *)
  let n = 20_000 in
  let long = ref 0 in
  for _ = 1 to n do
    if Generator.lifetime g ~tau > tau / 10 then incr long
  done;
  let frac = float_of_int !long /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "long-lived ~0.1 (got %f)" frac) true
    (abs_float (frac -. 0.1) < 0.02)

let test_zipf_values_in_domain_and_skewed () =
  let g = Generator.create ~value_dist:(Generator.Zipf 1.0) ~dim:1 ~seed:10 () in
  let counts = Hashtbl.create 64 in
  for _ = 1 to 20_000 do
    let e = Generator.element g in
    let x = e.Types.value.(0) in
    Alcotest.(check bool) "in domain" true (x >= 0. && x < Generator.domain);
    let bucket = int_of_float (x /. Generator.domain *. 100.) in
    Hashtbl.replace counts bucket (1 + Option.value ~default:0 (Hashtbl.find_opt counts bucket))
  done;
  (* skew: the hottest percentile bucket must be far above the mean load *)
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool)
    (Printf.sprintf "hot bucket %dx mean" (max_count * 100 / 20_000))
    true
    (max_count > 3 * (20_000 / 100))

let test_clustered_values () =
  let g = Generator.create ~value_dist:(Generator.Clustered 3) ~dim:2 ~seed:11 () in
  for _ = 1 to 5_000 do
    let e = Generator.element g in
    Array.iter
      (fun x -> Alcotest.(check bool) "in domain" true (x >= 0. && x < Generator.domain))
      e.Types.value
  done

let test_generator_determinism () =
  let a = Generator.create ~dim:2 ~seed:9 () in
  let b = Generator.create ~dim:2 ~seed:9 () in
  for _ = 1 to 500 do
    let ea = Generator.element a and eb = Generator.element b in
    Alcotest.(check bool) "same elements" true (ea = eb)
  done

(* ---- scenario driver ---- *)

let small_cfg =
  {
    Scenario.default with
    Scenario.initial_queries = 200;
    tau = 2_000;
    max_elements = 30_000;
    chunk = 256;
  }

let test_skewed_scenario_equivalence () =
  (* Engines must agree under skew just as under uniform. *)
  let cfg =
    { small_cfg with Scenario.value_dist = Generator.Zipf 1.1; initial_queries = 150 }
  in
  let r1 = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run cfg (fun ~dim -> Baseline_engine.make ~dim) in
  Alcotest.(check (list (pair int int))) "dt = baseline under zipf" r2.maturity_log
    r1.maturity_log

let test_scenario_static_completes () =
  let r = Scenario.run small_cfg (fun ~dim -> Dt_engine.make ~dim) in
  Alcotest.(check int) "all queries accounted" r.registered (r.matured + r.terminated);
  Alcotest.(check bool) "some matured" true (r.matured > 0);
  Alcotest.(check bool) "some terminated" true (r.terminated > 0);
  Alcotest.(check bool) "stopped before cap" true (r.elements < small_cfg.max_elements);
  Alcotest.(check bool) "trace nonempty" true (Array.length r.trace > 1)

let test_scenario_maturity_rate () =
  (* p_del calibration: ~10% of queries should reach maturity. *)
  let cfg = { small_cfg with Scenario.initial_queries = 2_000; tau = 5_000; max_elements = 200_000 } in
  let r = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let frac = float_of_int r.matured /. float_of_int r.registered in
  Alcotest.(check bool) (Printf.sprintf "maturity fraction ~0.1 (got %f)" frac) true
    (frac > 0.05 && frac < 0.2)

let test_scenario_engine_agnostic () =
  (* Same config, different engines: identical maturity logs. *)
  let r1 = Scenario.run small_cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run small_cfg (fun ~dim -> Baseline_engine.make ~dim) in
  let r3 = Scenario.run small_cfg (fun ~dim:_ -> Stab1d_engine.make ()) in
  Alcotest.(check (list (pair int int))) "dt = baseline" r2.maturity_log r1.maturity_log;
  Alcotest.(check (list (pair int int))) "stab = baseline" r2.maturity_log r3.maturity_log;
  Alcotest.(check int) "same terminations" r2.terminated r1.terminated;
  Alcotest.(check int) "same registrations" r2.registered r1.registered

let test_scenario_stochastic () =
  let cfg =
    {
      small_cfg with
      Scenario.mode = Scenario.Stochastic { p_ins = 0.3; horizon = 10_000 };
      max_elements = 15_000;
    }
  in
  let r1 = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run cfg (fun ~dim -> Baseline_engine.make ~dim) in
  Alcotest.(check bool) "insertions happened" true
    (r1.registered > cfg.initial_queries + 2_000);
  Alcotest.(check (list (pair int int))) "dt = baseline" r2.maturity_log r1.maturity_log

let test_scenario_fixed_load () =
  let cfg =
    { small_cfg with Scenario.mode = Scenario.Fixed_load; max_elements = 15_000 }
  in
  let r1 = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run cfg (fun ~dim -> Baseline_engine.make ~dim) in
  Alcotest.(check (list (pair int int))) "dt = baseline" r2.maturity_log r1.maturity_log;
  (* fixed load: alive count constant at the end of every chunk *)
  Array.iter
    (fun (tp : Scenario.trace_point) ->
      Alcotest.(check int) "constant alive" cfg.initial_queries tp.alive)
    r1.trace;
  Alcotest.(check bool) "replacements happened" true (r1.registered > cfg.initial_queries)

let test_scenario_2d () =
  let cfg = { small_cfg with Scenario.dim = 2; max_elements = 20_000 } in
  let r1 = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run cfg (fun ~dim:_ -> Stab2d_engine.make ()) in
  let r3 = Scenario.run cfg (fun ~dim -> Rtree_engine.make ~dim) in
  Alcotest.(check (list (pair int int))) "dt = seg-intv" r2.maturity_log r1.maturity_log;
  Alcotest.(check (list (pair int int))) "dt = r-tree" r3.maturity_log r1.maturity_log

let test_scenario_deterministic () =
  let r1 = Scenario.run small_cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run small_cfg (fun ~dim -> Dt_engine.make ~dim) in
  Alcotest.(check (list (pair int int))) "replay" r1.maturity_log r2.maturity_log;
  Alcotest.(check int) "same ops" r1.ops r2.ops

(* Regression: validate_bench's drift column on zero-budget rows used to
   render the 0/0 division as -nan%; such rows must come out as text. *)
let test_drift_cell () =
  let cell budget actual = Rts_workload.Bench_targets.drift_cell ~budget ~actual in
  Alcotest.(check string) "zero budget met" "n/a" (cell 0.0 0.0);
  Alcotest.(check string) "zero budget exceeded" "OVER (zero budget)" (cell 0.0 3.0);
  Alcotest.(check string) "over" "+10.0%" (cell 100.0 110.0);
  Alcotest.(check string) "under" "-25.0%" (cell 100.0 75.0);
  Alcotest.(check string) "met exactly" "+0.0%" (cell 100.0 100.0);
  List.iter
    (fun (b, a) ->
      let s = cell b a in
      Alcotest.(check bool)
        (Printf.sprintf "no nan for budget=%g actual=%g" b a)
        false
        (let lower = String.lowercase_ascii s in
         (* substring check without Str: any rendered nan is a bug *)
         let rec has i =
           i + 3 <= String.length lower && (String.sub lower i 3 = "nan" || has (i + 1))
         in
         has 0))
    [ (0.0, 0.0); (0.0, 5.0); (1.0, 0.0); (7.0, 7.0) ]

module Json = Rts_obs.Json

let test_budget_key () =
  let key keying fields = Bench_targets.budget_key keying (Json.Obj fields) in
  let check name expected got = Alcotest.(check (option string)) name expected got in
  let dt = ("engine", Json.Str "dt") in
  check "by batch" (Some "dt/64") (key By_batch [ dt; ("batch", Json.int 64) ]);
  check "by shards" (Some "dt/k4") (key By_shards [ dt; ("shards", Json.int 4) ]);
  check "by engine" (Some "crprecis") (key By_engine [ ("engine", Json.Str "crprecis") ]);
  check "no budgets" None (key No_budgets [ dt; ("batch", Json.int 1); ("shards", Json.int 1) ]);
  check "batch missing" None (key By_batch [ dt; ("shards", Json.int 2) ]);
  check "shards missing" None (key By_shards [ dt; ("batch", Json.int 1024) ]);
  check "engine missing" None (key By_engine [ ("batch", Json.int 1) ])

(* The manifest and the registry cover each other: every figure in
   tools/budgets.json is a registered target with a budget keying, every
   such target has an entry, and every entry holds numbers only. *)
let test_budget_manifest () =
  (* dune runtest runs in _build/default/test; dune exec in the repo root *)
  let path = List.find Sys.file_exists [ "../tools/budgets.json"; "tools/budgets.json" ] in
  let manifest =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Json.Obj fields -> List.filter (fun (k, _) -> k.[0] <> '_') fields
    | _ -> Alcotest.fail "tools/budgets.json is not an object"
  in
  let is_num k j = Option.bind (Json.member k j) Json.get_num <> None in
  List.iter
    (fun (figure, entry) ->
      (match Bench_targets.find figure with
      | Some t ->
          Alcotest.(check bool) (figure ^ " has a keying") true (t.budget_keying <> No_budgets)
      | None -> Alcotest.failf "manifest figure %S is not a registered target" figure);
      Alcotest.(check bool) (figure ^ " scale") true (is_num "scale" entry);
      Alcotest.(check bool) (figure ^ " seed") true (is_num "seed" entry);
      match Json.member "budgets" entry with
      | Some (Json.Obj ((_ :: _) as keys)) ->
          List.iter
            (fun (key, ceilings) ->
              match ceilings with
              | Json.Obj counters ->
                  List.iter
                    (fun (counter, v) ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s %s %s is a number" figure key counter)
                        true (Json.get_num v <> None))
                    counters
              | _ -> Alcotest.failf "%s: budgets entry %S is not an object" figure key)
            keys
      | _ -> Alcotest.failf "%s: missing non-empty budgets object" figure)
    manifest;
  List.iter
    (fun (t : Bench_targets.t) ->
      if t.budget_keying <> No_budgets then
        Alcotest.(check bool)
          (t.name ^ " has a manifest entry")
          true (List.mem_assoc t.name manifest))
    Bench_targets.all

let () =
  Alcotest.run "workload"
    [
      ( "generator",
        [
          Alcotest.test_case "element values in domain" `Quick test_element_values_in_domain;
          Alcotest.test_case "weights gaussian" `Quick test_weights_gaussian;
          Alcotest.test_case "unit weights" `Quick test_unit_weights;
          Alcotest.test_case "rectangles inside domain" `Quick test_rectangles_inside_domain;
          Alcotest.test_case "rectangle volume 10%" `Quick test_rectangle_volume_10pct;
          Alcotest.test_case "stab probability" `Quick test_stab_probability_empirical;
          Alcotest.test_case "p_del calibration" `Quick test_p_del_calibration;
          Alcotest.test_case "lifetime distribution" `Quick test_lifetime_distribution;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "zipf skew" `Quick test_zipf_values_in_domain_and_skewed;
          Alcotest.test_case "clustered values" `Quick test_clustered_values;
          Alcotest.test_case "skewed scenario equivalence" `Quick
            test_skewed_scenario_equivalence;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "static completes" `Quick test_scenario_static_completes;
          Alcotest.test_case "maturity rate ~10%" `Quick test_scenario_maturity_rate;
          Alcotest.test_case "engine agnostic" `Quick test_scenario_engine_agnostic;
          Alcotest.test_case "stochastic mode" `Quick test_scenario_stochastic;
          Alcotest.test_case "fixed load mode" `Quick test_scenario_fixed_load;
          Alcotest.test_case "2d scenario" `Quick test_scenario_2d;
          Alcotest.test_case "deterministic replay" `Quick test_scenario_deterministic;
        ] );
      ( "bench-tools",
        [
          Alcotest.test_case "drift cell rendering" `Quick test_drift_cell;
          Alcotest.test_case "budget key per keying" `Quick test_budget_key;
          Alcotest.test_case "budget manifest covers the registry" `Quick test_budget_manifest;
        ] );
    ]
