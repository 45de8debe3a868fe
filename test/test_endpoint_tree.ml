(* Endpoint_tree: canonical-set structure (fanout bounds), exact counter
   semantics, DT telemetry bounds (the in-tree analogue of the
   O(h log tau) message bound), removal, and weight accounting — the
   building block underneath Dt_engine. *)

open Rts_core
module Prng = Rts_util.Prng

let q ~id ~threshold bounds = { Types.id; rect = Types.rect_make bounds; threshold }

let elem1 x w = { Types.value = [| x |]; weight = w }

let build1 ?(on_mature = fun _ -> ()) batch = Endpoint_tree.build ~dim:1 ~on_mature batch

let test_empty_tree () =
  let t = build1 [] in
  Alcotest.(check int) "alive" 0 (Endpoint_tree.alive_count t);
  Endpoint_tree.process t (elem1 5. 1);
  Alcotest.(check int) "still empty" 0 (Endpoint_tree.alive_count t)

let test_single_query_basic () =
  let matured = ref [] in
  let t =
    build1 ~on_mature:(fun id -> matured := id :: !matured)
      [ (q ~id:7 ~threshold:3 [| (10., 20.) |], 3) ]
  in
  Alcotest.(check int) "W=0" 0 (Endpoint_tree.current_weight t 7);
  Endpoint_tree.process t (elem1 15. 1);
  Alcotest.(check int) "W=1" 1 (Endpoint_tree.current_weight t 7);
  Endpoint_tree.process t (elem1 9.9 1);
  (* below range *)
  Endpoint_tree.process t (elem1 20. 1);
  (* right endpoint excluded *)
  Alcotest.(check int) "W still 1" 1 (Endpoint_tree.current_weight t 7);
  Endpoint_tree.process t (elem1 10. 1);
  (* left endpoint included *)
  Alcotest.(check int) "W=2" 2 (Endpoint_tree.current_weight t 7);
  Alcotest.(check (list int)) "not yet" [] !matured;
  Endpoint_tree.process t (elem1 19.999 1);
  Alcotest.(check (list int)) "matured" [ 7 ] !matured;
  Alcotest.(check int) "alive" 0 (Endpoint_tree.alive_count t);
  Alcotest.(check bool) "no longer alive" false (Endpoint_tree.is_alive t 7)

let test_maturity_exact_with_weights () =
  (* Crossing, not landing: threshold 10, weights 4+4+4 -> maturity on the
     third element. *)
  let matured = ref [] in
  let t =
    build1 ~on_mature:(fun id -> matured := id :: !matured)
      [ (q ~id:1 ~threshold:10 [| (0., 1.) |], 10) ]
  in
  Endpoint_tree.process t (elem1 0.5 4);
  Endpoint_tree.process t (elem1 0.5 4);
  Alcotest.(check (list int)) "8 < 10" [] !matured;
  Endpoint_tree.process t (elem1 0.5 4);
  Alcotest.(check (list int)) "12 >= 10" [ 1 ] !matured

let test_shared_endpoints () =
  (* Queries sharing endpoints exercise canonical-set sharing (Q(u)). *)
  let matured = ref [] in
  let batch =
    [
      (q ~id:1 ~threshold:2 [| (0., 10.) |], 2);
      (q ~id:2 ~threshold:2 [| (0., 10.) |], 2);
      (q ~id:3 ~threshold:2 [| (5., 10.) |], 2);
      (q ~id:4 ~threshold:2 [| (0., 5.) |], 2);
    ]
  in
  let t = build1 ~on_mature:(fun id -> matured := id :: !matured) batch in
  Endpoint_tree.process t (elem1 7. 1);
  Endpoint_tree.process t (elem1 2. 1);
  (* ids 1 and 2 have seen 2; ids 3 and 4 have seen 1 each *)
  Alcotest.(check (list int)) "1,2 matured" [ 1; 2 ] (List.sort compare !matured);
  Alcotest.(check int) "W(3)" 1 (Endpoint_tree.current_weight t 3);
  Alcotest.(check int) "W(4)" 1 (Endpoint_tree.current_weight t 4)

let test_remove () =
  let t = build1 [ (q ~id:1 ~threshold:5 [| (0., 10.) |], 5); (q ~id:2 ~threshold:5 [| (0., 10.) |], 5) ] in
  Endpoint_tree.remove t 1;
  Alcotest.(check int) "alive" 1 (Endpoint_tree.alive_count t);
  Alcotest.check_raises "double remove" Not_found (fun () -> Endpoint_tree.remove t 1);
  Alcotest.check_raises "weight of removed" Not_found (fun () ->
      ignore (Endpoint_tree.current_weight t 1));
  (* removed query must not mature *)
  let matured = ref [] in
  let t2 =
    build1 ~on_mature:(fun id -> matured := id :: !matured)
      [ (q ~id:1 ~threshold:1 [| (0., 10.) |], 1); (q ~id:2 ~threshold:2 [| (0., 10.) |], 2) ]
  in
  Endpoint_tree.remove t2 1;
  Endpoint_tree.process t2 (elem1 5. 1);
  Endpoint_tree.process t2 (elem1 5. 1);
  Alcotest.(check (list int)) "only 2" [ 2 ] !matured

let test_remaining () =
  let t = build1 [ (q ~id:1 ~threshold:10 [| (0., 10.) |], 10) ] in
  Endpoint_tree.process t (elem1 5. 3);
  Alcotest.(check int) "remaining" 7 (Endpoint_tree.remaining t 1);
  Alcotest.(check int) "weight" 3 (Endpoint_tree.current_weight t 1)

let test_alive_queries_snapshot () =
  let t =
    build1
      [ (q ~id:1 ~threshold:10 [| (0., 10.) |], 10); (q ~id:2 ~threshold:20 [| (5., 15.) |], 20) ]
  in
  Endpoint_tree.process t (elem1 7. 4);
  let snap = List.sort compare (Endpoint_tree.alive_queries t) in
  match snap with
  | [ (q1, r1); (q2, r2) ] ->
      Alcotest.(check int) "q1 id" 1 q1.Types.id;
      Alcotest.(check int) "q1 remaining" 6 r1;
      Alcotest.(check int) "q2 id" 2 q2.Types.id;
      Alcotest.(check int) "q2 remaining" 16 r2
  | _ -> Alcotest.fail "expected two alive queries"

let test_migration_semantics () =
  (* Rebuilding a tree from alive_queries must preserve exact maturity:
     the remaining thresholds "carry" the accumulated weight. *)
  let matured = ref [] in
  let t1 = build1 [ (q ~id:1 ~threshold:10 [| (0., 10.) |], 10) ] in
  Endpoint_tree.process t1 (elem1 5. 6);
  let batch = Endpoint_tree.alive_queries t1 in
  let t2 = Endpoint_tree.build ~dim:1 ~on_mature:(fun id -> matured := id :: !matured) batch in
  Endpoint_tree.process t2 (elem1 5. 3);
  Alcotest.(check (list int)) "6+3 < 10" [] !matured;
  Endpoint_tree.process t2 (elem1 5. 1);
  Alcotest.(check (list int)) "6+3+1 >= 10" [ 1 ] !matured

let test_fanout_bound_1d () =
  (* h_q <= 2 levels' worth: for a tree on <= 2m endpoints, the canonical
     set has at most 2 ceil(log2(2m)) nodes. *)
  let rng = Prng.create ~seed:9 in
  let m = 256 in
  let batch =
    List.init m (fun id ->
        let a = Prng.float rng 1000. in
        let b = a +. 1. +. Prng.float rng 500. in
        (q ~id ~threshold:1000 [| (a, b) |], 1000))
  in
  let t = build1 batch in
  let log2m = int_of_float (ceil (log (float_of_int (2 * m)) /. log 2.)) in
  List.iter
    (fun ((qq : Types.query), _) ->
      let h = Endpoint_tree.fanout t qq.id in
      Alcotest.(check bool)
        (Printf.sprintf "h_q=%d <= 2*(log2m+1)=%d" h (2 * (log2m + 1)))
        true
        (h >= 1 && h <= 2 * (log2m + 1)))
    batch

let test_fanout_bound_2d () =
  let rng = Prng.create ~seed:10 in
  let m = 128 in
  let batch =
    List.init m (fun id ->
        let mk () =
          let a = Prng.float rng 1000. in
          (a, a +. 1. +. Prng.float rng 500.)
        in
        ({ Types.id; rect = Types.rect_make [| mk (); mk () |]; threshold = 1000 }, 1000))
  in
  let t = Endpoint_tree.build ~dim:2 ~on_mature:(fun _ -> ()) batch in
  let log2m = ceil (log (float_of_int (2 * m)) /. log 2.) +. 1. in
  let bound = int_of_float (4. *. log2m *. log2m) in
  List.iter
    (fun ((qq : Types.query), _) ->
      let h = Endpoint_tree.fanout t qq.id in
      Alcotest.(check bool)
        (Printf.sprintf "h_q=%d <= O(log^2 m)=%d" h bound)
        true (h >= 1 && h <= bound))
    batch

let test_counters_exact_vs_naive () =
  (* Random stream: W from the tree must equal a naive per-query count. *)
  let rng = Prng.create ~seed:11 in
  let m = 60 in
  let batch =
    List.init m (fun id ->
        let a = float_of_int (Prng.int rng 50) in
        let b = a +. 1. +. float_of_int (Prng.int rng 30) in
        (q ~id ~threshold:1_000_000 [| (a, b) |], 1_000_000))
  in
  let t = build1 batch in
  let naive = Array.make m 0 in
  for _ = 1 to 2000 do
    let x = float_of_int (Prng.int rng 90) in
    let w = 1 + Prng.int rng 9 in
    Endpoint_tree.process t (elem1 x w);
    List.iter
      (fun ((qq : Types.query), _) ->
        if Types.rect_contains qq.rect [| x |] then naive.(qq.id) <- naive.(qq.id) + w)
      batch
  done;
  List.iter
    (fun ((qq : Types.query), _) ->
      Alcotest.(check int)
        (Printf.sprintf "W(q%d)" qq.id)
        naive.(qq.id)
        (Endpoint_tree.current_weight t qq.id))
    batch

let test_telemetry_bounds () =
  (* Signals and round-ends are the in-tree image of the DT message bound:
     per query O(h log tau) signals overall. We check a generous concrete
     constant on a workload that matures everything. *)
  let rng = Prng.create ~seed:12 in
  let m = 100 and tau = 5_000 in
  let matured = ref 0 in
  let batch =
    List.init m (fun id ->
        let a = float_of_int (Prng.int rng 40) in
        let b = a +. 5. +. float_of_int (Prng.int rng 20) in
        (q ~id ~threshold:tau [| (a, b) |], tau))
  in
  let t = Endpoint_tree.build ~dim:1 ~on_mature:(fun _ -> incr matured) batch in
  let i = ref 0 in
  while Endpoint_tree.alive_count t > 0 && !i < 2_000_000 do
    let x = float_of_int (Prng.int rng 70) in
    Endpoint_tree.process t (elem1 x (1 + Prng.int rng 9));
    incr i
  done;
  Alcotest.(check int) "all matured" m !matured;
  let st = Endpoint_tree.stats t in
  let log2 x = log (float_of_int x) /. log 2. in
  let h_max = 2. *. (log2 (2 * m) +. 1.) in
  let per_query = 8. *. h_max *. (log2 tau +. 2.) in
  let bound = int_of_float (float_of_int m *. per_query) in
  Alcotest.(check bool)
    (Printf.sprintf "signals %d <= O(m h log tau) = %d" st.signals bound)
    true (st.signals <= bound);
  Alcotest.(check bool)
    (Printf.sprintf "round ends %d <= O(m log tau) = %d" st.round_ends
       (int_of_float (float_of_int m *. (log2 tau +. 2.) *. 2.)))
    true
    (st.round_ends <= int_of_float (float_of_int m *. (log2 tau +. 2.) *. 2.))

let test_one_sided_query () =
  let matured = ref [] in
  let t =
    Endpoint_tree.build ~dim:1
      ~on_mature:(fun id -> matured := id :: !matured)
      [ ({ Types.id = 1; rect = Types.rect_make [| (100., infinity) |]; threshold = 2 }, 2) ]
  in
  Endpoint_tree.process t (elem1 1e12 1);
  Endpoint_tree.process t (elem1 99. 1);
  Alcotest.(check (list int)) "not yet" [] !matured;
  Endpoint_tree.process t (elem1 100. 1);
  Alcotest.(check (list int)) "matured via +inf side" [ 1 ] !matured

let test_build_validation () =
  Alcotest.check_raises "remaining < 1"
    (Invalid_argument "Endpoint_tree.build: remaining < 1") (fun () ->
      ignore (build1 [ (q ~id:1 ~threshold:5 [| (0., 1.) |], 0) ]));
  Alcotest.check_raises "remaining > threshold"
    (Invalid_argument "Endpoint_tree.build: remaining exceeds threshold") (fun () ->
      ignore (build1 [ (q ~id:1 ~threshold:5 [| (0., 1.) |], 6) ]));
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Endpoint_tree.build: duplicate query id") (fun () ->
      ignore
        (build1
           [ (q ~id:1 ~threshold:5 [| (0., 1.) |], 5); (q ~id:1 ~threshold:5 [| (2., 3.) |], 5) ]))

let test_space_counts () =
  let batch =
    [
      (q ~id:1 ~threshold:10 [| (0., 10.) |], 10);
      (q ~id:2 ~threshold:10 [| (5., 15.) |], 10);
      (q ~id:3 ~threshold:10 [| (0., 15.) |], 10);
    ]
  in
  let t = build1 batch in
  let s = Endpoint_tree.space t in
  let fanouts = List.map (fun ((qq : Types.query), _) -> Endpoint_tree.fanout t qq.id) batch in
  Alcotest.(check int) "live entries = sum of fanouts" (List.fold_left ( + ) 0 fanouts)
    s.live_entries;
  Alcotest.(check bool) "has nodes" true (s.tree_nodes > 0);
  Endpoint_tree.remove t 1;
  let s' = Endpoint_tree.space t in
  Alcotest.(check int) "entries drop by h_1"
    (s.live_entries - List.nth fanouts 0)
    s'.live_entries

let prop_weight_exact =
  QCheck.Test.make ~count:100 ~name:"tree weight = naive count (random)"
    QCheck.(triple small_int (int_range 1 3) (int_range 1 40))
    (fun (seed, dim, m) ->
      let rng = Prng.create ~seed in
      let batch =
        List.init m (fun id ->
            let bounds =
              Array.init dim (fun _ ->
                  let a = float_of_int (Prng.int rng 12) in
                  (a, a +. 1. +. float_of_int (Prng.int rng 6)))
            in
            ({ Types.id; rect = Types.rect_make bounds; threshold = max_int / 2 }, max_int / 2))
      in
      let t = Endpoint_tree.build ~dim ~on_mature:(fun _ -> ()) batch in
      let naive = Array.make m 0 in
      for _ = 1 to 300 do
        let v = Array.init dim (fun _ -> float_of_int (Prng.int rng 20)) in
        let w = 1 + Prng.int rng 5 in
        Endpoint_tree.process t { Types.value = v; weight = w };
        List.iter
          (fun ((qq : Types.query), _) ->
            if Types.rect_contains qq.rect v then naive.(qq.id) <- naive.(qq.id) + w)
          batch
      done;
      List.for_all
        (fun ((qq : Types.query), _) -> Endpoint_tree.current_weight t qq.id = naive.(qq.id))
        batch)

(* Many queries share one tree's node counters: the slack heaps must
   keep increments cheap while every query still matures exactly. *)

let test_quiet_increments_cheap () =
  (* large thresholds, unit weights: most elements deliver no signal *)
  let matured = ref 0 in
  let t =
    build1 ~on_mature:(fun _ -> incr matured)
      (List.init 50 (fun id -> (q ~id ~threshold:1_000_000 [| (0., 10.) |], 1_000_000)))
  in
  for _ = 1 to 10_000 do
    Endpoint_tree.process t (elem1 5. 1)
  done;
  Alcotest.(check int) "nothing matured" 0 !matured;
  Alcotest.(check int) "weight exact" 10_000 (Endpoint_tree.current_weight t 0);
  let st = Endpoint_tree.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "signals %d << 50 x 10000 naive" st.signals)
    true (st.signals < 2_000)

let test_remove_mid_round () =
  (* a spans four element positions with a huge threshold, b two, c one;
     a is removed after many DT rounds and c still matures exactly *)
  let matured = ref [] in
  let t =
    build1 ~on_mature:(fun id -> matured := id :: !matured)
      [
        (q ~id:1 ~threshold:100_000 [| (0., 40.) |], 100_000);
        (q ~id:2 ~threshold:500 [| (0., 20.) |], 500);
        (q ~id:3 ~threshold:5_060 [| (0., 10.) |], 5_060);
      ]
  in
  for i = 0 to 199 do
    Endpoint_tree.process t (elem1 (5. +. (10. *. float_of_int (i mod 4))) 100)
  done;
  Alcotest.(check (list int)) "b matured" [ 2 ] !matured;
  Alcotest.(check int) "a weight" 20_000 (Endpoint_tree.current_weight t 1);
  Alcotest.(check int) "c remaining" 60 (Endpoint_tree.remaining t 3);
  Endpoint_tree.remove t 1;
  Endpoint_tree.process t (elem1 5. 59);
  Alcotest.(check (list int)) "c not early" [ 2 ] !matured;
  Endpoint_tree.process t (elem1 35. 1_000_000);
  Alcotest.(check (list int)) "removed a never fires" [ 2 ] !matured;
  Endpoint_tree.process t (elem1 5. 1);
  Alcotest.(check (list int)) "c fires at its threshold" [ 3; 2 ] !matured

let test_huge_weight_overshoot () =
  List.iter
    (fun (dim, bounds, value) ->
      let matured = ref [] in
      let t =
        Endpoint_tree.build ~dim
          ~on_mature:(fun id -> matured := id :: !matured)
          [ (q ~id:1 ~threshold:1_000_000 bounds, 1_000_000) ]
      in
      Endpoint_tree.process t { Types.value; weight = 50_000_000 };
      Alcotest.(check (list int)) (Printf.sprintf "%dD: matures at once" dim) [ 1 ] !matured;
      Endpoint_tree.process t { Types.value; weight = 50_000_000 };
      Alcotest.(check (list int)) (Printf.sprintf "%dD: exactly once" dim) [ 1 ] !matured)
    [ (1, [| (0., 10.) |], [| 5. |]); (2, [| (0., 10.); (0., 10.) |], [| 5.; 5. |]) ]

let test_signal_budget_narrow () =
  (* 100 single-position queries over 8 positions, driven to maturity:
     with one canonical node each, signals stay within O(m log tau) *)
  let rng = Prng.create ~seed:7 in
  let tau = 20_000 in
  let batch =
    List.init 100 (fun id ->
        let p = float_of_int (Prng.int rng 8) in
        (q ~id ~threshold:tau [| (p, p +. 1.) |], tau))
  in
  let t = build1 batch in
  while Endpoint_tree.alive_count t > 0 do
    Endpoint_tree.process t (elem1 (float_of_int (Prng.int rng 8) +. 0.5) (1 + Prng.int rng 20))
  done;
  let log2 x = log (float_of_int x) /. log 2. in
  let budget = int_of_float (100. *. 8. *. (log2 tau +. 2.)) in
  let st = Endpoint_tree.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "signals %d <= budget %d" st.signals budget)
    true (st.signals <= budget)

let test_maturity_step_vs_model () =
  (* 200 queries over 16 element positions: every element matures
     exactly the queries whose scalar model crosses its threshold *)
  let rng = Prng.create ~seed:5 in
  let matured = ref [] in
  let batch =
    List.init 200 (fun id ->
        let a = Prng.int rng 16 in
        let b = a + 1 + Prng.int rng (16 - a) in
        let threshold = 1 + Prng.int rng 500 in
        (q ~id ~threshold [| (float_of_int a, float_of_int b) |], threshold))
  in
  let t = build1 ~on_mature:(fun id -> matured := id :: !matured) batch in
  let acc = Array.make 200 0 in
  for step = 1 to 3_000 do
    let x = float_of_int (Prng.int rng 16) and w = 1 + Prng.int rng 10 in
    matured := [];
    Endpoint_tree.process t (elem1 x w);
    let expected =
      List.filter_map
        (fun ((qq : Types.query), threshold) ->
          if acc.(qq.id) < threshold && Types.rect_contains qq.rect [| x |] then begin
            acc.(qq.id) <- acc.(qq.id) + w;
            if acc.(qq.id) >= threshold then Some qq.id else None
          end
          else None)
        batch
    in
    Alcotest.(check (list int))
      (Printf.sprintf "step %d matures" step)
      expected (List.sort compare !matured)
  done;
  List.iter
    (fun ((qq : Types.query), threshold) ->
      if acc.(qq.id) < threshold then
        Alcotest.(check int) "surviving weight" acc.(qq.id) (Endpoint_tree.current_weight t qq.id))
    batch

let () =
  Alcotest.run "endpoint_tree"
    [
      ( "unit",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "single query basics" `Quick test_single_query_basic;
          Alcotest.test_case "maturity exact with weights" `Quick test_maturity_exact_with_weights;
          Alcotest.test_case "shared endpoints" `Quick test_shared_endpoints;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "remaining" `Quick test_remaining;
          Alcotest.test_case "alive_queries snapshot" `Quick test_alive_queries_snapshot;
          Alcotest.test_case "migration semantics" `Quick test_migration_semantics;
          Alcotest.test_case "fanout bound 1d" `Quick test_fanout_bound_1d;
          Alcotest.test_case "fanout bound 2d" `Quick test_fanout_bound_2d;
          Alcotest.test_case "counters exact vs naive" `Quick test_counters_exact_vs_naive;
          Alcotest.test_case "telemetry bounds" `Quick test_telemetry_bounds;
          Alcotest.test_case "one-sided query" `Quick test_one_sided_query;
          Alcotest.test_case "build validation" `Quick test_build_validation;
          Alcotest.test_case "space counts" `Quick test_space_counts;
        ] );
      ( "shared counters",
        [
          Alcotest.test_case "quiet increments are cheap" `Quick test_quiet_increments_cheap;
          Alcotest.test_case "remove mid-round" `Quick test_remove_mid_round;
          Alcotest.test_case "huge weight overshoot" `Quick test_huge_weight_overshoot;
          Alcotest.test_case "signal budget, narrow queries" `Quick test_signal_budget_narrow;
          Alcotest.test_case "maturity step vs scalar model" `Quick test_maturity_step_vs_model;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_weight_exact ]);
    ]
