(* The timing wrappers must be pass-through: on every workload, at a
   small scale, a traced pass yields the same maturity log and the same
   work counters as an untraced pass, bit for bit, and both match the
   reference engine's output. *)

open Rts_perfbench

let check (w : Workloads.t) ~by =
  let w = Workloads.scaled w ~by in
  let dir = "passthrough-" ^ w.name in
  Pipeline.remove_tree dir;
  Sys.mkdir dir 0o755;
  Gen.generate w ~seed:7 ~dir;
  let script = match w.kind with Workloads.Session _ -> Gen.read_script dir | _ -> [||] in
  let untraced = Pipeline.run Span.off w ~dir ~script in
  let tr = Span.create () in
  let traced = Pipeline.run tr w ~dir ~script in
  let fail what = failwith (Printf.sprintf "%s: %s" w.name what) in
  if untraced.log = [] then fail "no maturities at test scale";
  if untraced.log <> Pipeline.reference w ~dir ~script then fail "output differs from the reference";
  if traced.log <> untraced.log then fail "traced maturity log differs";
  if traced.counters <> untraced.counters then fail "traced work counters differ";
  if Span.calls tr Span.engine_feed = 0 then fail "no engine feed was timed";
  Pipeline.remove_tree dir;
  Printf.printf "%s: %d maturities, %d counters identical traced and untraced\n" w.name
    (List.length traced.log) (List.length traced.counters)

let () =
  List.iter
    (fun (name, by) -> check (Workloads.find name) ~by)
    [ ("cli_2d", 0.05); ("cli_wal", 0.05); ("serve_session", 0.05) ]
