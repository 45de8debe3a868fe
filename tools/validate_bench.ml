(* validate_bench: the CI gate over the machine-readable benchmark output.

   Usage: validate_bench [--budgets FILE] BENCH_<figure>.json ...

   For every file: parse it with Rts_obs.Json (the same dependency-free
   parser the repository ships), check the document shape the bench
   promises (figure, params, runs with engine/total_seconds/trace), and
   enforce the paper's telemetry claim: whenever a run carries a DT
   message count, it must not exceed its analytic O(h log tau) budget
   (the bench emits both, plus a precomputed [dt_budget_ok] verdict that
   must agree).

   Which figures exist, which traces must advance strictly, and how a
   figure's runs are keyed in the budget manifest all come from the
   {!Bench_targets} registry shared with bench/main.ml — an unknown
   figure is an error, so a bench target cannot emit output this
   validator silently skips.

   Some rules are contracts rather than measurements and hold with or
   without [--budgets]: every [dt] run of a `perf` document allocates
   exactly 0 words per element, every approximate run of an `approx`
   document has 0 certified-bound violations, the in-bench verdicts are
   true, and a Bechamel micro row carries [ns_per_element] only if its
   fit is reliable (r² >= {!Bench_targets.reliable_r_square}). `shard`
   and `par` runs record the worker domains they used and the cores
   those domains could actually occupy (never more than params.cores).

   With [--budgets FILE] (the manifest, tools/budgets.json), each
   document is looked up by its figure, its params.scale and params.seed
   must equal the entry's, and every run is held to the ceilings under
   its {!Bench_targets.budget_key}. Each document then gets a markdown
   table — budget, actual, headroom, drift, status — that CI appends to
   the job summary:
     OK    — actual <= budget
     OVER  — actual exceeds the budget: a work regression, exit 1
     LOOSE — actual < 50% of budget: the ceiling would let a near-2x
             regression through; informational, exit 0
   plus a wall-clock table for information only. Wall clock never gates
   (shared runners are noisy, and a single-core runner cannot show
   parallel speedups at all); the work counters are the deterministic
   proxy. Exit 0 iff every file passes; problems go to stderr. *)

module Json = Rts_obs.Json
module Bench_targets = Rts_workload.Bench_targets

let errors = ref 0

let err fmt = Printf.ksprintf (fun s -> incr errors; Printf.eprintf "validate-bench: %s\n" s) fmt

let mem k j = Json.member k j

let num k j = Option.bind (mem k j) Json.get_num

let str k j = Option.bind (mem k j) Json.get_str

let require_num ~file ~where k j =
  match num k j with
  | Some v when Float.is_finite v -> Some v
  | Some _ -> err "%s: %s: %S is not finite" file where k; None
  | None -> err "%s: %s: missing number %S" file where k; None

let check_run ~file ~strict i run =
  let where = Printf.sprintf "runs[%d]" i in
  (match str "engine" run with
  | Some _ -> ()
  | None -> err "%s: %s: missing string \"engine\"" file where);
  ignore (require_num ~file ~where "total_seconds" run);
  ignore (require_num ~file ~where "per_op_us" run);
  ignore (require_num ~file ~where "elements" run);
  (match mem "metrics" run with
  | Some (Json.Obj _) -> ()
  | _ -> err "%s: %s: missing \"metrics\" object" file where);
  (match mem "trace" run with
  | Some (Json.List pts) ->
      let prev = ref neg_infinity in
      List.iteri
        (fun j pt ->
          let pwhere = Printf.sprintf "%s.trace[%d]" where j in
          (match require_num ~file ~where:pwhere "elements" pt with
          | Some e ->
              (* The first point may be the pre-stream registration batch
                 (elements = 0); after that the count must strictly grow. *)
              if strict && j > 0 && e <= !prev then
                err "%s: %s: elements %.0f not strictly greater than previous %.0f" file pwhere e
                  !prev;
              prev := e
          | None -> ());
          ignore (require_num ~file ~where:pwhere "avg_us" pt))
        pts
  | _ -> err "%s: %s: missing \"trace\" array" file where);
  (* Repetition stability (bench --reps): median must sit inside the
     observed envelope. *)
  (match (num "reps" run, num "total_seconds_min" run, num "total_seconds_max" run) with
  | Some reps, Some tmin, Some tmax ->
      if reps < 1.0 then err "%s: %s: reps %.0f < 1" file where reps;
      (match num "total_seconds" run with
      | Some t when t < tmin -. 1e-12 || t > tmax +. 1e-12 ->
          err "%s: %s: total_seconds %.6f outside [min=%.6f, max=%.6f]" file where t tmin tmax
      | _ -> ())
  | None, None, None -> ()
  | _ -> err "%s: %s: reps/total_seconds_min/total_seconds_max must appear together" file where);
  (* The paper's budget: if the run reports DT messages, they must fit. *)
  (match (num "dt_messages" run, num "dt_message_budget" run) with
  | Some messages, Some budget ->
      if messages > budget then
        err "%s: %s (%s): dt_messages %.0f exceeds O(h log tau) budget %.0f" file where
          (Option.value ~default:"?" (str "engine" run))
          messages budget;
      (match mem "dt_budget_ok" run with
      | Some (Json.Bool ok) ->
          if ok <> (messages <= budget) then
            err "%s: %s: dt_budget_ok disagrees with the numbers" file where
      | _ -> err "%s: %s: dt_messages present but dt_budget_ok missing" file where)
  | Some _, None -> err "%s: %s: dt_messages without dt_message_budget" file where
  | None, _ -> ());
  (* Networked runs (bench `net`): the useful-message count must fit the
     same analytic budget unless the fault spec degraded links, the
     never-early invariant is unconditional, and the maturity ordinals of
     the faulty run must match the zero-fault reference. *)
  match (num "net_useful_messages" run, num "net_message_bound" run) with
  | Some useful, Some bound ->
      let degraded = Option.value ~default:0.0 (num "net_degraded_sites" run) in
      if useful > bound && degraded <= 0.0 then
        err "%s: %s (%s): net_useful_messages %.0f exceeds bound %.0f with no degraded sites"
          file where
          (Option.value ~default:"?" (str "net_spec_name" run))
          useful bound;
      (match mem "net_bound_ok" run with
      | Some (Json.Bool ok) ->
          if ok <> (degraded > 0.0 || useful <= bound) then
            err "%s: %s: net_bound_ok disagrees with the numbers" file where
      | _ -> err "%s: %s: net_useful_messages present but net_bound_ok missing" file where);
      (match mem "net_never_early" run with
      | Some (Json.Bool true) -> ()
      | Some (Json.Bool false) -> err "%s: %s: net_never_early is false" file where
      | _ -> err "%s: %s: net run missing net_never_early" file where);
      (match mem "net_ordinal_match" run with
      | Some (Json.Bool true) -> ()
      | Some (Json.Bool false) -> err "%s: %s: net_ordinal_match is false" file where
      | _ -> err "%s: %s: net run missing net_ordinal_match" file where);
      ignore (require_num ~file ~where "net_messages" run);
      ignore (require_num ~file ~where "net_retransmits" run);
      (match str "net_spec" run with
      | Some _ -> ()
      | None -> err "%s: %s: net run missing string \"net_spec\"" file where)
  | Some _, None -> err "%s: %s: net_useful_messages without net_message_bound" file where
  | None, _ -> ()

(* perf documents: batched-ingestion shape and verdicts, the
   zero-allocation contract of the DT feed path (Rts_obs.Alloc
   calibrates out its own bracket, so an allocation-free loop reports
   exactly 0 at any scale, on every compiler leg), and micro rows that
   print a cost only where the Bechamel fit explains the samples. *)
let check_perf_doc ~file doc =
  (match Option.bind (mem "params" doc) (mem "batches") with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err "%s: perf document missing non-empty params.batches" file);
  (match mem "runs" doc with
  | Some (Json.List runs) ->
      List.iteri
        (fun i run ->
          if str "engine" run = Some "dt" then
            match Option.bind (mem "metrics" run) (num "allocated_words_per_element") with
            | Some w when w = 0.0 -> ()
            | Some w ->
                err "%s: runs[%d]: dt allocated_words_per_element = %g (must be 0)" file i w
            | None -> err "%s: runs[%d]: dt run missing allocated_words_per_element" file i)
        runs
  | _ -> ());
  (match mem "micro" doc with
  | Some (Json.List rows) ->
      List.iteri
        (fun i row ->
          let where = Printf.sprintf "micro[%d]" i in
          (match str "name" row with
          | Some _ -> ()
          | None -> err "%s: %s: missing string \"name\"" file where);
          match require_num ~file ~where "r_square" row with
          | Some r2 when r2 >= Bench_targets.reliable_r_square ->
              ignore (require_num ~file ~where "ns_per_element" row)
          | Some r2 ->
              if mem "ns_per_element" row <> None then
                err "%s: %s: ns_per_element on an unreliable fit (r_square %.4f < %g)" file where
                  r2 Bench_targets.reliable_r_square
          | None -> ())
        rows
  | _ -> err "%s: perf document missing \"micro\" array" file);
  ignore (require_num ~file ~where:"document" "dt_speedup_1024_vs_1" doc);
  match mem "dt_counters_no_increase" doc with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) ->
      err "%s: dt_counters_no_increase is false — batching added protocol work" file
  | _ -> err "%s: perf document missing bool \"dt_counters_no_increase\"" file

(* Per-run shape shared by the sharded sweeps (`shard` and `par`):
   shard count, executor, per-shard metric snapshots, and honest
   parallelism — [domains] is the worker-domain count the run used
   (1 is only consistent with the seq executor, which runs everything
   inline on the caller, or a single slot), and [cores] is how many of
   those domains the host could run at once, never more than the
   document's params.cores. *)
let check_sweep_run ~file ~figure ~param_cores i run =
  let where = Printf.sprintf "runs[%d]" i in
  let shards = require_num ~file ~where "shards" run in
  (match str "executor" run with
  | Some _ -> ()
  | None -> err "%s: %s: %s run missing string \"executor\"" file where figure);
  (match (require_num ~file ~where "domains" run, str "executor" run, shards) with
  | Some d, Some executor, Some k ->
      if d < 1.0 then err "%s: %s: domains %.0f < 1" file where d;
      if d = 1.0 && executor <> "seq" && k > 1.0 then
        err
          "%s: %s: domains = 1 but executor = %S with %.0f shards — a parallel executor must \
           record its true worker-domain count"
          file where executor k
  | _ -> ());
  (match (require_num ~file ~where "cores" run, param_cores) with
  | Some c, Some pc when c < 1.0 || c > pc ->
      err "%s: %s: cores %.0f outside [1, params.cores = %.0f]" file where c pc
  | _ -> ());
  match mem "per_shard_metrics" run with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err "%s: %s: %s run missing non-empty \"per_shard_metrics\"" file where figure

let check_sweep_runs ~file ~figure doc =
  let param_cores = Option.bind (mem "params" doc) (num "cores") in
  match mem "runs" doc with
  | Some (Json.List runs) -> List.iteri (check_sweep_run ~file ~figure ~param_cores) runs
  | _ -> ()

let check_speedup_obj ~file doc key =
  match mem key doc with
  | Some (Json.Obj ((_ :: _) as entries)) ->
      List.iter
        (fun (engine, v) ->
          match Json.get_num v with
          | Some s when Float.is_finite s && s > 0.0 -> ()
          | _ -> err "%s: %s.%s is not a positive number" file key engine)
        entries
  | _ -> err "%s: document missing non-empty %S object" file key

let check_verdict ~file doc key diverged =
  match mem key doc with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) -> err "%s: %s is false — %s" file key diverged
  | _ -> err "%s: document missing bool %S" file key

(* approx documents: the approximate tier's sweep. The error accounting
   is measured in-bench against a brute-force exact scan — the document
   must carry the verdicts (never-early vs the exact baseline, top-n
   parity with the full sort) as true, and every approximate run must
   report zero certified-bound violations plus the sketch footprint and
   observed-error gauges the budgets gate. *)
let check_approx_doc ~file doc =
  (match Option.bind (mem "params" doc) (num "probes") with
  | Some p when p >= 1.0 -> ()
  | _ -> err "%s: approx document missing params.probes >= 1" file);
  check_verdict ~file doc "approx_never_early"
    "an approximate engine matured a query before the exact baseline";
  check_verdict ~file doc "topn_matches_sort"
    "the binary threshold search diverged from the full sorted ranking";
  match mem "runs" doc with
  | Some (Json.List runs) ->
      List.iteri
        (fun i run ->
          let where = Printf.sprintf "runs[%d]" i in
          match str "engine" run with
          | Some ("crprecis" | "heavy") ->
              List.iter
                (fun g ->
                  match Option.bind (mem "metrics" run) (num g) with
                  | Some v when Float.is_finite v ->
                      if g = "approx_bound_violations" && v <> 0.0 then
                        err "%s: %s: approx_bound_violations = %.0f (must be 0)" file where v
                  | _ -> err "%s: %s: approx run missing metrics gauge %S" file where g)
                [
                  "approx_bound_violations";
                  "approx_max_width";
                  "approx_max_observed_error";
                  "approx_sketch_words";
                ]
          | _ -> ())
        runs
  | _ -> ()

(* shard documents: scaling-sweep shape and the determinism verdict. The
   speedup numbers are informational (the recorded cores say whether a
   parallel speedup was even physically available); the merge
   determinism and the per-run work-counter budgets are the gates. *)
let check_shard_doc ~file doc =
  (match Option.bind (mem "params" doc) (mem "ks") with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err "%s: shard document missing non-empty params.ks" file);
  (match Option.bind (mem "params" doc) (num "cores") with
  | Some c when c >= 1.0 -> ()
  | _ -> err "%s: shard document missing params.cores >= 1" file);
  (match Option.bind (mem "params" doc) (str "executor") with
  | Some ("seq" | "domains") -> ()
  | Some e -> err "%s: shard params.executor %S is neither seq nor domains" file e
  | None -> err "%s: shard document missing params.executor" file);
  check_speedup_obj ~file doc "shard_speedup_k4_vs_k1";
  check_verdict ~file doc "shard_maturity_deterministic" "the merged maturity log diverged";
  check_sweep_runs ~file ~figure:"shard" doc

(* par documents: element-partitioned parallel ingestion. The bench
   refuses to emit this file at all on <2 cores, so a par document
   claiming fewer is self-contradictory; it always runs the domains
   executor over element partitioning. *)
let check_par_doc ~file doc =
  (match Option.bind (mem "params" doc) (mem "ks") with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err "%s: par document missing non-empty params.ks" file);
  (match Option.bind (mem "params" doc) (num "cores") with
  | Some c when c >= 2.0 -> ()
  | Some c ->
      err "%s: par params.cores = %.0f but the bench must refuse to emit below 2 cores" file c
  | None -> err "%s: par document missing params.cores" file);
  (match Option.bind (mem "params" doc) (str "executor") with
  | Some "domains" -> ()
  | Some e -> err "%s: par params.executor %S should be domains" file e
  | None -> err "%s: par document missing params.executor" file);
  (match Option.bind (mem "params" doc) (str "partition") with
  | Some "elements" -> ()
  | Some pt -> err "%s: par params.partition %S should be elements" file pt
  | None -> err "%s: par document missing params.partition" file);
  check_speedup_obj ~file doc "par_speedup_k8_vs_k1";
  check_verdict ~file doc "par_maturity_deterministic" "the merged maturity log diverged";
  (match mem "runs" doc with
  | Some (Json.List runs) ->
      List.iteri
        (fun i run ->
          match str "partition" run with
          | Some "elements" -> ()
          | Some pt -> err "%s: runs[%d]: par run partition %S should be elements" file i pt
          | None -> err "%s: runs[%d]: par run missing string \"partition\"" file i)
        runs
  | _ -> ());
  check_sweep_runs ~file ~figure:"par" doc

(* The budget manifest: { figure: { "scale": s, "seed": n, "budgets":
   { key: { counter: max, ... }, ... } }, ... }. Keys starting with "_"
   are comments. *)
let load_manifest file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> err "%s" msg; None
  | contents -> (
      match Json.of_string contents with
      | exception Json.Parse_error msg -> err "%s: malformed JSON: %s" file msg; None
      | Json.Obj _ as m -> Some (file, m)
      | _ -> err "%s: budget manifest is not an object" file; None)

(* Counters are deterministic only per (scale, seed): the document must
   carry both, equal to the manifest entry's. *)
let check_budget_params ~file ~manifest_file ~figure entry doc =
  List.iter
    (fun k ->
      match (num k entry, Option.bind (mem "params" doc) (num k)) with
      | None, _ -> err "%s: entry %S missing number %S" manifest_file figure k
      | Some b, None ->
          err "%s: params.%s missing — the %S budgets hold only at %s = %g" file k figure k b
      | Some b, Some p when b <> p ->
          err "%s: params.%s = %g but the %S budgets were generated at %s = %g — regenerate \
               budgets"
            file k p figure k b
      | Some _, Some _ -> ())
    [ "scale"; "seed" ]

(* The ceilings of a figure's manifest entry, or an error — a figure
   never borrows another figure's entry. *)
let figure_budgets ~file ~figure doc (manifest_file, manifest) =
  match mem figure manifest with
  | None -> err "%s: %s has no entry for figure %S" file manifest_file figure; None
  | Some entry -> (
      check_budget_params ~file ~manifest_file ~figure entry doc;
      match mem "budgets" entry with
      | Some (Json.Obj _ as b) -> Some b
      | _ -> err "%s: entry %S missing \"budgets\" object" manifest_file figure; None)

type row = { key : string; counter : string; budget : float; actual : float }

let status r =
  if r.actual > r.budget then "OVER" else if r.actual < 0.5 *. r.budget then "LOOSE" else "OK"

let budget_rows ~file ~keying budgets i run =
  let where = Printf.sprintf "runs[%d]" i in
  match Bench_targets.budget_key keying run with
  | None -> err "%s: %s: run has no budget key (engine plus batch/shards)" file where; []
  | Some key -> (
      match mem key budgets with
      | Some (Json.Obj entries) ->
          List.filter_map
            (fun (counter, budget) ->
              match (Json.get_num budget, Option.bind (mem "metrics" run) (num counter)) with
              | Some budget, Some actual ->
                  if actual > budget then
                    err "%s: %s (%s): work counter %s = %.0f exceeds budget %.0f" file where key
                      counter actual budget;
                  Some { key; counter; budget; actual }
              | Some _, None ->
                  err "%s: %s (%s): budgeted counter %s missing from run metrics" file where key
                    counter;
                  None
              | None, _ ->
                  err "%s: %s (%s): budget for %s is not a number" file where key counter;
                  None)
            entries
      | Some _ -> err "%s: budgets entry %S is not an object" file key; []
      | None -> err "%s: %s: no budgets entry for %S" file where key; [])

let print_tables ~file ~figure ~keying rows runs =
  Printf.printf "### %s (`%s`): work-counter drift\n\n" figure file;
  if rows = [] then Printf.printf "_no budgeted counters_\n\n"
  else begin
    Printf.printf "| key | counter | budget | actual | headroom | drift | status |\n";
    Printf.printf "|---|---|---:|---:|---:|---:|---|\n";
    List.iter
      (fun r ->
        Printf.printf "| %s | %s | %.0f | %.0f | %.0f | %s | %s |\n" r.key r.counter r.budget
          r.actual (r.budget -. r.actual)
          (Bench_targets.drift_cell ~budget:r.budget ~actual:r.actual)
          (status r))
      rows;
    Printf.printf "\n"
  end;
  Printf.printf "Wall clock (informational — never gated):\n\n";
  Printf.printf "| run | per_op_us | seconds |\n|---|---:|---:|\n";
  List.iter
    (fun run ->
      match
        (Bench_targets.budget_key keying run, num "per_op_us" run, num "total_seconds" run)
      with
      | Some k, Some us, Some s -> Printf.printf "| %s | %.3f | %.3f |\n" k us s
      | _ -> ())
    runs;
  Printf.printf "\n"

let check_file ~manifest file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> err "%s" msg
  | contents -> (
      match Json.of_string contents with
      | exception Json.Parse_error msg -> err "%s: malformed JSON: %s" file msg
      | doc ->
          let figure =
            match str "figure" doc with
            | Some f -> f
            | None -> err "%s: missing string \"figure\"" file; ""
          in
          let target =
            match Bench_targets.find figure with
            | Some t ->
                if not t.Bench_targets.emits_json then
                  err "%s: figure %S is registered as not JSON-emitting" file figure;
                Some t
            | None ->
                err "%s: unknown figure %S — not in the Bench_targets registry (did you add a \
                     bench target without registering it?)"
                  file figure;
                None
          in
          let strict =
            match target with Some t -> t.Bench_targets.strict_trace | None -> false
          in
          let keying =
            match target with
            | Some t -> t.Bench_targets.budget_keying
            | None -> Bench_targets.No_budgets
          in
          (match mem "params" doc with
          | Some (Json.Obj _) -> ()
          | _ -> err "%s: missing \"params\" object" file);
          if figure = "perf" then check_perf_doc ~file doc;
          if figure = "shard" then check_shard_doc ~file doc;
          if figure = "par" then check_par_doc ~file doc;
          if figure = "approx" then check_approx_doc ~file doc;
          let budgets =
            match manifest with
            | Some m when keying <> Bench_targets.No_budgets -> figure_budgets ~file ~figure doc m
            | _ -> None
          in
          match mem "runs" doc with
          | Some (Json.List []) -> err "%s: \"runs\" is empty" file
          | Some (Json.List runs) ->
              List.iteri (check_run ~file ~strict) runs;
              Option.iter
                (fun b ->
                  let rows = List.concat (List.mapi (budget_rows ~file ~keying b) runs) in
                  print_tables ~file ~figure ~keying rows runs)
                budgets;
              Printf.printf "validate-bench: %s: %d runs ok%s\n" file (List.length runs)
                (if budgets <> None then " (budgets enforced)" else "")
          | _ -> err "%s: missing \"runs\" array" file)

let usage () =
  prerr_endline "usage: validate_bench [--budgets FILE] BENCH_<figure>.json ...";
  exit 2

let () =
  let manifest = ref None and files = ref [] in
  let rec parse = function
    | "--budgets" :: path :: rest ->
        manifest := load_manifest path;
        parse rest
    | f :: _ when String.length f > 1 && f.[0] = '-' -> usage ()
    | f :: rest -> files := f :: !files; parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !files = [] then usage ();
  List.iter (check_file ~manifest:!manifest) (List.rev !files);
  if !errors > 0 then begin
    Printf.eprintf "validate-bench: %d problem(s)\n" !errors;
    exit 1
  end
