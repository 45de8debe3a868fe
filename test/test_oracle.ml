(* Oracle: the seeding, scripting and WAL-replay verdict shared by the
   serve and failover soaks. Seeds are pinned (CI replays them on every
   compiler), plans and scripts are pure functions of their seed, and
   the verdict both passes a clean run and flags each kind of divergence
   on its own. *)

open Rts_core
open Rts_workload
module Prng = Rts_util.Prng
module Io = Rts_resilience.Io
module Wal = Rts_resilience.Wal
module Fault = Rts_resilience.Fault
module Frame = Rts_serve.Frame
module Server = Rts_serve.Server
module Client = Rts_serve.Client
module Hub = Rts_serve.Hub
module Oracle = Rts_serve.Oracle

let make ~dim = Dt_engine.make ~dim

(* ------------------------------------------------------------------ *)
(* Seeding                                                             *)
(* ------------------------------------------------------------------ *)

let test_mix_pinned () =
  (* the pinned CI seeds replay only if these never move *)
  Alcotest.(check int) "script rng of t0, seed 3" 252833356 (Oracle.mix 3 "t0" 0x5c71);
  Alcotest.(check int) "net seed, seed 3" 320783436 (Oracle.mix 3 "net" 0);
  Alcotest.(check int) "generator of t1, seed 1" 800213629 (Oracle.mix 1 "t1" 0x9e3d);
  Alcotest.(check int) "replica node plan" 1061245075 (Oracle.mix 822 "t0@1" 2)

let test_mix_range_and_separation () =
  let seeds =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun name -> List.map (fun k -> Oracle.mix seed name k) [ 0; 1; 2; 0x5c71 ])
          [ "t0"; "t1"; "net"; "t0@1" ])
      [ 0; 1; 3; 1_000_000 ]
  in
  List.iter
    (fun s -> Alcotest.(check bool) "30-bit" true (s >= 0 && s <= 0x3FFFFFFF))
    seeds;
  Alcotest.(check int) "no two inputs share a seed" (List.length seeds)
    (List.length (List.sort_uniq compare seeds))

let test_tenant_names () =
  Alcotest.(check (list string)) "t<i>" [ "t0"; "t1"; "t12" ]
    (List.map Oracle.tenant_name [ 0; 1; 12 ])

let test_draw_plan_deterministic () =
  let rng = Prng.create ~seed:17 in
  let twin = Prng.copy rng in
  let a = Oracle.draw_plan ~crash_every:40 rng in
  let b = Oracle.draw_plan ~crash_every:40 twin in
  Alcotest.(check bool) "same stream, same plan" true (a = b);
  Alcotest.(check bool) "both streams advanced alike" true (Prng.bits64 rng = Prng.bits64 twin)

let test_draw_plan_bounds () =
  let crash_every = 30 in
  let plans =
    List.init 1000 (fun seed -> Oracle.draw_plan ~crash_every (Prng.create ~seed))
  in
  List.iter
    (fun (p : Fault.plan) ->
      Alcotest.(check bool) "crash within 2 * crash_every appends" true
        (p.crash_at_append >= 2 && p.crash_at_append <= (2 * crash_every) + 1);
      (match p.short_at_append with
      | Some s -> Alcotest.(check int) "short write one append before the crash" (p.crash_at_append - 1) s
      | None -> ());
      (match p.enospc_at_append with
      | Some e -> Alcotest.(check bool) "disk fills within crash_every" true (e >= 1 && e <= crash_every)
      | None -> ());
      match p.crash_at_atomic with
      | Some a -> Alcotest.(check bool) "atomic crash on the first two" true (a = 1 || a = 2)
      | None -> ())
    plans;
  let some f = List.exists f plans and none f = List.exists (fun p -> not (f p)) plans in
  let branches =
    [
      ("torn", fun (p : Fault.plan) -> p.torn);
      ("bit flip", fun p -> p.bit_flip);
      ("atomic crash", fun p -> p.crash_at_atomic <> None);
      ("short write", fun p -> p.short_at_append <> None);
      ("disk full", fun p -> p.enospc_at_append <> None);
    ]
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " drawn both ways") true (some f && none f))
    branches

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)
(* ------------------------------------------------------------------ *)

let script_args ?(seed = 5) ?(tenant_idx = 0) ?(churn = 0.3) () =
  Oracle.script ~seed ~dim:1 ~queries:6 ~elements:40 ~batch:4 ~threshold:30 ~churn ~tenant_idx

let test_script_deterministic () =
  let a = script_args () in
  Alcotest.(check bool) "same arguments, same frames" true (a = script_args ());
  Alcotest.(check bool) "another seed, other frames" false (a = script_args ~seed:6 ());
  Alcotest.(check bool) "another tenant, other frames" false (a = script_args ~tenant_idx:1 ())

(* the expected sizes of the data frames: full batches, then the rest *)
let chunks ~elements ~batch =
  let rec go rem acc = if rem <= 0 then List.rev acc else go (rem - min batch rem) (min batch rem :: acc) in
  go elements []

let prop_script_shape =
  QCheck.Test.make
    ~count:(Qcheck_env.count 200)
    ~name:"script: registrations, chunked elements, churn on known ids"
    QCheck.(
      pair
        (quad small_nat (int_range 1 2) (int_range 0 8) (int_range 0 50))
        (quad (int_range 1 8) (int_range 1 40) (int_range 0 2) (int_range 0 3)))
    (fun ((seed, dim, queries, elements), (batch, threshold, churn_i, tenant_idx)) ->
      let churn = [| 0.; 0.4; 1.0 |].(churn_i) in
      let frames =
        Oracle.script ~seed ~dim ~queries ~elements ~batch ~threshold ~churn ~tenant_idx
      in
      let tenant = Oracle.tenant_name tenant_idx in
      let next_id = ref 0 and sizes = ref [] and terminates = ref 0 in
      let registered (q : Types.query) =
        q.id = !next_id
        && q.threshold >= 1 && q.threshold <= threshold
        && Types.dim_of_rect q.rect = dim
        && (incr next_id; true)
      in
      let elem (e : Types.elem) = Array.length e.value = dim in
      let ok =
        List.for_all
          (function
            | Frame.Op { tenant = t; op = Replay.Register q } -> t = tenant && registered q
            | Frame.Op { tenant = t; op = Replay.Terminate id } ->
                incr terminates;
                t = tenant && id < !next_id
            | Frame.Op { tenant = t; op = Replay.Element e } ->
                sizes := 1 :: !sizes;
                t = tenant && elem e
            | Frame.Batch { tenant = t; elems } ->
                sizes := Array.length elems :: !sizes;
                t = tenant && Array.length elems >= 2 && Array.for_all elem elems
            | _ -> false)
          frames
      in
      let leading_registrations =
        List.length
          (List.filteri
             (fun i f -> i < queries && match f with Frame.Op { op = Replay.Register _; _ } -> true | _ -> false)
             frames)
      in
      ok
      && leading_registrations = queries
      && List.rev !sizes = chunks ~elements ~batch
      && (churn > 0. || (!terminates = 0 && !next_id = queries))
      && (churn < 1. || elements = 0 || queries = 0 || !terminates = List.length !sizes))

(* ------------------------------------------------------------------ *)
(* Verdict                                                             *)
(* ------------------------------------------------------------------ *)

type run = {
  server : Server.t;
  feeder : Client.t;
  subscriber : Client.t;
  ops : Replay.op list;
  wal_records : int;
}

(* one fault-free tenant run through Hub, subscriber attached first,
   then shut down so everything accepted is on the WAL *)
let clean_run =
  lazy
    (let dir = Io.mem_dir () in
     let provider ~tenant:_ ~incarnation:_ = dir in
     let server_config = { Server.default with Server.dim = 1 } in
     let hub = Hub.create ~server_config ~clients:2 ~make ~provider () in
     let feeder = Hub.client hub 0 and subscriber = Hub.client hub 1 in
     Client.enqueue subscriber (Frame.Subscribe { tenant = "t0"; after = 0 });
     List.iter (Client.enqueue feeder)
       (Oracle.script ~seed:9 ~dim:1 ~queries:12 ~elements:200 ~batch:5 ~threshold:60
          ~churn:0.3 ~tenant_idx:0);
     Hub.run hub;
     Server.shutdown (Hub.server hub);
     Hub.run hub;
     let scanned = Wal.scan ~dim:1 ~dir () in
     {
       server = Hub.server hub;
       feeder;
       subscriber;
       ops = scanned.Wal.ops;
       wal_records = scanned.Wal.base + scanned.Wal.records;
     })

let judge ?(ops = fun r -> r.ops) ?(wal_records = fun r -> r.wal_records)
    ?(subscriber = fun r -> r.subscriber) () =
  let r = Lazy.force clean_run in
  Oracle.verdict ~make ~dim:1 r.server ~subscriber:(subscriber r) ~tenant:"t0" ~ops:(ops r)
    ~wal_records:(wal_records r)

let flags (v : Oracle.verdict) = (v.log_ok, v.sub_ok, v.acct_ok)
let check_flags msg expected v = Alcotest.(check (triple bool bool bool)) msg expected (flags v)

let test_verdict_clean () =
  let r = Lazy.force clean_run in
  let v = judge () in
  check_flags "log, sub, acct" (true, true, true) v;
  Alcotest.(check bool) "passed" true (Oracle.passed v);
  Alcotest.(check bool) "something matured" true (v.matured > 0);
  Alcotest.(check int) "matured = server log" (List.length (Server.maturity_log r.server "t0")) v.matured;
  Alcotest.(check int) "accepted" (Server.accepted_ops r.server "t0") v.accepted;
  Alcotest.(check int) "applied = WAL" r.wal_records v.applied;
  Alcotest.(check int) "accepted = applied + rejected" v.accepted (v.applied + v.rejected)

let test_verdict_log_divergence () =
  (* an oracle fed only the elements matures nothing, so both the
     server log and the subscriber stream now disagree with it *)
  let ops r = List.filter (function Replay.Element _ -> true | _ -> false) r.ops in
  let v = judge ~ops () in
  check_flags "log and sub diverge, accounting holds" (false, false, true) v;
  Alcotest.(check bool) "failed" false (Oracle.passed v)

let test_verdict_missing_pushes () =
  (* the feeder never subscribed: its stream is empty *)
  let v = judge ~subscriber:(fun r -> r.feeder) () in
  check_flags "only sub diverges" (true, false, true) v;
  Alcotest.(check bool) "failed" false (Oracle.passed v)

let test_verdict_accounting () =
  let v = judge ~wal_records:(fun r -> r.wal_records + 1) () in
  check_flags "only accounting fails" (true, true, false) v;
  Alcotest.(check bool) "failed" false (Oracle.passed v)

(* run [f] with [RTS_SERVE_TRACE=t0] and stderr sent to a file; returns
   what was written *)
let capture_trace f =
  let path = Filename.temp_file "oracle_trace" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  Unix.putenv "RTS_SERVE_TRACE" "t0";
  Unix.dup2 fd Unix.stderr;
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved Unix.stderr;
      Unix.close saved;
      Unix.close fd;
      Unix.putenv "RTS_SERVE_TRACE" "")
    (fun () -> ignore (f ()));
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_trace_dump_on_divergence () =
  let ops r = List.filter (function Replay.Element _ -> true | _ -> false) r.ops in
  let out = capture_trace (fun () -> judge ~ops ()) in
  List.iter
    (fun needle -> Alcotest.(check bool) ("dump has " ^ needle) true (contains out needle))
    [ "[t0] oracle (0):"; "[t0] server ("; "[t0] subscr ("; "[t0] wal ord=1 " ]

let test_trace_silent_when_agreeing () =
  Alcotest.(check string) "nothing dumped" "" (capture_trace (fun () -> judge ()))

let () =
  Alcotest.run "oracle"
    [
      ( "seeding",
        [
          Alcotest.test_case "mix pinned values" `Quick test_mix_pinned;
          Alcotest.test_case "mix range and separation" `Quick test_mix_range_and_separation;
          Alcotest.test_case "tenant names" `Quick test_tenant_names;
          Alcotest.test_case "draw_plan deterministic" `Quick test_draw_plan_deterministic;
          Alcotest.test_case "draw_plan bounds and coverage" `Quick test_draw_plan_bounds;
        ] );
      ( "script",
        [
          Alcotest.test_case "deterministic per seed and tenant" `Quick test_script_deterministic;
          QCheck_alcotest.to_alcotest prop_script_shape;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "clean run passes" `Quick test_verdict_clean;
          Alcotest.test_case "diverging log" `Quick test_verdict_log_divergence;
          Alcotest.test_case "missing pushes" `Quick test_verdict_missing_pushes;
          Alcotest.test_case "accounting skew" `Quick test_verdict_accounting;
          Alcotest.test_case "trace dump on divergence" `Quick test_trace_dump_on_divergence;
          Alcotest.test_case "no dump when streams agree" `Quick test_trace_silent_when_agreeing;
        ] );
    ]
