module Prng = Rts_util.Prng
module Replay = Rts_workload.Replay
module Generator = Rts_workload.Generator
module Fault = Rts_resilience.Fault

(* Deterministic seed mixing (independent of Hashtbl.hash, which is not
   pinned across compiler versions — these seeds appear in CI). *)
let mix seed name incarnation =
  let h = ref (seed * 1_000_003) in
  String.iter (fun c -> h := (!h * 31) + Char.code c) name;
  h := (!h * 31) + incarnation;
  !h land 0x3FFFFFFF

let draw_plan ~crash_every rng =
  let crash_at = 2 + Prng.int rng (max 1 (2 * crash_every)) in
  let short_at =
    (* always one append before the crash: the partial record is the
       final one on the surviving log, so the scanner amputates it and
       recovery resubmits the op — a short write that nothing ever
       crashes on would be silent data loss (see Fault.plan docs) *)
    if Prng.int rng 3 = 0 then Some (crash_at - 1) else None
  in
  {
    Fault.crash_at_append = crash_at;
    torn = Prng.bool rng;
    bit_flip = Prng.int rng 3 = 0;
    crash_at_atomic = (if Prng.int rng 4 = 0 then Some (1 + Prng.int rng 2) else None);
    short_at_append = short_at;
    enospc_at_append =
      (if Prng.int rng 5 = 0 then Some (1 + Prng.int rng (max 1 crash_every)) else None);
  }

let tenant_name i = Printf.sprintf "t%d" i

let script ~seed ~dim ~queries ~elements ~batch ~threshold ~churn ~tenant_idx =
  let tenant = tenant_name tenant_idx in
  let rng = Prng.create ~seed:(mix seed tenant 0x5c71) in
  let gen = Generator.create ~dim ~seed:(mix seed tenant 0x9e3d) () in
  let next_id = ref 0 in
  let known = ref [] in
  let frames = ref [] in
  let emit f = frames := f :: !frames in
  let register () =
    let id = !next_id in
    incr next_id;
    known := id :: !known;
    let threshold = 1 + Prng.int rng (max 1 threshold) in
    emit (Frame.Op { tenant; op = Replay.Register (Generator.query gen ~id ~threshold) })
  in
  for _ = 1 to queries do
    register ()
  done;
  let remaining = ref elements in
  while !remaining > 0 do
    let n = min batch !remaining in
    remaining := !remaining - n;
    if n = 1 then emit (Frame.Op { tenant; op = Replay.Element (Generator.element gen) })
    else emit (Frame.Batch { tenant; elems = Array.init n (fun _ -> Generator.element gen) });
    if Prng.float rng 1.0 < churn then begin
      (match !known with
      | [] -> ()
      | ids ->
          (* possibly already matured or terminated — exercising the
             benign-rejection path is the point *)
          let id = List.nth ids (Prng.int rng (List.length ids)) in
          emit (Frame.Op { tenant; op = Replay.Terminate id }));
      register ()
    end
  done;
  List.rev !frames

type verdict = {
  accepted : int;
  applied : int;
  rejected : int;
  matured : int;
  log_ok : bool;
  sub_ok : bool;
  acct_ok : bool;
}

let verdict ~make ~dim server ~subscriber ~tenant ~ops ~wal_records =
  let oracle = (Replay.replay_ops (make ~dim) ops).Replay.maturities in
  let log = Server.maturity_log server tenant in
  let sub = Client.matured subscriber tenant in
  (match Sys.getenv_opt "RTS_SERVE_TRACE" with
  | Some t when (t = tenant || t = "all") && (log <> oracle || sub <> oracle) ->
      let dump tag l =
        Printf.eprintf "[%s] %s (%d):%s\n%!" tenant tag (List.length l)
          (String.concat "" (List.map (fun (o, id) -> Printf.sprintf " %d:%d" o id) l))
      in
      dump "oracle" oracle;
      dump "server" log;
      dump "subscr" sub;
      List.iteri
        (fun i op -> Printf.eprintf "[%s] wal ord=%d %s\n%!" tenant (i + 1) (Replay.op_to_line op))
        ops
  | _ -> ());
  let accepted = Server.accepted_ops server tenant in
  let applied = Server.applied_ops server tenant in
  let rejected = Server.rejected_ops server tenant in
  {
    accepted;
    applied;
    rejected;
    matured = List.length log;
    log_ok = log = oracle;
    sub_ok = sub = oracle;
    acct_ok = accepted = applied + rejected && wal_records = applied;
  }

let passed v = v.log_ok && v.sub_ok && v.acct_ok
