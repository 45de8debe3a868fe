open Rts_core
open Rts_workload
module Metrics = Rts_obs.Metrics

type config = { fsync_every : int; checkpoint_every : int; keep : int }

let default = { fsync_every = 1; checkpoint_every = 1024; keep = 2 }

type handle = {
  dir : Io.dir;
  cfg : config;
  wal : Wal.writer;
  inner : Engine.t;
  mutable ops : int;  (** durable-stream op ordinal of the last applied op *)
  mutable elements : int;
  mutable last_checkpoint_ops : int;
  mutable last_checkpoint_entries : int;  (** snapshot size of that checkpoint *)
  mutable checkpoint_entries : int;  (** entries written across all checkpoints *)
  mutable next_gen : int;
  mutable checkpoints : int;
}

let count_elements ops =
  List.fold_left (fun n op -> match op with Replay.Element _ -> n + 1 | _ -> n) 0 ops

let checkpoint_now h =
  Wal.sync h.wal;
  let entries = h.inner.Engine.alive_snapshot () in
  ignore
    (Checkpoint.write ~dir:h.dir ~gen:h.next_gen ~dim:h.inner.Engine.dim ~ops:h.ops
       ~elements:h.elements entries);
  let n = List.length entries in
  h.checkpoints <- h.checkpoints + 1;
  h.checkpoint_entries <- h.checkpoint_entries + n;
  h.next_gen <- h.next_gen + 1;
  h.last_checkpoint_ops <- h.ops;
  h.last_checkpoint_entries <- n;
  Checkpoint.prune ~dir:h.dir ~keep:h.cfg.keep

(* A checkpoint costs O(entries); waiting at least that many ops before
   the next one keeps the amortized cost O(1) per op for any number of
   live queries. *)
let maybe_checkpoint h =
  if h.ops - h.last_checkpoint_ops >= max h.cfg.checkpoint_every h.last_checkpoint_entries
  then checkpoint_now h

(* Apply-then-log, one group per call: the engine validates first, so a
   rejected op raises before anything reaches the WAL; the call's records
   are then group-committed, and only after that is a checkpoint
   considered — one taken mid-batch would describe engine state the op
   count does not cover, and replaying the rest of the batch over it
   would re-register live ids. A crash inside the append leaves some
   whole-record prefix of the call durable; the producer re-feeds from
   [ops_total + 1], the at-least-once window any crash already opens. *)
let log h ops ~elements =
  Wal.append_list h.wal ops;
  h.ops <- h.ops + List.length ops;
  h.elements <- h.elements + elements;
  maybe_checkpoint h

let durability_metrics h =
  Metrics.of_assoc
    [
      ("wal_records_total", Metrics.Counter (Wal.appended h.wal));
      ("wal_fsyncs_total", Metrics.Counter (Wal.fsyncs h.wal));
      ("checkpoints_total", Metrics.Counter h.checkpoints);
      ("checkpoint_entries_total", Metrics.Counter h.checkpoint_entries);
      ("checkpoint_last_gen", Metrics.Gauge (float_of_int (h.next_gen - 1)));
    ]

let wrap ?(config = default) ?report ?wal_epoch ?(segment_records = 0) ~dir (engine : Engine.t)
    =
  if config.fsync_every < 1 then invalid_arg "Durable.wrap: fsync_every < 1";
  if config.checkpoint_every < 1 then invalid_arg "Durable.wrap: checkpoint_every < 1";
  if config.keep < 1 then invalid_arg "Durable.wrap: keep < 1";
  let wal =
    Wal.writer ~fsync_every:config.fsync_every ?epoch:wal_epoch ~segment_records
      ~dim:engine.Engine.dim ~dir ()
  in
  let ops, elements =
    match report with
    | Some (r : Recovery.report) -> (r.ops_total, r.elements_total)
    | None ->
        (* Without a recovery report the element count can only come
           from the records actually present, so a pruned chain (base >
           0) must go through {!Recovery.recover} instead. *)
        let existing = Wal.existing wal in
        (existing.Wal.base + existing.Wal.records, count_elements existing.Wal.ops)
  in
  let next_gen =
    match Checkpoint.generations ~dir with (g, _) :: _ -> g + 1 | [] -> 0
  in
  let h =
    {
      dir;
      cfg = config;
      wal;
      inner = engine;
      ops;
      elements;
      last_checkpoint_ops = ops;
      last_checkpoint_entries = 0;
      checkpoint_entries = 0;
      next_gen;
      checkpoints = 0;
    }
  in
  let recovery_metrics =
    match report with Some r -> Recovery.metrics r | None -> Metrics.empty
  in
  let wrapped =
    {
      engine with
      Engine.register =
        (fun q ->
          engine.Engine.register q;
          log h [ Replay.Register q ] ~elements:0);
      register_batch =
        (fun qs ->
          engine.Engine.register_batch qs;
          log h (List.rev (List.rev_map (fun q -> Replay.Register q) qs)) ~elements:0);
      terminate =
        (fun id ->
          engine.Engine.terminate id;
          log h [ Replay.Terminate id ] ~elements:0);
      process =
        (fun e ->
          let matured = engine.Engine.process e in
          log h [ Replay.Element e ] ~elements:1;
          matured);
      feed_batch =
        (fun elems ->
          let matured = engine.Engine.feed_batch elems in
          log h
            (Array.fold_right (fun e acc -> Replay.Element e :: acc) elems [])
            ~elements:(Array.length elems);
          matured);
      metrics =
        (fun () ->
          Metrics.merge
            (Metrics.merge (engine.Engine.metrics ()) (durability_metrics h))
            recovery_metrics);
    }
  in
  (wrapped, h)

let sync h = Wal.sync h.wal

let close h = Wal.close h.wal

let rotate_wal h = Wal.rotate h.wal

let prune_wal h ~below =
  (* Never reclaim past what the newest durable checkpoint covers:
     recovery replays the chain from the checkpoint floor, so a segment
     above it is still load-bearing whatever the caller's floor says. *)
  Wal.prune ~dir:h.dir ~below:(min below h.last_checkpoint_ops) ()

let wal_rotations h = Wal.rotations h.wal
