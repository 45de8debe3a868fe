(* Per-layer metrics of one traced pass, next to its untraced twin.

   Names are [<layer>.<metric>]; every metric is reported on every
   workload, 0 where the layer does no such work (no WAL on [cli_2d],
   no frames on the CLI workloads). README.md maps each one to the
   end-to-end metric it should move. *)

module Metrics = Rts_obs.Metrics

type metric = { name : string; unit : string; value : float }

let per n d = if d = 0 then 0. else n /. float_of_int d
let us s = s *. 1e6

let of_pass (tr : Span.t) (traced : Pipeline.outcome) (untraced : Pipeline.outcome) =
  let snap = Metrics.of_assoc traced.counters in
  let c name = float_of_int (Metrics.counter_value snap name) in
  let elements = traced.elements and ops = traced.ops and frames = traced.frames in
  let calls k = Span.calls tr k in
  let m name unit value = { name; unit; value } in
  let wall = traced.wall_s in
  [
    m "csv_io.read_queries_s" "s" (Span.total_s tr Span.csv_read_queries);
    m "csv_io.parse_us_per_elem" "us" (us (per (Span.self_s tr Span.csv_fold) elements));
    m "engine.register_batch_s" "s" (Span.total_s tr Span.engine_register_batch);
    m "engine.feed_us_per_elem" "us" (us (per (Span.total_s tr Span.engine_feed) elements));
    m "engine.feed_batch_p50_us" "us" (us (Span.percentile_s tr Span.engine_feed 0.50));
    m "engine.feed_batch_p99_us" "us" (us (Span.percentile_s tr Span.engine_feed 0.99));
    m "engine.feed_calls" "count" (float_of_int (calls Span.engine_feed));
    m "engine.node_updates_per_elem" "count" (per (c "dt_node_updates_total") elements);
    m "engine.heap_ops_per_elem" "count" (per (c "dt_heap_ops_total") elements);
    m "engine.signals_per_elem" "count" (per (c "dt_signals_total") elements);
    m "engine.rebuilds" "count" (c "rebuilds_total");
    m "engine.alive_snapshot_us" "us"
      (us (per (Span.total_s tr Span.engine_snapshot) (calls Span.engine_snapshot)));
    m "durable.self_us_per_op" "us" (us (per (Span.layer_self_s tr "durable") ops));
    m "io.sync_calls_per_op" "count" (per (float_of_int (calls Span.io_sync)) ops);
    m "io.sync_p50_us" "us" (us (Span.percentile_s tr Span.io_sync 0.50));
    m "io.sync_p99_us" "us" (us (Span.percentile_s tr Span.io_sync 0.99));
    m "io.sync_frac" "fraction" (Span.total_s tr Span.io_sync /. wall);
    m "io.append_calls_per_op" "count" (per (float_of_int (calls Span.io_append)) ops);
    m "io.append_bytes_per_op" "B" (per (float_of_int (Span.bytes tr Span.io_append)) ops);
    m "io.write_atomic_calls" "count" (float_of_int (calls Span.io_write_atomic));
    m "io.write_atomic_bytes_per_call" "B"
      (per (float_of_int (Span.bytes tr Span.io_write_atomic)) (calls Span.io_write_atomic));
    m "io.write_atomic_us_per_call" "us"
      (us (per (Span.total_s tr Span.io_write_atomic) (calls Span.io_write_atomic)));
    m "io.read_bytes_per_op" "B" (per (float_of_int (Span.bytes tr Span.io_read)) ops);
    m "frame.parse_us_per_frame" "us" (us (per (Span.total_s tr Span.frame_parse) frames));
    m "frame.render_us_per_frame" "us" (us (per (Span.total_s tr Span.frame_render) frames));
    m "hub.self_us_per_frame" "us" (us (per (Span.layer_self_s tr "hub") frames));
    m "hub.msgs_per_frame" "count" (per (c "net_sent_total") frames);
    m "server.retries" "count" (c "serve_retry_total");
    m "server.overloads" "count" (c "serve_overloaded_total");
    m "gc.minor_words_per_elem" "words" (per untraced.minor_words elements);
    m "gc.major_collections" "count" (float_of_int untraced.major_collections);
    m "trace.unattributed_frac" "fraction" (Span.self_s tr Span.root /. wall);
    m "trace.overhead_frac" "fraction" ((wall /. untraced.wall_s) -. 1.);
  ]
  @ List.map (fun l -> m (l ^ ".self_frac") "fraction" (Span.layer_self_s tr l /. wall)) Span.layers
