(* Preallocated span table for the traced in-process run.

   A span is one call into a layer, identified by its [kind]. Spans nest
   (Durable calls the engine and the I/O layer; Hub.run calls the
   engine and the I/O layer), so the table keeps a small stack and
   charges each span's duration to its parent's child time: a kind's
   [self] time is its inclusive time minus the part covered by nested
   spans. The root span (kind [root]) covers one whole pass; its self
   time is the time spent outside every layer — the "unattributed"
   share that the run must keep under 5%.

   All storage is allocated up front; [enter]/[leave] only mutate int
   arrays. A disabled table ([off]) makes both no-ops, so the same
   pipeline code runs traced and untraced. *)

type kind = int

(* ---- kinds, grouped by the layer (module) they time ---- *)

let root = 0
let csv_read_queries = 1
let csv_fold = 2
let driver = 3
let engine_register = 4
let engine_register_batch = 5
let engine_terminate = 6
let engine_feed = 7
let engine_snapshot = 8
let engine_other = 9
let durable = 10
let io_append = 11
let io_sync = 12
let io_read = 13
let io_write_atomic = 14
let io_other = 15
let frame_parse = 16
let frame_render = 17
let hub = 18
let kinds = 19

let layer_of_kind =
  [|
    "unattributed"; "csv_io"; "csv_io"; "driver"; "engine"; "engine"; "engine"; "engine";
    "engine"; "engine"; "durable"; "io"; "io"; "io"; "io"; "io"; "frame"; "frame"; "hub";
  |]

let layers = [ "csv_io"; "engine"; "durable"; "io"; "frame"; "hub"; "driver" ]

(* Kinds whose per-call durations are kept for percentiles. *)
let sampled k = k = engine_feed || k = io_sync

let max_depth = 32
let sample_capacity = 1 lsl 20

type t = {
  on : bool;
  total : int array;  (** inclusive ns per kind *)
  self : int array;  (** exclusive ns per kind *)
  calls : int array;
  bytes : int array;  (** payload bytes per kind (I/O kinds) *)
  stack_kind : int array;
  stack_start : int array;
  stack_child : int array;
  mutable depth : int;
  samples : int array array;  (** per-call ns, sampled kinds only *)
  nsamples : int array;
}

let make on =
  {
    on;
    total = Array.make kinds 0;
    self = Array.make kinds 0;
    calls = Array.make kinds 0;
    bytes = Array.make kinds 0;
    stack_kind = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    depth = 0;
    samples =
      Array.init kinds (fun k -> if on && sampled k then Array.make sample_capacity 0 else [||]);
    nsamples = Array.make kinds 0;
  }

let off = make false
let create () = make true
let enabled t = t.on

let now () = Int64.to_int (Rts_util.Timer.now_ns ())

let enter t k =
  if t.on then begin
    let d = t.depth in
    if d >= max_depth then failwith "Span.enter: nesting too deep";
    t.stack_kind.(d) <- k;
    t.stack_child.(d) <- 0;
    t.depth <- d + 1;
    t.stack_start.(d) <- now ()
  end

let leave t =
  if t.on then begin
    let stop = now () in
    let d = t.depth - 1 in
    t.depth <- d;
    let k = t.stack_kind.(d) in
    let dt = stop - t.stack_start.(d) in
    t.total.(k) <- t.total.(k) + dt;
    t.self.(k) <- t.self.(k) + dt - t.stack_child.(d);
    t.calls.(k) <- t.calls.(k) + 1;
    if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dt;
    let n = t.nsamples.(k) in
    if n < Array.length t.samples.(k) then begin
      t.samples.(k).(n) <- dt;
      t.nsamples.(k) <- n + 1
    end
  end

let span t k f =
  if not t.on then f ()
  else begin
    enter t k;
    match f () with
    | v ->
        leave t;
        v
    | exception e ->
        leave t;
        raise e
  end

let add_bytes t k n = if t.on then t.bytes.(k) <- t.bytes.(k) + n

(* ---- readout ---- *)

let s_of_ns ns = float_of_int ns *. 1e-9
let total_s t k = s_of_ns t.total.(k)
let self_s t k = s_of_ns t.self.(k)
let calls t k = t.calls.(k)
let bytes t k = t.bytes.(k)

let layer_self_s t layer =
  let acc = ref 0 in
  Array.iteri (fun k l -> if l = layer then acc := !acc + t.self.(k)) layer_of_kind;
  s_of_ns !acc

(* Nearest-rank percentile of the recorded per-call durations, in
   seconds; 0 when the kind never ran. *)
let percentile_s t k p =
  let n = t.nsamples.(k) in
  if n = 0 then 0.
  else begin
    let a = Array.sub t.samples.(k) 0 n in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s_of_ns a.(max 0 (min (n - 1) (rank - 1)))
  end
