(* Timing wrappers around each layer's public surface.

   Each wrapper returns a value of the layer's own type whose every
   function forwards to the wrapped one inside a span, so the library
   composes exactly as in the binaries while the span table records
   where the time went. With a disabled table the wrappers return their
   argument unchanged: the untraced run executes the very same objects
   the binaries build. *)

open Rts_core
module Io = Rts_resilience.Io

(* [engine ~kind_of tr e] times every closure of [e]. [outer] selects
   the kinds: the plain engine charges the engine layer per operation,
   an outer wrapper (the Durable engine) charges the durable layer for
   everything it does around its inner engine and storage calls. *)
let engine ?(outer = false) tr (e : Engine.t) =
  if not (Span.enabled tr) then e
  else begin
    let k base = if outer then Span.durable else base in
    let time kind f = Span.span tr (k kind) f in
    {
      e with
      Engine.register = (fun q -> time Span.engine_register (fun () -> e.Engine.register q));
      register_batch =
        (fun qs -> time Span.engine_register_batch (fun () -> e.Engine.register_batch qs));
      terminate = (fun id -> time Span.engine_terminate (fun () -> e.Engine.terminate id));
      process = (fun el -> time Span.engine_feed (fun () -> e.Engine.process el));
      feed_batch = (fun els -> time Span.engine_feed (fun () -> e.Engine.feed_batch els));
      alive = (fun () -> time Span.engine_other e.Engine.alive);
      alive_snapshot = (fun () -> time Span.engine_snapshot e.Engine.alive_snapshot);
      metrics = (fun () -> time Span.engine_other e.Engine.metrics);
    }
  end

let file tr (f : Io.file) =
  {
    Io.append =
      (fun s ->
        Span.add_bytes tr Span.io_append (String.length s);
        Span.span tr Span.io_append (fun () -> f.Io.append s));
    sync = (fun () -> Span.span tr Span.io_sync f.Io.sync);
    close = (fun () -> Span.span tr Span.io_other f.Io.close);
  }

let dir tr (d : Io.dir) =
  if not (Span.enabled tr) then d
  else
    {
      Io.open_append = (fun name -> file tr (Span.span tr Span.io_other (fun () -> d.Io.open_append name)));
      read_file =
        (fun name ->
          let r = Span.span tr Span.io_read (fun () -> d.Io.read_file name) in
          Option.iter (fun s -> Span.add_bytes tr Span.io_read (String.length s)) r;
          r);
      write_atomic =
        (fun name data ->
          Span.add_bytes tr Span.io_write_atomic (String.length data);
          Span.span tr Span.io_write_atomic (fun () -> d.Io.write_atomic name data));
      list_files = (fun () -> Span.span tr Span.io_other d.Io.list_files);
      remove_file = (fun name -> Span.span tr Span.io_other (fun () -> d.Io.remove_file name));
      truncate_file =
        (fun name len -> Span.span tr Span.io_other (fun () -> d.Io.truncate_file name len));
    }
