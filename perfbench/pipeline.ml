(* One in-process pass of a workload, composed from the same library
   calls the binaries make:

   - CLI ([rts-cli run]): [Recovery.recover] and [Durable.wrap] over
     [Io.fs_dir] when the workload keeps a WAL, [Csv_io.read_queries],
     [register_batch], then [Csv_io.fold_elements] with batch buffering
     and one [feed_batch] per batch;
   - session ([rts-serve session]): [Hub.create] with the engine factory
     and an in-memory storage provider, then per script line
     [Frame.client_of_string], [Client.enqueue], [Hub.run] and
     [Frame.server_to_string] of every reply.

   Given an enabled span table every layer call is timed through
   {!Wrap}; given {!Span.off} the pass runs the unwrapped objects. The
   outcome carries the maturity log and the work counters, which must be
   identical either way. *)

open Rts_core
open Rts_workload
open Rts_resilience
module Frame = Rts_serve.Frame
module Server = Rts_serve.Server
module Client = Rts_serve.Client
module Hub = Rts_serve.Hub
module Metrics = Rts_obs.Metrics

type outcome = {
  log : string list;  (** ALERT lines (CLI) or [matured] pushes (session), in order *)
  elements : int;  (** elements ingested *)
  ops : int;  (** engine ops logged (WAL records / applied ops); elements without a WAL *)
  frames : int;  (** session frames answered *)
  counters : (string * Metrics.value_snapshot) list;  (** work counters *)
  wall_s : float;  (** the pass, end to end *)
  minor_words : float;
  major_collections : int;
}

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Bracket a pass: wall clock, GC deltas, and the root span. *)
let measured tr f =
  let g0 = Gc.quick_stat () in
  let t0 = Rts_util.Timer.now () in
  Span.enter tr Span.root;
  let r = f () in
  Span.leave tr;
  let wall_s = Rts_util.Timer.now () -. t0 in
  let g1 = Gc.quick_stat () in
  (r, wall_s, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

let dt_engine tr ~dim = Wrap.engine tr (Engine_registry.make ~name:"dt" ~dim)

(* ---- rts-cli run ---- *)

let cli tr (w : Workloads.t) ~dir =
  let batch, wal, quiet =
    match w.kind with
    | Workloads.Cli c -> (c.batch, c.wal, c.quiet)
    | Workloads.Session _ -> invalid_arg "Pipeline.cli"
  in
  let dim = w.dim in
  let wal_dir = Filename.concat dir "wal" in
  remove_tree wal_dir;
  let out_path = Filename.concat dir "alerts.out" in
  let (log, elements, metrics), wall_s, minor_words, major_collections =
    measured tr (fun () ->
        let make ~dim = dt_engine tr ~dim in
        let engine, raw, handle =
          if not wal then
            let e = make ~dim in
            (e, e, None)
          else
            let d = Wrap.dir tr (Io.fs_dir wal_dir) in
            let e, report =
              Span.span tr Span.durable (fun () -> Recovery.recover ~dim ~make ~dir:d ())
            in
            let wrapped, h =
              Span.span tr Span.durable (fun () -> Durable.wrap ~config:Durable.default ~report ~dir:d e)
            in
            (Wrap.engine ~outer:true tr wrapped, wrapped, Some h)
        in
        let queries =
          Span.span tr Span.csv_read_queries (fun () ->
              In_channel.with_open_text (Gen.queries_file dir) (Csv_io.read_queries ~dim ~closed:false))
        in
        engine.Engine.register_batch queries;
        ignore (engine.Engine.alive ());
        let out = if quiet then None else Some (open_out out_path) in
        let log, elements, _alerts =
          In_channel.with_open_text (Gen.elements_file dir)
            (Gen.fold_batches ~dim ~batch ?out ~flush_span:(Span.span tr Span.driver)
               ~fold_span:(Span.span tr Span.csv_fold) engine)
        in
        Option.iter close_out out;
        Option.iter (fun h -> Span.span tr Span.durable (fun () -> Durable.close h)) handle;
        ignore (engine.Engine.alive ());
        (log, elements, raw.Engine.metrics ()))
  in
  let ops = if wal then Metrics.counter_value metrics "wal_records_total" else elements in
  {
    log = List.map (fun (line, id) -> Printf.sprintf "ALERT\t%d\t%d" line id) log;
    elements;
    ops;
    frames = 0;
    counters = Metrics.to_assoc metrics;
    wall_s;
    minor_words;
    major_collections;
  }

(* ---- rts-serve session ---- *)

(* Feed [script.(0 .. upto-1)], then end as the session does at end of
   input: shut the server down and run the hub to quiescence. *)
let session tr (w : Workloads.t) ~dir ~script ~upto =
  let dim = w.dim in
  let out_path = Filename.concat dir "session.out" in
  let engines = ref [] in
  let (pushes, elements, frames, server, hub), wall_s, minor_words, major_collections =
    measured tr (fun () ->
        let make ~dim =
          let e = Engine_registry.make ~name:"dt" ~dim in
          engines := e :: !engines;
          Wrap.engine tr e
        in
        let provider ~tenant:_ ~incarnation:_ = Wrap.dir tr (Io.mem_dir ()) in
        let hub =
          Span.span tr Span.hub (fun () ->
              Hub.create
                ~server_config:{ Server.default with Server.dim }
                ~reliable:Rts_net.Reliable.default ~clients:1 ~make ~provider ())
        in
        let server = Hub.server hub in
        Server.set_role server Server.Primary;
        let client = Hub.client hub 0 in
        let oc = open_out out_path in
        let pushes = ref [] and elements = ref 0 and frames = ref 0 in
        let print_replies () =
          let replies = Span.span tr Span.hub (fun () -> Client.take_transcript client) in
          List.iter
            (fun f ->
              let line = Span.span tr Span.frame_render (fun () -> Frame.server_to_string f) in
              Span.span tr Span.driver (fun () -> Printf.fprintf oc "%s\n%!" line);
              match f with
              | Frame.Matured _ -> pushes := line :: !pushes
              | _ -> ())
            replies
        in
        let i = ref 0 in
        while !i < upto && not (Client.got_bye client) do
          (match Span.span tr Span.frame_parse (fun () -> Frame.client_of_string ~dim script.(!i)) with
          | Error msg -> Span.span tr Span.driver (fun () -> Printf.fprintf oc "rejected,%S\n%!" msg)
          | Ok frame ->
              (match frame with
              | Frame.Batch { elems; _ } -> elements := !elements + Array.length elems
              | Frame.Op { op = Rts_workload.Replay.Element _; _ } -> incr elements
              | _ -> ());
              Span.span tr Span.hub (fun () ->
                  Client.enqueue client frame;
                  Hub.run hub);
              print_replies ());
          incr frames;
          incr i
        done;
        if not (Server.is_shutdown server) then begin
          Span.span tr Span.hub (fun () ->
              Server.shutdown server;
              Hub.run hub);
          print_replies ()
        end;
        close_out oc;
        (List.rev !pushes, !elements, !frames, server, hub))
  in
  let engine_metrics = Metrics.merge_all (List.map (fun e -> e.Engine.metrics ()) !engines) in
  let metrics =
    Metrics.merge_all [ Server.metrics server; Hub.net_metrics hub; engine_metrics ]
  in
  {
    log = pushes;
    elements;
    ops = Server.applied_ops server Gen.tenant;
    frames;
    counters = Metrics.to_assoc metrics;
    wall_s;
    minor_words;
    major_collections;
  }

(* The frames a traced or untraced session pass feeds: everything before
   the final oversize batch, which the server never answers. *)
let session_upto script = Array.length script - 2

let run tr (w : Workloads.t) ~dir ~script =
  match w.kind with
  | Workloads.Cli _ -> cli tr w ~dir
  | Workloads.Session _ -> session tr w ~dir ~script ~upto:(session_upto script)

(* What a correct pass outputs, from the reference engine. *)
let reference (w : Workloads.t) ~dir ~script =
  match w.kind with
  | Workloads.Cli _ ->
      List.map (fun (line, id) -> Printf.sprintf "ALERT\t%d\t%d" line id)
        (Gen.read_alerts (Gen.alerts_file dir))
  | Workloads.Session _ ->
      Gen.session_reference ~dim:w.dim script (List.init (session_upto script) Fun.id)
