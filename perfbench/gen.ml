(* Seeded inputs and reference outputs.

   Everything here is a pure function of (workload, seed): the query
   sheet, the element stream and the session frame script come from
   [Rts_workload.Generator] (the generator behind [rts-cli generate] and
   [genqueries]) seeded from the benchmark seed. The reference outputs
   come from a different engine of [Engine_registry] than the DT engine
   the binaries run — a stabbing structure, so the check does not share
   the endpoint tree with the code under test. *)

open Rts_core
open Rts_workload
module Frame = Rts_serve.Frame
module Prng = Rts_util.Prng

let tenant = "t0"

let reference_engine ~dim =
  Engine_registry.make ~name:(if dim = 1 then "interval-tree" else "seg-intv") ~dim

let queries_file dir = Filename.concat dir "queries.csv"
let elements_file dir = Filename.concat dir "elements.csv"
let script_file dir = Filename.concat dir "script.txt"
let alerts_file dir = Filename.concat dir "reference.alerts"
let summary_file dir = Filename.concat dir "reference.summary"

(* Independent streams per purpose, so resizing one input never shifts
   another. *)
let query_gen (w : Workloads.t) seed = Generator.create ~dim:w.dim ~seed:((seed * 4) + 1) ()
let element_gen (w : Workloads.t) seed = Generator.create ~dim:w.dim ~seed:((seed * 4) + 2) ()
let choice_rng seed = Prng.create ~seed:((seed * 4) + 3)

(* Spread thresholds: a query gains on average (stab probability x mean
   weight) per element, so tau uniform in [1, 1.1 x that x stream
   length] matures queries evenly over the whole stream, with a tenth
   still alive at the end. One tau for every query (the [genqueries]
   shape) would not do: all 10,000 1D queries at its default tau mature
   within elements 19,456-21,504 of a 1M stream, leaving the engine
   empty for 98% of the run (README.md). *)
let spread_tau g rng ~elements =
  let rate = Generator.expected_stab_probability g *. Generator.mean_weight g in
  1 + Prng.int rng (max 1 (int_of_float (1.1 *. rate *. float_of_int elements)))

let write_lines path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* ---- CLI workloads ---- *)

let cli_inputs (w : Workloads.t) ~seed ~dir =
  let qg = query_gen w seed and rng = choice_rng seed in
  write_lines (queries_file dir) (fun oc ->
      for id = 0 to w.queries - 1 do
        let threshold = spread_tau qg rng ~elements:w.elements in
        output_string oc (Csv_io.query_to_line (Generator.query qg ~id ~threshold));
        output_char oc '\n'
      done);
  let eg = element_gen w seed in
  write_lines (elements_file dir) (fun oc ->
      for _ = 1 to w.elements do
        output_string oc (Csv_io.element_to_line (Generator.element eg));
        output_char oc '\n'
      done)

type cli_outcome = {
  log : (int * int) list;  (** (batch-attributed line, query id), in output order *)
  elements : int;
  alerts : int;
  live : int;
}

(* Feed the element file in batches of [batch], exactly as [rts-cli run
   --batch] does, and collect its alert log; with [out], also print each
   alert line and flush it, as the CLI does without [--quiet]. The
   span hooks let the traced run time the fold and each batch hand-off. *)
let fold_batches ~dim ~batch ?out ?(flush_span = fun f -> f ()) ?(fold_span = fun f -> f ())
    (engine : Engine.t) ic =
  let buf = ref [] and blen = ref 0 and log = ref [] and alerts = ref 0 in
  let flush line_no =
    if !blen > 0 then
      flush_span (fun () ->
          let arr = Array.of_list (List.rev !buf) in
          buf := [];
          blen := 0;
          let matured = engine.Engine.feed_batch arr in
          List.iter
            (fun id ->
              log := (line_no, id) :: !log;
              Option.iter (fun oc -> Printf.fprintf oc "ALERT\t%d\t%d\n%!" line_no id) out)
            matured;
          alerts := !alerts + List.length matured)
  in
  let last =
    fold_span (fun () ->
        Csv_io.fold_elements ~dim
          (fun ~elt ~line_no _ ->
            buf := elt :: !buf;
            incr blen;
            if !blen >= batch then flush line_no;
            line_no)
          0 ic)
  in
  flush last;
  (List.rev !log, last, !alerts)

let cli_reference (w : Workloads.t) ~dir =
  let batch = match w.kind with Cli c -> c.batch | Session _ -> invalid_arg "cli_reference" in
  let engine = reference_engine ~dim:w.dim in
  let queries =
    In_channel.with_open_text (queries_file dir) (Csv_io.read_queries ~dim:w.dim ~closed:false)
  in
  engine.Engine.register_batch queries;
  let log, elements, alerts =
    In_channel.with_open_text (elements_file dir) (fold_batches ~dim:w.dim ~batch engine)
  in
  let r = { log; elements; alerts; live = engine.Engine.alive () } in
  write_lines (alerts_file dir) (fun oc ->
      List.iter (fun (line, id) -> Printf.fprintf oc "ALERT\t%d\t%d\n" line id) r.log);
  write_lines (summary_file dir) (fun oc ->
      Printf.fprintf oc "%d %d %d\n" r.elements r.alerts r.live);
  r

let read_alerts path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some l -> Scanf.sscanf l "ALERT\t%d\t%d" (fun a b -> go ((a, b) :: acc))
      in
      go [])

(* ---- session workload ---- *)

(* The frame script: [sub], the initial registrations, then batch frames
   alternating with one registration or one termination (of a query the
   reference says is still alive), a [stats] frame every [stats_every]
   frames, and finally one batch of 4x the ring followed by [shutdown]. *)
let session_script (w : Workloads.t) ~seed ~dir =
  let initial, batches, stats_every =
    match w.kind with
    | Session s -> (s.initial, s.batches, s.stats_every)
    | Cli _ -> invalid_arg "session_script"
  in
  let qg = query_gen w seed and eg = element_gen w seed and rng = choice_rng seed in
  let elements = batches * Workloads.ring in
  let engine = reference_engine ~dim:w.dim in
  (* alive ids as a swap-remove array + index table, for uniform picks *)
  let ids = Array.make (initial + batches + 1) 0 and n = ref 0 in
  let pos = Hashtbl.create 1024 in
  let add id =
    ids.(!n) <- id;
    Hashtbl.replace pos id !n;
    incr n
  in
  let remove id =
    let i = Hashtbl.find pos id in
    let last = ids.(!n - 1) in
    ids.(i) <- last;
    Hashtbl.replace pos last i;
    Hashtbl.remove pos id;
    decr n
  in
  let lines = ref [] and since_stats = ref 0 in
  let emit frame =
    lines := Frame.client_to_string frame :: !lines;
    incr since_stats;
    if !since_stats = stats_every then begin
      lines := Frame.client_to_string Frame.Stats :: !lines;
      since_stats := 0
    end
  in
  let next_id = ref 0 in
  let register () =
    let q = Generator.query qg ~id:!next_id ~threshold:(spread_tau qg rng ~elements) in
    incr next_id;
    engine.Engine.register q;
    add q.Types.id;
    emit (Frame.Op { tenant; op = Replay.Register q })
  in
  emit (Frame.Subscribe { tenant; after = 0 });
  for _ = 1 to initial do
    register ()
  done;
  for b = 1 to batches do
    let elems = Array.init Workloads.ring (fun _ -> Generator.element eg) in
    emit (Frame.Batch { tenant; elems });
    Array.iter (fun e -> List.iter remove (engine.Engine.process e)) elems;
    if b land 1 = 1 then register ()
    else if !n > 0 then begin
      let id = ids.(Prng.int rng !n) in
      engine.Engine.terminate id;
      remove id;
      emit (Frame.Op { tenant; op = Replay.Terminate id })
    end
  done;
  emit (Frame.Batch { tenant; elems = Array.init (4 * Workloads.ring) (fun _ -> Generator.element eg) });
  lines := Frame.client_to_string Frame.Shutdown :: !lines;
  write_lines (script_file dir) (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (List.rev !lines))

let read_script dir =
  In_channel.with_open_text (script_file dir) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> Array.of_list

(* The [matured] pushes a correct server sends for the frames in
   [accepted] (script indices, ascending): replay their ops on the
   reference engine. Ops the server would reject (terminating a query
   that already matured) consume nothing, as on the server. *)
let session_reference ~dim script accepted =
  let engine = reference_engine ~dim in
  let ordinal = ref 0 and pushes = ref [] in
  let element e =
    incr ordinal;
    match engine.Engine.process e with
    | [] -> ()
    | ids ->
        pushes :=
          Frame.server_to_string (Frame.Matured { tenant; ordinal = !ordinal; ids }) :: !pushes
  in
  List.iter
    (fun i ->
      match Frame.client_of_string ~dim script.(i) with
      | Ok (Frame.Op { op = Replay.Register q; _ }) -> (
          try engine.Engine.register q with Invalid_argument _ -> ())
      | Ok (Frame.Op { op = Replay.Terminate id; _ }) -> (
          try engine.Engine.terminate id with Not_found -> ())
      | Ok (Frame.Op { op = Replay.Element e; _ }) -> element e
      | Ok (Frame.Batch { elems; _ }) -> Array.iter element elems
      | Ok (Frame.Subscribe _ | Frame.Stats | Frame.Shutdown) | Error _ -> ())
    accepted;
  List.rev !pushes

(* ---- manifest for the end-to-end driver ---- *)

let write_manifest (w : Workloads.t) ~dir =
  write_lines (Filename.concat dir "manifest") (fun oc ->
      Printf.fprintf oc "kind=%s\n"
        (match w.kind with Cli { wal = true; _ } -> "cli_wal" | Cli _ -> "cli" | Session _ -> "session");
      Printf.fprintf oc "elements=%d\n" (Workloads.stream_elements w);
      Printf.fprintf oc "args=%s\n" (String.concat " " (Workloads.args w)))

(* Generate everything a run needs into [dir]. *)
let generate (w : Workloads.t) ~seed ~dir =
  match w.kind with
  | Cli _ ->
      cli_inputs w ~seed ~dir;
      let r = cli_reference w ~dir in
      (match r.log with
      | [] -> ()
      | (first, _) :: _ ->
          let last = fst (List.nth r.log (List.length r.log - 1)) in
          Printf.eprintf "rtsbench: %s seed %d: %d alerts between lines %d and %d, %d live\n%!"
            w.name seed r.alerts first last r.live);
      write_manifest w ~dir
  | Session _ ->
      session_script w ~seed ~dir;
      write_manifest w ~dir
