(* The benchmark's workloads: one table, read by the generator, the
   traced run and (through the manifest the generator writes) the
   end-to-end driver. README.md says why each workload exists. *)

type kind =
  | Cli of { batch : int; wal : bool; quiet : bool }
  | Session of {
      initial : int;  (** registrations before the first batch frame *)
      batches : int;  (** 64-element batch frames in the main phase *)
      stats_every : int;  (** a [stats] frame after every this many frames *)
    }

type t = { name : string; dim : int; queries : int; elements : int; kind : kind }

(* The session's ingest ring; a batch frame of this many elements is the
   largest the server admits in one piece. *)
let ring = Rts_serve.Server.default.Rts_serve.Server.queue_capacity

let all =
  [
    {
      name = "cli_2d";
      dim = 2;
      queries = 10_000;
      elements = 30_000;
      kind = Cli { batch = 1024; wal = false; quiet = true };
    };
    {
      name = "cli_wal";
      dim = 1;
      queries = 10_000;
      elements = 12_000;
      kind = Cli { batch = 1024; wal = true; quiet = false };
    };
    {
      name = "serve_session";
      dim = 1;
      queries = 0;
      elements = 0;
      kind = Session { initial = 1500; batches = 400; stats_every = 64 };
    };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None -> failwith (Printf.sprintf "unknown workload %S" name)

(* Shrink a workload for the pass-through test; shapes stay the same. *)
let scaled w ~by =
  let sc n = if n = 0 then 0 else max 1 (int_of_float (float_of_int n *. by)) in
  let kind =
    match w.kind with
    | Cli c -> Cli c
    | Session s -> Session { s with initial = sc s.initial; batches = sc s.batches }
  in
  { w with queries = sc w.queries; elements = sc w.elements; kind }

(* Elements the stream feeds (session: batch frames x ring, excluding
   the final oversize frame, which the server never admits). *)
let stream_elements w =
  match w.kind with Cli _ -> w.elements | Session s -> s.batches * ring

(* The [rts-cli]/[rts-serve] arguments, minus the input paths. *)
let args w =
  match w.kind with
  | Cli { batch; quiet; _ } ->
      [ "run"; "--dim"; string_of_int w.dim; "--batch"; string_of_int batch ]
      @ if quiet then [ "--quiet" ] else []
  | Session _ -> [ "session"; "--dim"; string_of_int w.dim ]
