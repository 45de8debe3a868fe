(* rtsbench: the in-process half of the benchmark (run.py is the other).

     rtsbench gen --workload W --seed N --dir D
         write the seeded inputs, the reference outputs and a manifest
     rtsbench check-session --workload W --dir D --accepted F --pushes F
         exit 0 iff the [matured] pushes in F equal a reference replay of
         the accepted frames
     rtsbench trace --workload W --dir D --seconds S
         alternate untraced and traced passes for S seconds; print the
         per-layer metrics (medians over traced passes) as one JSON line *)

open Rts_perfbench

let usage () =
  prerr_endline
    "usage: rtsbench (gen --seed N | check-session --accepted F --pushes F | trace --seconds S) \
     --workload W --dir D";
  exit 2

let flag args name =
  let rec go = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> go rest
    | [] ->
        Printf.eprintf "rtsbench: missing %s\n" name;
        usage ()
  in
  go args

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let json_float v = if Float.is_finite v then Printf.sprintf "%.9g" v else "0"

let trace (w : Workloads.t) ~dir ~seconds =
  let script = match w.kind with Workloads.Session _ -> Gen.read_script dir | _ -> [||] in
  let expected = Pipeline.reference w ~dir ~script in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let passes = ref [] in
  let t0 = Rts_util.Timer.now () in
  (* warm-up: page cache, heap growth; not measured *)
  ignore (Pipeline.run Span.off w ~dir ~script);
  while !passes = [] || Rts_util.Timer.now () -. t0 < seconds do
    Gc.full_major ();
    let untraced = Pipeline.run Span.off w ~dir ~script in
    Gc.full_major ();
    let tr = Span.create () in
    let traced = Pipeline.run tr w ~dir ~script in
    let n = List.length !passes + 1 in
    if untraced.log <> expected then problem "pass %d: output differs from the reference" n;
    if traced.log <> untraced.log then problem "pass %d: traced maturity log differs" n;
    if traced.counters <> untraced.counters then problem "pass %d: traced work counters differ" n;
    let layers = Layers.of_pass tr traced untraced in
    let unattributed = List.find (fun m -> m.Layers.name = "trace.unattributed_frac") layers in
    if Float.abs unattributed.value > 0.05 then
      problem "pass %d: layer self times miss %.1f%% of the wall time" n
        (100. *. unattributed.value);
    passes := layers :: !passes
  done;
  List.iter (fun p -> Printf.eprintf "rtsbench: %s\n" p) (List.rev !problems);
  let first = List.hd !passes in
  let metrics =
    List.mapi
      (fun i (m : Layers.metric) ->
        let v = median (List.map (fun p -> (List.nth p i).Layers.value) !passes) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float v) m.unit)
      first
  in
  Printf.printf "{\"correct\": %b, \"passes\": %d, \"metrics\": {%s}}\n" (!problems = [])
    (List.length !passes) (String.concat ", " metrics)

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: args -> (
      let w = Workloads.find (flag args "--workload") in
      let dir = flag args "--dir" in
      match cmd with
      | "gen" -> Gen.generate w ~seed:(int_of_string (flag args "--seed")) ~dir
      | "check-session" ->
          let script = Gen.read_script dir in
          let accepted = List.map int_of_string (read_lines (flag args "--accepted")) in
          let expected = Gen.session_reference ~dim:w.dim script accepted in
          let got = read_lines (flag args "--pushes") in
          if got <> expected then begin
            Printf.eprintf "rtsbench: %d matured pushes, reference replay has %d; first difference at %d\n"
              (List.length got) (List.length expected)
              (let rec diff i = function
                 | a :: r, b :: s -> if a = b then diff (i + 1) (r, s) else i
                 | _ -> i
               in
               diff 0 (got, expected));
            exit 1
          end
      | "trace" -> trace w ~dir ~seconds:(float_of_string (flag args "--seconds"))
      | _ -> usage ())
  | _ -> usage ()
