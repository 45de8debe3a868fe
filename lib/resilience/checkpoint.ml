module Crc32 = Rts_util.Crc32
open Rts_core
open Rts_workload

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type meta = { gen : int; dim : int; ops : int; elements : int; count : int }

let prefix = "checkpoint-"
let suffix = ".ckpt"
let filename gen = Printf.sprintf "%s%010d%s" prefix gen suffix

let parse_filename name =
  let plen = String.length prefix and slen = String.length suffix in
  let n = String.length name in
  if n = plen + 10 + slen
     && String.sub name 0 plen = prefix
     && String.sub name (n - slen) slen = suffix
  then int_of_string_opt (String.sub name plen 10)
  else None

let entry_to_line ((q : Types.query), consumed) =
  Printf.sprintf "%d,%s\n" consumed (Csv_io.query_to_line q)

(* The CRC covers the header fields as well as the payload (computed
   over "RTSCKPT,1,gen,dim,ops,elements,count\n" ^ payload), so a bit
   flip anywhere in the file — including the op/element ordinals the
   recovery position depends on — is detected. The CRC is chained line
   by line, so the file is assembled once, in one buffer. *)
let write ~dir ~gen ~dim ~ops ~elements entries =
  if gen < 0 then invalid_arg "Checkpoint.write: negative generation";
  let lines = List.rev (List.rev_map entry_to_line entries) in
  let header_prefix =
    Printf.sprintf "RTSCKPT,1,%d,%d,%d,%d,%d" gen dim ops elements (List.length entries)
  in
  let crc =
    List.fold_left
      (fun crc line -> Crc32.string ~crc line)
      (Crc32.string (header_prefix ^ "\n"))
      lines
  in
  let buf =
    Buffer.create
      (List.fold_left (fun n l -> n + String.length l) (String.length header_prefix + 10) lines)
  in
  Buffer.add_string buf header_prefix;
  Buffer.add_char buf ',';
  Buffer.add_string buf (Crc32.to_hex crc);
  Buffer.add_char buf '\n';
  List.iter (Buffer.add_string buf) lines;
  let name = filename gen in
  dir.Io.write_atomic name (Buffer.contents buf);
  name

let parse_header name line =
  match String.split_on_char ',' line with
  | [ "RTSCKPT"; "1"; gen; dim; ops; elements; count; crc ] -> (
      match
        ( int_of_string_opt gen,
          int_of_string_opt dim,
          int_of_string_opt ops,
          int_of_string_opt elements,
          int_of_string_opt count,
          Crc32.of_hex crc )
      with
      | Some gen, Some dim, Some ops, Some elements, Some count, Some crc
        when gen >= 0 && dim >= 1 && ops >= 0 && elements >= 0 && count >= 0 && elements <= ops
        ->
          ({ gen; dim; ops; elements; count }, crc)
      | _ -> corrupt "%s: malformed header fields" name)
  | "RTSCKPT" :: v :: _ when v <> "1" -> corrupt "%s: unsupported version %s" name v
  | _ -> corrupt "%s: bad magic/header" name

let parse_entry ~dim ~name ~line_no line =
  match String.index_opt line ',' with
  | None -> corrupt "%s: line %d: expected consumed,query" name line_no
  | Some c -> (
      match int_of_string_opt (String.trim (String.sub line 0 c)) with
      | None -> corrupt "%s: line %d: bad consumed weight" name line_no
      | Some consumed -> (
          let rest = String.sub line (c + 1) (String.length line - c - 1) in
          match Csv_io.parse_query ~dim ~closed:false ~line_no rest with
          | q ->
              if consumed < 0 || consumed >= q.Types.threshold then
                corrupt "%s: line %d: consumed %d out of [0, %d)" name line_no consumed
                  q.Types.threshold;
              (q, consumed)
          | exception Csv_io.Parse_error msg -> corrupt "%s: %s" name msg))

let load ~dir name =
  match dir.Io.read_file name with
  | None -> corrupt "%s: no such checkpoint" name
  | Some data -> (
      match String.index_opt data '\n' with
      | None -> corrupt "%s: truncated header" name
      | Some hdr_end ->
          let header_line = String.sub data 0 hdr_end in
          let meta, crc = parse_header name header_line in
          let header_prefix =
            (* the CRC is the last comma-separated header field *)
            match String.rindex_opt header_line ',' with
            | Some i -> String.sub header_line 0 i
            | None -> corrupt "%s: bad magic/header" name
          in
          let body_pos = hdr_end + 1 in
          let body_len = String.length data - body_pos in
          let computed =
            Crc32.substring data ~pos:body_pos ~len:body_len
              ~crc:(Crc32.string (header_prefix ^ "\n"))
          in
          if computed <> crc then corrupt "%s: checksum mismatch" name;
          let lines =
            if body_len = 0 then []
            else
              (* every entry line is '\n'-terminated by construction *)
              let body = String.sub data body_pos body_len in
              if body.[body_len - 1] <> '\n' then corrupt "%s: unterminated payload" name
              else String.split_on_char '\n' (String.sub body 0 (body_len - 1))
          in
          if List.length lines <> meta.count then
            corrupt "%s: entry count %d does not match header %d" name (List.length lines)
              meta.count;
          let entries =
            List.mapi (fun i l -> parse_entry ~dim:meta.dim ~name ~line_no:(i + 2) l) lines
          in
          let seen = Hashtbl.create (List.length entries) in
          List.iter
            (fun ((q : Types.query), _) ->
              if Hashtbl.mem seen q.id then corrupt "%s: duplicate query id %d" name q.id;
              Hashtbl.replace seen q.id ())
            entries;
          (meta, entries))

let generations ~dir =
  dir.Io.list_files ()
  |> List.filter_map (fun name ->
         match parse_filename name with Some gen -> Some (gen, name) | None -> None)
  |> List.sort (fun (a, _) (b, _) -> compare b a)

let prune ~dir ~keep =
  if keep < 1 then invalid_arg "Checkpoint.prune: keep < 1";
  let gens = generations ~dir in
  List.iteri (fun i (_, name) -> if i >= keep then dir.Io.remove_file name) gens;
  (* sweep leftovers of interrupted atomic writes *)
  List.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" && String.length name >= String.length prefix
         && String.sub name 0 (String.length prefix) = prefix
      then dir.Io.remove_file name)
    (dir.Io.list_files ())
