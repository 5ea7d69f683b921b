(* Cross-run determinism records.

   A run writes, per step it attempted, one line: whether the step
   failed and, in a traced run, its vector of work counters and
   allocated words.  The first run of a binary, workload and seed keeps
   its lines in [dir]; every later run compares the part of the script
   both cover and breaks the run on the first difference.  The longer
   record is kept, so the comparison grows with the runs. *)

let dir = ".perfbench_out"

let exe_id =
  lazy (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12)

let path ~workload ~seed ~what =
  Filename.concat dir
    (Printf.sprintf "%s-seed%d-%s.%s" workload seed (Lazy.force exe_id) what)

let read_lines file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* [None] when [a] and [b] agree on their common prefix, else the first
   line that differs, from [a]. *)
let first_difference a b =
  let rec go i a b =
    match (a, b) with
    | x :: a, y :: b -> if String.equal x y then go (i + 1) a b else Some (i, x, y)
    | _ -> None
  in
  go 0 a b

let ensure_dir () = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let check (rep : Report.t) ~workload ~seed ~what lines =
  ensure_dir ();
  let file = path ~workload ~seed ~what in
  let previous = if Sys.file_exists file then read_lines file else [] in
  (match first_difference previous lines with
  | None ->
      Report.note rep ("determinism " ^ what)
        (Printf.sprintf "%d lines agree with the %d recorded in %s"
           (min (List.length lines) (List.length previous))
           (List.length previous) file)
  | Some (i, was, now) ->
      Report.break rep
        (Printf.sprintf "%s differs from %s at line %d: was %S, now %S" what
           file i was now));
  if List.length lines > List.length previous then
    Out_channel.with_open_bin file (fun oc ->
        List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

(* A traced run's spans, one JSON object per line. *)
let write_spans ~workload ~seed spans =
  ensure_dir ();
  Out_channel.with_open_bin
    (Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed))
    (fun oc -> Spans.to_json_lines oc spans)
