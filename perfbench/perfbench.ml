(* The repository benchmark: per-edit latency of the incremental
   analysis on three workloads, and a traced run that splits it by
   layer.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Human-readable lines start with '#'; the last line of standard output
   is the result object.  With [--trace 0] it carries the end-to-end
   metrics, with [--trace 1] the per-layer ones.  Determinism records
   and a traced run's spans go to [.perfbench_out/]. *)

open Perfkit

let end_to_end = [ "setup_s"; "edit_p50_ms"; "edit_p90_ms"; "peak_rss_mb" ]
let workloads = [ "keystroke-large"; "structural-mix"; "daemon-typing" ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when List.mem w workloads && secs > 0. -> (w, s, secs, t)
  | _ -> usage ()

let () =
  let workload, seed, seconds, trace = parse_args () in
  let rep = Report.create () in
  (* The first call warms the process (code and minor-heap pages). *)
  ignore (Stats.host_ref_ms ());
  let host_start = Stats.host_ref_ms () in
  (match workload with
  | "keystroke-large" ->
      Libwl.run ~workload ~spec:(Libwl.keystroke_large ~seed) ~seed ~seconds ~trace rep
  | "structural-mix" ->
      Libwl.run ~workload ~spec:(Libwl.structural_mix ~seed) ~seed ~seconds ~trace rep
  | _ -> Daemon.run ~seed ~seconds ~trace rep);
  let host_end = Stats.host_ref_ms () in
  Report.note rep "host reference"
    (Printf.sprintf "fixed loop %.3f ms at the start, %.3f ms at the end" host_start host_end);
  Layers.add rep "bench.host_ref_ms" ((host_start +. host_end) /. 2.);
  let names = if trace then Layers.names else end_to_end in
  Report.require rep names;
  Report.print_human stdout rep;
  print_endline (Report.result_line rep ~names)
