(* The per-layer metric set shared by all workloads, built from a
   workload's traced steps.  A layer a workload does not call reports 0:
   no time is spent in it and no work is counted. *)

(* Metric-registry counters read per traced step, in record order. *)
let counters =
  [
    "vdoc.tokens_relexed"; "vdoc.tokens_reused"; "glr.nodes_created";
    "glr.shifted_subtrees"; "glr.shifted_terminals"; "glr.breakdowns";
    "glr.forks"; "session.recoveries"; "session.isolation_attempts";
    "session.isolations"; "dag.commit_nodes_walked"; "dag.nodes_allocated";
    "query.recomputed"; "query.hits"; "query.backdated";
    "query.invalidated_nodes";
  ]

let names =
  [
    "document.edit_ms"; "document.tokens_relexed"; "document.tokens_reused";
    "document.alloc_kw"; "core.reparse_ms"; "core.reparse_p90_ms";
    "core.nodes_created"; "core.subtrees_shifted"; "core.terminals_shifted";
    "core.breakdowns"; "core.forks"; "core.recovered_pct";
    "core.isolation_ratio"; "core.alloc_kw"; "dag.commit_nodes_walked";
    "dag.nodes_allocated"; "dag.words"; "query.commit_ms"; "query.recomputed";
    "query.hits"; "query.backdated"; "query.invalidated_nodes"; "query.cells";
    "query.cell_reuse_ratio"; "semantics.diag_ms"; "semantics.typedefs_ms";
    "semantics.alloc_kw"; "server.dispatch_ms"; "server.parse_ms";
    "server.wait_ms"; "server.queue_depth_max"; "lr.table_build_s";
    "lexer.dfa_build_s"; "core.create_s"; "semantics.initial_s";
    "server.open_s"; "bench.trace_overhead_pct"; "bench.gen_lag_p99_ms";
    "bench.host_ref_ms";
  ]

let units name =
  if String.ends_with ~suffix:"_ms" name then "ms"
  else if String.ends_with ~suffix:"_s" name then "s"
  else if String.ends_with ~suffix:"_pct" name then "%"
  else if String.ends_with ~suffix:"_kw" name then "kwords"
  else if String.ends_with ~suffix:"_ratio" name then "ratio"
  else if name = "dag.words" then "words"
  else "count"

let add ?samples rep name v = Report.add ?samples rep name v (units name)
let ratio a b = if b = 0. then 0. else a /. b

(* The set-up metrics from each repetition's component times, listed
   in the order of [names]: the median of each component, and as
   [setup_s] the median of their sums. *)
let add_setup rep names reps =
  let median f = Stats.median (Array.of_list (List.map f reps)) in
  Report.note rep "set-up times"
    (String.concat " "
       (List.map (fun l -> Printf.sprintf "%.1f" (1e3 *. List.fold_left ( +. ) 0. l)) reps)
    ^ " ms, the first serving the run");
  add rep "setup_s" ~samples:(List.length reps) (median (List.fold_left ( +. ) 0.));
  List.iteri (fun i name -> add rep name (median (fun l -> List.nth l i))) names

(* The work metrics of [steps] traced steps: [total c] sums counter [c]
   over them; [cells] sums the query cells alive after each of the
   [analyses] analysis runs among them. *)
let add_work rep ~steps ~total ~cells ~analyses =
  let steps = float_of_int (max 1 steps) in
  List.iter
    (fun (metric, counter) -> add rep metric (total counter /. steps))
    [
      ("document.tokens_relexed", "vdoc.tokens_relexed");
      ("document.tokens_reused", "vdoc.tokens_reused");
      ("core.nodes_created", "glr.nodes_created");
      ("core.subtrees_shifted", "glr.shifted_subtrees");
      ("core.terminals_shifted", "glr.shifted_terminals");
      ("core.breakdowns", "glr.breakdowns");
      ("core.forks", "glr.forks");
      ("dag.commit_nodes_walked", "dag.commit_nodes_walked");
      ("dag.nodes_allocated", "dag.nodes_allocated");
      ("query.recomputed", "query.recomputed");
      ("query.hits", "query.hits");
      ("query.backdated", "query.backdated");
      ("query.invalidated_nodes", "query.invalidated_nodes");
    ];
  add rep "core.recovered_pct" (100. *. total "session.recoveries" /. steps);
  add rep "core.isolation_ratio"
    (ratio (total "session.isolations") (total "session.isolation_attempts"));
  add rep "query.cells" (cells /. float_of_int (max 1 analyses));
  add rep "query.cell_reuse_ratio" (1. -. ratio (total "query.recomputed") cells)
