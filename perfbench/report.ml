(* What one benchmark run hands back, and its printed forms.

   [failed] counts steps whose output was wrong or that raised, against
   [attempted].  [broken] lists checks of the run itself that did not
   hold (determinism, self-time accounting, a metric that could not be
   measured); any of them makes the result [correct: false]. *)

type metric = { name : string; value : float; unit_ : string; samples : int option }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : (string * int) list;  (** kind, count; newest first *)
  mutable broken : string list;
  mutable metrics : metric list;  (** newest first *)
  mutable notes : (string * string) list;  (** newest first *)
}

let create () =
  { attempted = 0; failed = 0; failures = []; broken = []; metrics = []; notes = [] }

let add ?samples t name value unit_ =
  t.metrics <-
    { name; value; unit_; samples }
    :: List.filter (fun m -> m.name <> name) t.metrics

let find t name = List.find_opt (fun m -> m.name = name) t.metrics
let note t k v = t.notes <- (k, v) :: t.notes
let attempt t = t.attempted <- t.attempted + 1

let fail t kind =
  t.failed <- t.failed + 1;
  t.failures <-
    (kind, 1 + Option.value (List.assoc_opt kind t.failures) ~default:0)
    :: List.remove_assoc kind t.failures

let break t why = t.broken <- why :: t.broken

(* Numbers with all their digits. *)
let number v = Printf.sprintf "%.17g" v

let result_line t ~names =
  let metric name =
    match find t name with
    | Some m when Float.is_finite m.value ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number m.value)
          m.unit_
    | _ -> assert false
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.broken = []) t.attempted t.failed
    (String.concat ", " (List.map metric names))

(* Every metric in [names] must have been measured.  A missing or
   non-finite one breaks the run and is printed as 0, so that the result
   line stays valid JSON. *)
let require t names =
  List.iter
    (fun name ->
      match find t name with
      | Some m when Float.is_finite m.value -> ()
      | Some m ->
          break t ("metric not measured: " ^ name);
          add t name 0. m.unit_
      | None ->
          break t ("metric not measured: " ^ name);
          add t name 0. "")
    names

let print_human oc t =
  List.iter (fun (k, v) -> Printf.fprintf oc "# %s: %s\n" k v) (List.rev t.notes);
  List.iter
    (fun m ->
      Printf.fprintf oc "# %-28s %14.6g %-6s%s\n" m.name m.value m.unit_
        (match m.samples with Some n -> Printf.sprintf " (n=%d)" n | None -> ""))
    (List.rev t.metrics);
  Printf.fprintf oc "# attempted %d, failed %d%s\n" t.attempted t.failed
    (String.concat ""
       (List.rev_map (fun (k, n) -> Printf.sprintf "; %d× %s" n k) t.failures));
  List.iter (fun b -> Printf.fprintf oc "# BROKEN: %s\n" b) (List.rev t.broken)
