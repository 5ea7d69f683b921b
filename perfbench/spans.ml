(* In-memory span recorder for the traced run.

   The benchmark wraps each call into a layer's public function in
   [with_span].  Spans nest through an explicit stack and carry the id
   of the step or request they belong to; they are kept in memory and
   only read back, and written out, when the run ends.  A disabled
   recorder calls the function and records nothing, so an untraced step
   pays one branch per call. *)

type span = {
  id : int;
  name : string;
  start : float;  (** seconds *)
  stop : float;
  words : float;  (** words allocated between start and stop *)
  parent : int;  (** id of the enclosing span, or -1 *)
  step : int;  (** step or request id *)
}

type t = {
  mutable enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable recorded : span list;  (** newest first; [stop] is in [stops] *)
  mutable stops : float array;  (** by span id *)
  mutable step : int;
}

let create () =
  { enabled = false; next = 0; stack = []; recorded = []; stops = [||]; step = 0 }
let set_enabled t on = t.enabled <- on

(* Spans opened from now on belong to step [id]. *)
let set_step t id = t.step <- id

let with_span t name f =
  if not t.enabled then f ()
  else begin
    (* The recorder's own work, allocation included, sits between the
       span's two clock reads: it counts as the span's own time, and a
       collection it triggers cannot fall outside every span.  The end
       time goes into a float array, which stores it without
       allocating. *)
    let start = Stats.now () in
    let id = t.next in
    t.next <- id + 1;
    if id >= Array.length t.stops then begin
      let a = Array.make ((2 * id) + 64) Float.nan in
      Array.blit t.stops 0 a 0 (Array.length t.stops);
      t.stops <- a
    end;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let step = t.step in
    let w0 = Stats.allocated_words () in
    let close () =
      let words = Stats.allocated_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.recorded <- { id; name; start; stop = Float.nan; words; parent; step } :: t.recorded;
      t.stops.(id) <- Stats.now ()
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Recorded spans, indexed by id. *)
let spans t =
  let a = Array.of_list (List.map (fun (s : span) -> { s with stop = t.stops.(s.id) }) t.recorded) in
  Array.sort (fun (x : span) (y : span) -> compare x.id y.id) a;
  a

let duration (s : span) = s.stop -. s.start

(* Self time and self allocation of each span of [spans] (indexed by
   id): its own figure minus those of its direct children.  Children of
   one span run one after another, so they never overlap. *)
let self spans =
  let time = Array.map duration spans in
  let words = Array.map (fun (s : span) -> s.words) spans in
  Array.iter
    (fun (s : span) ->
      if s.parent >= 0 then begin
        time.(s.parent) <- time.(s.parent) -. duration s;
        words.(s.parent) <- words.(s.parent) -. s.words
      end)
    spans;
  (time, words)

(* Per step, in step order: the self time (seconds) and self
   allocation (words) summed per span name. *)
type profile = {
  step_id : int;
  times : (string * float) list;
  allocs : (string * float) list;
}

let profiles spans =
  let time, words = self spans in
  let tbl = Hashtbl.create 256 in
  let bump l name v =
    (name, v +. Option.value (List.assoc_opt name l) ~default:0.)
    :: List.remove_assoc name l
  in
  Array.iteri
    (fun i (s : span) ->
      let t, w =
        Option.value (Hashtbl.find_opt tbl s.step) ~default:([], [])
      in
      Hashtbl.replace tbl s.step (bump t s.name time.(i), bump w s.name words.(i)))
    spans;
  Hashtbl.fold
    (fun step_id (times, allocs) acc -> { step_id; times; allocs } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.step_id b.step_id)

let get l name = Option.value (List.assoc_opt name l) ~default:0.
let total l = List.fold_left (fun a (_, v) -> a +. v) 0. l

let to_json_lines oc spans =
  Array.iter
    (fun (s : span) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"stop\":%.6f,\"words\":%.0f,\
         \"parent\":%d,\"step\":%d}\n"
        s.id s.name s.start s.stop s.words s.parent s.step)
    spans
