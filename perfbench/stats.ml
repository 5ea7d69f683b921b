(* Sample statistics for the benchmark's timings.

   Percentiles use the nearest-rank rule: the [p]th percentile of [n]
   samples is the [ceil (p/100 * n)]th smallest, computed over per-mille
   ranks in integer arithmetic so that p90 of 100 samples is exactly the
   90th value.  A tail percentile is reported only when at least
   [min_beyond] samples lie above it: with fewer, one slow sample
   decides the figure. *)

let min_beyond = 10

(* 0-based index of the nearest-rank [p]th percentile among [n] samples. *)
let rank_index ~n p =
  let per_mille = int_of_float (Float.round (p *. 10.)) in
  let k = ((per_mille * n) + 999) / 1000 in
  max 0 (min (n - 1) (k - 1))

(* Samples strictly after the [p]th percentile's rank. *)
let beyond ~n p = if n = 0 then 0 else n - 1 - rank_index ~n p
let supports ~n p = n > 0 && beyond ~n p >= min_beyond

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    a.(rank_index ~n p)
  end

let median xs = percentile xs 50.

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* A tail percentile the rule supports, or [Failure] naming the
   shortfall: a run too short for its tail is an error, not a smaller
   number. *)
let tail xs ~what p =
  let n = Array.length xs in
  if not (supports ~n p) then
    failwith
      (Printf.sprintf "%s: p%g needs %d samples beyond it; %d samples leave %d"
         what p min_beyond n (beyond ~n p));
  percentile xs p

(* [Unix.gettimeofday] declared here so that calls return an unboxed
   float and allocate nothing: a clock read cannot trigger a collection
   that the interval it closes would then include. *)
external now : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

(* [f ()] and its wall-clock time in seconds. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Peak resident set size of this process in MiB ([VmHWM] in
   /proc/self/status), or nan where that file or field does not exist. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ()

(* Words allocated by this domain so far: minor allocations plus direct
   major ones.  [Gc.counters] is exact between collections, where
   [Gc.quick_stat]'s minor count only moves at a minor collection. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The host-drift reference: a fixed pure-OCaml loop that calls no code
   of the program under test, half arithmetic and half short-lived
   allocation (which stays in the minor heap, so the first call pays no
   heap growth).  Its time moves only with the host, so a reader can
   tell host drift from a change in the program.  Returns
   milliseconds. *)
let host_ref_ms () =
  let _, dt =
    timed (fun () ->
        let a = ref 0x2545F491 in
        for i = 1 to 10_000_000 do
          a := (!a lxor (!a lsl 13)) + i;
          a := !a lxor (!a lsr 7)
        done;
        for r = 1 to 4_000 do
          let l = List.init 1_000 (fun i -> (i * r) lxor !a) in
          a := List.fold_left (fun acc x -> acc + (x land 0xff)) !a l
        done;
        Sys.opaque_identity !a)
  in
  dt *. 1e3
