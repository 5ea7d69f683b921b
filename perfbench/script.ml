(* The seeded edit scripts of the library workloads.

   A script is an array of self-cancelling pairs: a forward step (one
   edit or a batch) and the back step that undoes it, each edit's
   inverse in reverse order.  After every pair the document is its base
   text again, so the oracle can compare it with the base's
   from-scratch result.  Step [2i] is pair [i]'s forward step and step
   [2i + 1] its back step.  The script depends only on the seed and the
   base text; a run replays it from the start and stops when its time
   is up, so two runs differ at most in how far they get. *)

module Edit_gen = Workload.Edit_gen

type kind = Token | Single | Batch | Rename

type pair = { kind : kind; fwd : Edit_gen.edit list; back : Edit_gen.edit list }

let kind_name = function
  | Token -> "token"
  | Single -> "single"
  | Batch -> "batch"
  | Rename -> "rename"

let pair kind fwd base =
  let _, back =
    List.fold_left
      (fun (text, back) e -> (Edit_gen.apply e text, Edit_gen.inverse e text :: back))
      (base, []) fwd
  in
  { kind; fwd; back }

(* §5: self-cancelling single-token edits at seeded positions. *)
let keystroke ~seed ~pairs base =
  Array.of_list
    (List.map (fun e -> pair Token [ e ] base) (Edit_gen.token_edits ~seed ~count:pairs base))

(* The full mix of [Edit_gen.random_script]: token tweaks, fragment
   inserts, deletions and syntax-breaking inserts as single edits, and
   one pair in 8 a batch of 2–4 of them before one reparse.  One pair
   in 8 renames a typedef declaration instead, which flips the §4.2
   decision of every ambiguous statement naming it.  No edit is
   filtered out.  Each block of 8 pairs holds exactly one batch and one
   rename at seeded places, so every stretch of the script has the same
   mix and runs on different seeds sample the same shares. *)
let structural ~seed ~pairs base =
  let typedef_sites =
    List.map
      (fun p -> p + String.length "typedef int ")
      (Workload.Textutil.occurrences base ~pat:"typedef int ")
    |> Array.of_list
  in
  if typedef_sites = [||] then invalid_arg "Script.structural: no typedef in the base";
  let st = Random.State.make [| seed; 0x5c71 |] in
  let block = Array.make 8 Single in
  Array.init pairs (fun i ->
      if i mod 8 = 0 then begin
        Array.fill block 0 8 Single;
        let r = Random.State.int st 8 in
        block.(r) <- Rename;
        block.((r + 1 + Random.State.int st 7) mod 8) <- Batch
      end;
      let s = Random.State.bits st in
      match block.(i mod 8) with
      | Rename ->
          let p = typedef_sites.(Random.State.int st (Array.length typedef_sites)) in
          pair Rename [ { Edit_gen.e_pos = p; e_del = 1; e_insert = "u" } ] base
      | Batch ->
          let count = 2 + Random.State.int st 3 in
          pair Batch (Edit_gen.random_script ~seed:s ~count base) base
      | Token | Single -> pair Single (Edit_gen.random_script ~seed:s ~count:1 base) base)

(* A digest of the script, to tell two runs' scripts apart. *)
let digest script =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun p ->
      Buffer.add_string buf (kind_name p.kind);
      List.iter
        (fun (e : Edit_gen.edit) ->
          Printf.bprintf buf " %d %d %S" e.Edit_gen.e_pos e.Edit_gen.e_del
            e.Edit_gen.e_insert)
        (p.fwd @ p.back);
      Buffer.add_char buf '\n')
    script;
  Digest.to_hex (Digest.string (Buffer.contents buf))
