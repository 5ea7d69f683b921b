type t = {
  next : int array array;  (* state -> 256 targets, -1 = stuck *)
  accept : int option array;
}

let num_states t = Array.length t.next

let make ~next ~accept =
  if Array.length next <> Array.length accept then
    invalid_arg "Dfa.make: table length mismatch";
  { next; accept }
let next t s c = t.next.(s).(Char.code c)
let accept t s = t.accept.(s)

let of_nfa nfa =
  let index : (int array, int) Hashtbl.t = Hashtbl.create 64 in
  let states = ref [] in
  let count = ref 0 in
  let worklist = Queue.create () in
  let intern set =
    match Hashtbl.find_opt index set with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        Hashtbl.replace index set id;
        states := (id, set) :: !states;
        Queue.add (id, set) worklist;
        id
  in
  let start_set = Nfa.eps_closure nfa [ Nfa.start nfa ] in
  let (_ : int) = intern start_set in
  let rows = ref [] in
  while not (Queue.is_empty worklist) do
    let id, set = Queue.pop worklist in
    let row = Array.make 256 (-1) in
    for c = 0 to 255 do
      let targets = Nfa.step nfa set (Char.chr c) in
      if targets <> [] then begin
        let closure = Nfa.eps_closure nfa targets in
        row.(c) <- intern closure
      end
    done;
    rows := (id, row) :: !rows
  done;
  let n = !count in
  let next = Array.make n [||] in
  List.iter (fun (id, row) -> next.(id) <- row) !rows;
  let accept = Array.make n None in
  List.iter
    (fun (id, set) ->
      accept.(id) <-
        Array.fold_left
          (fun acc s ->
            match Nfa.accept_rule nfa s with
            | Some r -> (
                match acc with Some r' -> Some (min r r') | None -> Some r)
            | None -> acc)
          None set)
    !states;
  { next; accept }
