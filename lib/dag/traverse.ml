(* The path from the root to the current subtree: (ancestor, kid index)
   frames, deepest first.  [current] = kids.(i) of the head frame. *)
type cursor = { mutable path : (Node.t * int) list }

let cursor_at root =
  match root.Node.kind with
  | Node.Root -> { path = [ (root, 1) ] }
  | _ -> invalid_arg "Traverse.cursor_at: not a document root"

let current c =
  match c.path with
  | (p, i) :: _ -> p.Node.kids.(i)
  | [] -> invalid_arg "Traverse.current: exhausted cursor"

let rec advance c =
  match c.path with
  | [] -> invalid_arg "Traverse.advance: exhausted cursor"
  | (p, i) :: rest ->
      (* Alternatives of a choice are not siblings: leaving the first
         alternative leaves the whole choice. *)
      let next_i =
        match p.Node.kind with
        | Node.Choice _ -> Array.length p.Node.kids
        | _ -> i + 1
      in
      if next_i < Array.length p.Node.kids then
        c.path <- (p, next_i) :: rest
      else begin
        c.path <- rest;
        match rest with
        | [] -> invalid_arg "Traverse.advance: past eos"
        | _ -> advance c
      end

let descend c =
  let n = current c in
  if Array.length n.Node.kids = 0 then
    match n.Node.kind with
    | Node.Term _ | Node.Eos _ ->
        invalid_arg "Traverse.descend: cannot break a terminal down"
    | _ -> advance c (* ε subtree: contributes nothing *)
  else c.path <- (n, 0) :: c.path

let peek_terminal c =
  match (current c).Node.kind with
  | Node.Eos _ -> current c
  | _ -> (
  match Node.first_terminal (current c) with
  | Some t -> t
  | None ->
      (* Walk a copy of the path forward; [advance] rebuilds the list
         functionally, so the original cursor is unaffected. *)
      let probe = { path = c.path } in
      let rec go () =
        advance probe;
        let n = current probe in
        match n.Node.kind with
        | Node.Eos _ -> n
        | _ -> (
            match Node.first_terminal n with Some t -> t | None -> go ())
      in
      go ())
