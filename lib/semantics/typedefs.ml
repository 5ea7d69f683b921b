(* Semantic disambiguation of the C-like subsets (§4.2): a facade over a
   [Diag] analyzer created with a policy, whose item walker takes the
   decisions (see diag.mli). *)

type policy = Diag.policy = Namespace_only | Prefer_decl

type report = Diag.report = {
  typedefs : int;
  choices : int;
  decided : int;
  reinterpreted : int;
  unresolved : int;
  prefer_decl_applied : int;
  errors : (string * string) list;
}

type t = Diag.t

let create ?(policy = Namespace_only) g = Diag.create ~policy g
let analyze = Diag.decide
let engine = Diag.engine
let on_select = Diag.on_select
let global_typedefs = Diag.global_typedefs

let chosen (n : Parsedag.Node.t) =
  match n.Parsedag.Node.kind with
  | Parsedag.Node.Choice c
    when c.selected >= 0 && c.selected < Array.length n.Parsedag.Node.kids ->
      Some n.Parsedag.Node.kids.(c.selected)
  | _ -> None
