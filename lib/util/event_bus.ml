(* Multi-subscriber event bus: the one hook mechanism (see the .mli). *)

type token = int

type 'a sub = { tok : token; f : 'a -> unit; mutable active : bool }

type 'a t = {
  mutable subs : 'a sub list;
  (* In delivery (subscription) order. Never mutated in place: a
     subscribe or unsubscribe installs a new list, so a publish walking
     the old one is unaffected by changes its callbacks make. *)
  mutable next : token;
}

let create () = { subs = []; next = 1 }

let subscribe t f =
  let tok = t.next in
  t.next <- tok + 1;
  t.subs <- t.subs @ [ { tok; f; active = true } ];
  tok

let unsubscribe t tok =
  t.subs <-
    List.filter
      (fun s ->
        if s.tok = tok then s.active <- false;
        s.active)
      t.subs

let[@inline] has_subscribers t = t.subs != []
let subscriber_count t = List.length t.subs

(* Walk the list the publish started with, skipping subscriptions an
   earlier callback deactivated: allocation-free, one step per
   subscriber. *)
let rec deliver ev = function
  | [] -> ()
  | s :: rest ->
    if s.active then s.f ev;
    deliver ev rest

let publish t ev = deliver ev t.subs
