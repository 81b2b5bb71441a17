type sink = Event.t -> unit

type t = {
  sinks : sink array array;  (* by [Event.index] *)
  intern_tbl : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n_names : int;
  scratch : Event.t;
}

let create () =
  {
    sinks = Array.make (Event.index Span + 1) [||];
    intern_tbl = Hashtbl.create 16;
    names = Array.make 16 "";
    n_names = 0;
    scratch = Event.make ();
  }

(* The cost of an emit site whose kind is off: the kind's sink array,
   its length and a branch. *)
let on t kind = Array.length (Array.unsafe_get t.sinks (Event.index kind)) > 0

let subscribe t kinds s =
  List.iter
    (fun k ->
      let i = Event.index k in
      t.sinks.(i) <- Array.append t.sinks.(i) [| s |])
    kinds

let add_sink t s =
  Array.iteri (fun i sinks -> t.sinks.(i) <- Array.append sinks [| s |]) t.sinks

(* Every run's metrics take [Tx], so every transmission interns its
   class.  Labels are string literals, so a scan of the few known names
   by physical equality finds them without hashing (hashing every
   transmission's class cost fig5 about 2 % of its time per event);
   [Hashtbl.find] rather than [find_opt] after it: a hit allocates
   nothing. *)
let intern t s =
  let i = ref 0 in
  while !i < t.n_names && t.names.(!i) != s do incr i done;
  if !i < t.n_names then !i
  else
    match Hashtbl.find t.intern_tbl s with
    | i -> i
    | exception Not_found ->
        let i = t.n_names in
        if i = Array.length t.names then begin
          let names' = Array.make (2 * i) "" in
          Array.blit t.names 0 names' 0 i;
          t.names <- names'
        end;
        t.names.(i) <- s;
        t.n_names <- i + 1;
        Hashtbl.replace t.intern_tbl s i;
        i

let name t i = if i >= 0 && i < t.n_names then t.names.(i) else "?"

(* Deliver [ev] to every sink of its kind.  Sinks that retain the event
   must copy it ({!Event.copy_into}); the record they are handed is
   reused.  A sink may dispatch a further event of its own
   mid-delivery (the invariant monitor does, for violations) provided
   it uses its own event record, not this bus's scratch. *)
let dispatch t ev =
  let sinks = Array.unsafe_get t.sinks (Event.index ev.Event.kind) in
  for i = 0 to Array.length sinks - 1 do
    sinks.(i) ev
  done

let emit t ~time ~node ~kind ~a ~b ~c ~d ~e ~f =
  let ev = t.scratch in
  ev.Event.time <- time;
  ev.node <- node;
  ev.kind <- kind;
  ev.a <- a;
  ev.b <- b;
  ev.c <- c;
  ev.d <- d;
  ev.e <- e;
  ev.f <- f;
  dispatch t ev

let tx t ~time ~node ~cls ~dst ~bytes =
  emit t ~time ~node ~kind:Event.Tx ~a:cls ~b:dst ~c:bytes ~d:(-1) ~e:(-1)
    ~f:(-1)

let rx t ~time ~node ~cls ~from ~dst =
  emit t ~time ~node ~kind:Event.Rx ~a:cls ~b:from ~c:dst ~d:(-1) ~e:(-1)
    ~f:(-1)

let collision t ~time ~node ~cls ~from =
  emit t ~time ~node ~kind:Event.Collision ~a:cls ~b:from ~c:(-1) ~d:(-1)
    ~e:(-1) ~f:(-1)

let ifq_drop t ~time ~node ~cls ~dst =
  emit t ~time ~node ~kind:Event.Ifq_drop ~a:cls ~b:dst ~c:(-1) ~d:(-1)
    ~e:(-1) ~f:(-1)

let deliver t ~time ~node ~flow ~seq ~src ~hops ~latency_ns =
  emit t ~time ~node ~kind:Event.Deliver ~a:flow ~b:seq ~c:src ~d:hops
    ~e:latency_ns ~f:(-1)

let data_drop t ~time ~node ~reason ~flow ~seq ~src ~dst =
  emit t ~time ~node ~kind:Event.Data_drop ~a:reason ~b:flow ~c:seq ~d:src
    ~e:dst ~f:(-1)

let link_failure t ~time ~node ~next_hop =
  emit t ~time ~node ~kind:Event.Link_failure ~a:next_hop ~b:(-1) ~c:(-1)
    ~d:(-1) ~e:(-1) ~f:(-1)

let proto t ~time ~node ~name ~dst =
  emit t ~time ~node ~kind:Event.Proto ~a:name ~b:dst ~c:(-1) ~d:(-1) ~e:(-1)
    ~f:(-1)

let table_write t ~time ~node ~dst ~old_succ ~new_succ ~dist ~fd ~sn =
  emit t ~time ~node ~kind:Event.Table_write ~a:dst ~b:old_succ ~c:new_succ
    ~d:dist ~e:fd ~f:sn

let span t ~time ~node ~stage ~flow ~seq ~d ~e ~f =
  emit t ~time ~node ~kind:Event.Span ~a:stage ~b:flow ~c:seq ~d ~e ~f
