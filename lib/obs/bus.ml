type sink = Event.t -> unit

type t = {
  mutable sinks : sink array;
  intern_tbl : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n_names : int;
  scratch : Event.t;
}

let create () =
  {
    sinks = [||];
    intern_tbl = Hashtbl.create 16;
    names = Array.make 16 "";
    n_names = 0;
    scratch = Event.make ();
  }

(* The disabled-path cost at every emit site: one header load and a
   branch. *)
let on t = Array.length t.sinks > 0

let add_sink t s = t.sinks <- Array.append t.sinks [| s |]

let intern t s =
  match Hashtbl.find_opt t.intern_tbl s with
  | Some i -> i
  | None ->
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

(* Deliver [ev] to every sink.  Sinks that retain the event must copy
   it ({!Event.copy_into}); the record they are handed is reused.  A
   sink may dispatch a further event of its own mid-delivery (the
   invariant monitor does, for violations) provided it uses its own
   event record, not this bus's scratch. *)
let dispatch t ev =
  let sinks = t.sinks in
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
