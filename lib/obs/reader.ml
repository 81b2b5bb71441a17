(* Stream a JSONL trace back onto a bus and answer the analyzer CLI's
   queries.  Labels are re-interned into the replay bus so events print
   through the same [Event.pp] path the live sinks use — analyzer
   output and monitor ring dumps coincide line for line.  No query
   keeps the event stream: each sink folds what it needs as the file
   goes by. *)

type 'a query = Bus.t -> unit -> 'a

exception Missing

let field fields key =
  match List.assoc_opt key fields with
  | Some (Jsonl.Int n) -> n
  | Some (Jsonl.Float _ | Jsonl.Str _) | None -> raise Missing

(* Fill [ev] from one parsed line; false when the line is no event: a
   kind it does not name, a missing or non-integer field of the ones
   [Jsonl] always writes, a negative time, or a labelled kind with
   [a >= 0] but no string ["s"] ([a] alone is an id of the writing
   run's intern table). *)
let fill bus (ev : Event.t) fields =
  match List.assoc_opt "k" fields with
  | Some (Jsonl.Str k) -> (
      match Event.kind_of_name k with
      | None -> false
      | Some kind -> (
          try
            let t = field fields "t" in
            t >= 0
            && begin
                 ev.time <- Sim.Time.unsafe_of_ns t;
                 ev.node <- field fields "n";
                 ev.kind <- kind;
                 ev.a <- field fields "a";
                 ev.b <- field fields "b";
                 ev.c <- field fields "c";
                 ev.d <- field fields "d";
                 ev.e <- field fields "e";
                 ev.f <- field fields "f";
                 (* Re-intern the label so [a] resolves through the bus. *)
                 match List.assoc_opt "s" fields with
                 | Some (Jsonl.Str s) when Event.has_label kind ->
                     ev.a <- Bus.intern bus s;
                     true
                 | Some _ | None -> (not (Event.has_label kind)) || ev.a < 0
               end
          with Missing -> false))
  | Some (Jsonl.Int _ | Jsonl.Float _) | None -> false

let replay path bus =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      let ev = Event.make () in
      let bad = ref 0 in
      let read () =
        try
          while true do
            let line = input_line ic in
            if String.length line > 0 then
              match Jsonl.parse_line line with
              | Some fields when fill bus ev fields -> Bus.dispatch bus ev
              | Some _ | None -> incr bad
          done
        with End_of_file -> ()
      in
      match Fun.protect ~finally:(fun () -> close_in ic) read with
      | exception Sys_error msg -> Error (path ^ ": " ^ msg)
      | () ->
          if !bad > 0 then
            Error (Printf.sprintf "%d malformed line(s) in %s" !bad path)
          else Ok ())

let render bus ev = Format.asprintf "%a" (Event.pp ~name:(Bus.name bus)) ev

(* ---- Queries ----------------------------------------------------------- *)

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let timeline ~node bus =
  let lines = ref [] in
  Bus.add_sink bus (fun (ev : Event.t) ->
      if ev.node = node then lines := render bus ev :: !lines);
  fun () -> List.rev !lines

(* Successor changes per node for one destination: every Table_write
   whose successor actually changed, plus a per-node flap count. *)
let flaps ~dst bus =
  let lines = ref [] in
  let counts = Hashtbl.create 16 in
  Bus.add_sink bus (fun (ev : Event.t) ->
      if ev.kind = Event.Table_write && ev.a = dst && ev.b <> ev.c then begin
        lines := render bus ev :: !lines;
        bump counts ev.node
      end);
  fun () ->
    let summary =
      Hashtbl.fold (fun node c acc -> (node, !c) :: acc) counts []
      |> List.sort compare
      |> List.map (fun (node, c) ->
             Printf.sprintf "n%d: %d successor change(s)" node c)
    in
    List.rev !lines
    @ (if summary = [] then [ "no route changes for this destination" ]
       else summary)

(* Drop events bucketed over time: reason (or kind for ifq/collision)
   per interval.  The bin width depends on the whole trace's span, so
   the pass keeps each drop's time and label, interleaved in one
   growable int array, and bins them at the end; label -2 is an ifq
   overflow, -3 a collision, anything else a drop reason's interned id
   (-1 unknown). *)
let drop_report ?(bins = 10) bus =
  let span = ref 1 in
  let drops = ref (Array.make 2048 0) and n = ref 0 in
  let keep time label =
    if !n = Array.length !drops then drops := Array.append !drops !drops;
    !drops.(!n) <- time;
    !drops.(!n + 1) <- label;
    n := !n + 2
  in
  Bus.add_sink bus (fun (ev : Event.t) ->
      let time = (ev.time :> int) in
      span := Stdlib.max !span (time + 1);
      match ev.kind with
      | Event.Data_drop -> keep time (Stdlib.max ev.a (-1))
      | Event.Ifq_drop -> keep time (-2)
      | Event.Collision -> keep time (-3)
      | _ -> ());
  fun () ->
    let width = (!span + bins - 1) / bins in
    let tbl = Hashtbl.create 32 in
    for i = 0 to (!n / 2) - 1 do
      let label =
        match !drops.((2 * i) + 1) with
        | -2 -> "ifq-overflow"
        | -3 -> "collision"
        | id -> Bus.name bus id
      in
      bump tbl (!drops.(2 * i) / width, label)
    done;
    let rows =
      Hashtbl.fold (fun (bin, label) r acc -> (bin, label, !r) :: acc) tbl []
      |> List.sort compare
    in
    if rows = [] then [ "no drops recorded" ]
    else
      List.map
        (fun (bin, label, count) ->
          Printf.sprintf "[%6.1f - %6.1f s] %-16s %d"
            (float_of_int (bin * width) /. 1e9)
            (float_of_int ((bin + 1) * width) /. 1e9)
            label count)
        rows

(* Every violation line with the monitor's window for it: the trace's
   events go through a ring of the monitor's own, and each Violation
   reads the window before entering it, as the live dump does. *)
let violations bus =
  let ring = Monitor.ring () in
  let found = ref [] in
  Bus.add_sink bus (fun (ev : Event.t) ->
      if ev.kind = Event.Violation then
        found :=
          (render bus ev, Monitor.window ring ~name:(Bus.name bus) ~dst:ev.a)
          :: !found;
      Monitor.push ring ev);
  fun () -> List.rev !found

let summary bus =
  let counts = Hashtbl.create 16 in
  let nodes = Hashtbl.create 64 in
  let events = ref 0 and span = ref 0 in
  Bus.add_sink bus (fun (ev : Event.t) ->
      incr events;
      span := Stdlib.max !span (ev.time :> int);
      Hashtbl.replace nodes ev.node ();
      bump counts (Event.kind_name ev.kind));
  fun () ->
    Printf.sprintf "%d events, %d nodes, %.3f s span" !events
      (Hashtbl.length nodes)
      (float_of_int !span /. 1e9)
    :: (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counts []
       |> List.sort compare
       |> List.map (fun (k, c) -> Printf.sprintf "  %-6s %d" k c))
