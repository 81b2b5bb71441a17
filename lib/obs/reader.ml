(* Load a JSONL trace back into events and answer the analyzer CLI's
   queries.  Labels are re-interned into a private bus so events print
   through the same [Event.pp] path the live sinks use — analyzer
   output and monitor ring dumps coincide line for line. *)

type t = { events : Event.t array; bus : Bus.t }

let field fields key =
  match List.assoc_opt key fields with
  | Some (Jsonl.Int n) -> n
  | Some (Jsonl.Float _ | Jsonl.Str _) | None -> -1

let event_of_fields bus fields =
  match List.assoc_opt "k" fields with
  | Some (Jsonl.Str k) -> (
      match Event.kind_of_name k with
      | None -> None
      | Some kind ->
          let ev = Event.make () in
          ev.Event.time <- Sim.Time.unsafe_of_ns (Stdlib.max 0 (field fields "t"));
          ev.node <- field fields "n";
          ev.kind <- kind;
          ev.a <- field fields "a";
          ev.b <- field fields "b";
          ev.c <- field fields "c";
          ev.d <- field fields "d";
          ev.e <- field fields "e";
          ev.f <- field fields "f";
          (* Re-intern the label so [a] resolves through our table. *)
          (if Event.has_label kind then
             match List.assoc_opt "s" fields with
             | Some (Jsonl.Str s) -> ev.a <- Bus.intern bus s
             | Some (Jsonl.Int _ | Jsonl.Float _) | None -> ());
          Some ev)
  | Some (Jsonl.Int _ | Jsonl.Float _) | None -> None

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let bus = Bus.create () in
      let events = ref [] in
      let bad = ref 0 in
      let read () =
        try
          while true do
            let line = input_line ic in
            if String.length line > 0 then
              match Jsonl.parse_line line with
              | None -> incr bad
              | Some fields -> (
                  match event_of_fields bus fields with
                  | Some ev -> events := ev :: !events
                  | None -> incr bad)
          done
        with End_of_file -> ()
      in
      match Fun.protect ~finally:(fun () -> close_in ic) read with
      | exception Sys_error msg -> Error (path ^ ": " ^ msg)
      | () ->
          if !bad > 0 then
            Error (Printf.sprintf "%d malformed line(s) in %s" !bad path)
          else Ok { events = Array.of_list (List.rev !events); bus }

let length t = Array.length t.events
let events t = t.events
let name t i = Bus.name t.bus i
let render t ev = Format.asprintf "%a" (Event.pp ~name:(Bus.name t.bus)) ev

(* ---- Queries ----------------------------------------------------------- *)

let tx_class_counts t =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun (ev : Event.t) ->
      if ev.kind = Event.Tx then begin
        let cls = Bus.name t.bus ev.a in
        let count, bytes =
          match Hashtbl.find_opt tbl cls with Some c -> c | None -> (0, 0)
        in
        Hashtbl.replace tbl cls (count + 1, bytes + ev.c)
      end)
    t.events;
  Hashtbl.fold (fun cls c acc -> (cls, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let timeline t ~node =
  Array.to_list t.events
  |> List.filter (fun (ev : Event.t) -> ev.node = node)
  |> List.map (render t)

(* Successor changes per node for one destination: every Table_write
   whose successor actually changed, plus a per-node flap count. *)
let flaps t ~dst =
  let lines = ref [] in
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun (ev : Event.t) ->
      if ev.kind = Event.Table_write && ev.a = dst && ev.b <> ev.c then begin
        lines := render t ev :: !lines;
        let c =
          match Hashtbl.find_opt counts ev.node with Some r -> r | None ->
            let r = ref 0 in
            Hashtbl.replace counts ev.node r;
            r
        in
        incr c
      end)
    t.events;
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
   per interval. *)
let drop_report ?(bins = 10) t =
  let span =
    Array.fold_left
      (fun acc (ev : Event.t) -> Stdlib.max acc ((ev.time :> int) + 1))
      1 t.events
  in
  let width = (span + bins - 1) / bins in
  let tbl = Hashtbl.create 32 in
  let bump bin label =
    let key = (bin, label) in
    match Hashtbl.find_opt tbl key with
    | Some r -> incr r
    | None -> Hashtbl.replace tbl key (ref 1)
  in
  Array.iter
    (fun (ev : Event.t) ->
      let bin = (ev.time :> int) / width in
      match ev.kind with
      | Event.Data_drop -> bump bin (Bus.name t.bus ev.a)
      | Event.Ifq_drop -> bump bin "ifq-overflow"
      | Event.Collision -> bump bin "collision"
      | _ -> ())
    t.events;
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

let violation_indices t =
  let acc = ref [] in
  Array.iteri
    (fun i (ev : Event.t) -> if ev.kind = Event.Violation then acc := i :: !acc)
    t.events;
  List.rev !acc

let violations t = List.length (violation_indices t)

(* Reconstruct the monitor's ring dump for the [i]th violation: the
   last [k] raw events before the violation line, filtered by the same
   destination-relevance predicate the monitor uses.  Span events
   never enter the monitor's ring, so they don't consume window
   capacity here either — only non-Span events count toward [k]. *)
let violation_window ?(k = Monitor.default_ring) t i =
  match List.nth_opt (violation_indices t) i with
  | None -> None
  | Some pos ->
      let dst = t.events.(pos).Event.a in
      let acc = ref [] in
      let seen = ref 0 in
      let j = ref (pos - 1) in
      while !j >= 0 && !seen < k do
        let ev = t.events.(!j) in
        if ev.Event.kind <> Event.Span then begin
          incr seen;
          if Event.relevant_to ~dst ev then acc := render t ev :: !acc
        end;
        decr j
      done;
      Some (render t t.events.(pos), !acc)

let summary t =
  let counts = Hashtbl.create 16 in
  let nodes = Hashtbl.create 64 in
  Array.iter
    (fun (ev : Event.t) ->
      Hashtbl.replace nodes ev.Event.node ();
      let key = Event.kind_name ev.kind in
      match Hashtbl.find_opt counts key with
      | Some r -> incr r
      | None -> Hashtbl.replace counts key (ref 1))
    t.events;
  let span =
    Array.fold_left
      (fun acc (ev : Event.t) -> Stdlib.max acc (ev.time :> int))
      0 t.events
  in
  let head =
    Printf.sprintf "%d events, %d nodes, %.3f s span" (Array.length t.events)
      (Hashtbl.length nodes)
      (float_of_int span /. 1e9)
    :: (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counts []
       |> List.sort compare
       |> List.map (fun (k, c) -> Printf.sprintf "  %-6s %d" k c))
  in
  (* Per-class byte totals from the Tx events, so the airtime view is
     available from a JSONL trace alone (previously pcap-only). *)
  match tx_class_counts t with
  | [] -> head
  | classes ->
      head
      @ "tx bytes by class:"
        :: List.map
             (fun (cls, (count, bytes)) ->
               Printf.sprintf "  %-6s %d tx, %d B" cls count bytes)
             classes
