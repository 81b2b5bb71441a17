(* Runtime telemetry collector.  Gathering is the caller's job (the
   runner knows its engine, channel, MACs and agents); this module owns
   the two output formats and the rate bookkeeping. *)

type gauges = {
  inflight : int;
  ifq : int;
  originated : int;
  delivered : int;
  control_tx : int;
  rt_mean : float;
  fd_mean : float;
}

type t = {
  jsonl : out_channel option;
  prom : string option;
  started : float; (* wall clock at create *)
  mutable prev_wall : float;
  mutable prev_fired : int; (* from the last sample *)
  mutable prev_t : Sim.Time.t; (* virtual time of the last sample *)
  mutable prev_ctl : int;
}

let create ?jsonl ?prom () =
  {
    jsonl = Option.map open_out jsonl;
    prom;
    started = Unix.gettimeofday ();
    prev_wall = Unix.gettimeofday ();
    prev_fired = 0;
    prev_t = Sim.Time.zero;
    prev_ctl = 0;
  }

let gc_words () =
  let q = Gc.quick_stat () in
  (q.Gc.minor_words, q.Gc.promoted_words)

let rate dt prev cur = if dt <= 0. then 0. else float_of_int (cur - prev) /. dt

let write_jsonl t oc e ~grid ~wall ~dt g =
  let s = Sim.Engine.stats e in
  let now = Sim.Engine.now e in
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  Printf.bprintf buf "\"t\":%d,\"wall_s\":%.6f" (now :> int)
    (wall -. t.started);
  Printf.bprintf buf ",\"events\":%d,\"events_per_s\":%.1f" s.fired
    (rate dt t.prev_fired s.fired);
  Printf.bprintf buf ",\"pending\":%d,\"fired\":%d" s.pending s.fired;
  (* Simulation gauges: delivery so far, and the control rate over the
     virtual time since the previous sample. *)
  let ratio =
    if g.originated = 0 then 1.
    else float_of_int g.delivered /. float_of_int g.originated
  in
  let ctl_rate =
    rate (Sim.Time.to_sec (Sim.Time.diff now t.prev_t)) t.prev_ctl g.control_tx
  in
  Printf.bprintf buf
    ",\"inflight\":%d,\"ifq\":%d,\"originated\":%d,\"delivered\":%d,\
     \"ratio\":%.4f,\"ctl_rate\":%.1f,\"rt_mean\":%.2f,\"fd_mean\":%.2f"
    g.inflight g.ifq g.originated g.delivered ratio ctl_rate g.rt_mean
    g.fd_mean;
  Printf.bprintf buf ",\"cal_buckets\":%d,\"cal_occupancy\":%.3f"
    (Sim.Engine.calendar_buckets e)
    (Sim.Engine.calendar_occupancy e);
  let cells, occupied, max_occ = grid in
  Printf.bprintf buf
    ",\"grid_cells\":%d,\"grid_occupied\":%d,\"grid_max_occupancy\":%d"
    cells occupied max_occ;
  let minor, promoted = gc_words () in
  Printf.bprintf buf ",\"gc_minor_words\":%.0f,\"gc_promoted_words\":%.0f"
    minor promoted;
  Buffer.add_char buf '}';
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf;
  flush oc

let write_prom t path e ~grid ~dt =
  let s = Sim.Engine.stats e in
  let buf = Buffer.create 1024 in
  let metric kind name v =
    Printf.bprintf buf "# TYPE %s %s\n%s %s\n" name kind name v
  in
  metric "gauge" "manet_sim_time_seconds"
    (Printf.sprintf "%.9f" (Sim.Time.to_sec (Sim.Engine.now e)));
  metric "counter" "manet_events_processed_total" (string_of_int s.fired);
  metric "gauge" "manet_events_per_second"
    (Printf.sprintf "%.1f" (rate dt t.prev_fired s.fired));
  metric "gauge" "manet_queue_pending" (string_of_int s.pending);
  metric "gauge" "manet_calendar_buckets"
    (string_of_int (Sim.Engine.calendar_buckets e));
  metric "gauge" "manet_calendar_occupancy"
    (Printf.sprintf "%.3f" (Sim.Engine.calendar_occupancy e));
  let cells, occupied, max_occ = grid in
  metric "gauge" "manet_grid_cells" (string_of_int cells);
  metric "gauge" "manet_grid_occupied_cells" (string_of_int occupied);
  metric "gauge" "manet_grid_max_occupancy" (string_of_int max_occ);
  let minor, promoted = gc_words () in
  metric "counter" "manet_gc_minor_words_total" (Printf.sprintf "%.0f" minor);
  metric "counter" "manet_gc_promoted_words_total"
    (Printf.sprintf "%.0f" promoted);
  (* Atomic replace: scrapers (and the CI validator) either see the
     previous complete snapshot or this one, never a prefix. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Buffer.output_buffer oc buf;
  close_out oc;
  Sys.rename tmp path

let record t e ~grid g =
  let wall = Unix.gettimeofday () in
  let dt = wall -. t.prev_wall in
  (match t.jsonl with
  | Some oc -> write_jsonl t oc e ~grid ~wall ~dt g
  | None -> ());
  (match t.prom with Some path -> write_prom t path e ~grid ~dt | None -> ());
  t.prev_wall <- wall;
  t.prev_fired <- Sim.Engine.events_processed e;
  t.prev_t <- Sim.Engine.now e;
  t.prev_ctl <- g.control_tx

let close t = match t.jsonl with Some oc -> close_out oc | None -> ()

(* ---- Prometheus text-format validation -------------------------------- *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_name s =
  String.length s > 0
  && is_name_start s.[0]
  && String.for_all is_name_char s

(* One sample line: name[{label="value",...}] value.  Returns the
   metric name or an error string. *)
let parse_sample line =
  let n = String.length line in
  let rec name_end i = if i < n && is_name_char line.[i] then name_end (i + 1) else i in
  let ne = name_end 0 in
  if ne = 0 then Error "missing metric name"
  else
    let name = String.sub line 0 ne in
    if not (valid_name name) then Error ("bad metric name " ^ name)
    else
      let i = ref ne in
      let err = ref None in
      (if !i < n && line.[!i] = '{' then begin
         (* labels: key="value" pairs, comma separated *)
         incr i;
         let fine = ref true in
         while !fine && !i < n && line.[!i] <> '}' do
           let ks = !i in
           let rec ke j =
             if j < n && is_name_char line.[j] then ke (j + 1) else j
           in
           let kend = ke ks in
           if kend = ks || kend >= n || line.[kend] <> '=' then begin
             err := Some "bad label key";
             fine := false
           end
           else if kend + 1 >= n || line.[kend + 1] <> '"' then begin
             err := Some "label value not quoted";
             fine := false
           end
           else begin
             let j = ref (kend + 2) in
             while !j < n && line.[!j] <> '"' do
               if line.[!j] = '\\' then incr j;
               incr j
             done;
             if !j >= n then begin
               err := Some "unterminated label value";
               fine := false
             end
             else begin
               i := !j + 1;
               if !i < n && line.[!i] = ',' then incr i
             end
           end
         done;
         if !fine then
           if !i < n && line.[!i] = '}' then incr i
           else err := Some "unterminated label block"
       end);
      match !err with
      | Some e -> Error e
      | None ->
          let rest = String.trim (String.sub line !i (n - !i)) in
          let value =
            match String.index_opt rest ' ' with
            | Some sp -> String.sub rest 0 sp (* optional timestamp after *)
            | None -> rest
          in
          if value = "" then Error "missing value"
          else if
            value = "NaN" || value = "+Inf" || value = "-Inf"
            || float_of_string_opt value <> None
          then Ok name
          else Error ("bad value " ^ value)

let validate_prom path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let names = Hashtbl.create 16 in
      let line_no = ref 0 in
      let err = ref None in
      (try
         while !err = None do
           let line = input_line ic in
           incr line_no;
           let line = String.trim line in
           if line <> "" && line.[0] <> '#' then
             match parse_sample line with
             | Ok name -> Hashtbl.replace names name ()
             | Error e ->
                 err := Some (Printf.sprintf "line %d: %s" !line_no e)
         done
       with End_of_file -> ());
      close_in ic;
      match !err with
      | Some e -> Error e
      | None ->
          Ok (Hashtbl.fold (fun k () acc -> k :: acc) names []
              |> List.sort String.compare)
