(* Runtime telemetry collector.  Gathering is the caller's job (the
   runner knows its engine and channel); this module owns the two
   output formats and the rate bookkeeping. *)

type domain = {
  dom_pending : int;
  dom_fired : int;
  dom_cal_buckets : int;
  dom_cal_occupancy : float;
}

let domain_of_engine e =
  let s = Sim.Engine.stats e in
  {
    dom_pending = s.Sim.Engine.pending;
    dom_fired = s.Sim.Engine.fired;
    dom_cal_buckets = Sim.Engine.calendar_buckets e;
    dom_cal_occupancy = Sim.Engine.calendar_occupancy e;
  }

type t = {
  jsonl : out_channel option;
  prom : string option;
  started : float; (* wall clock at create *)
  mutable prev_wall : float;
  mutable prev_fired : int array; (* per domain, from the last sample *)
}

let create ?jsonl ?prom () =
  {
    jsonl = Option.map open_out jsonl;
    prom;
    started = Unix.gettimeofday ();
    prev_wall = Unix.gettimeofday ();
    prev_fired = [||];
  }

let gc_words () =
  let q = Gc.quick_stat () in
  (q.Gc.minor_words, q.Gc.promoted_words)

let rate dt prev cur = if dt <= 0. then 0. else float_of_int (cur - prev) /. dt

let write_jsonl t oc ~time ~(domains : domain array) ~grid ~wall ~dt =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  Printf.bprintf buf "\"t\":%d,\"wall_s\":%.6f" (time : Sim.Time.t :> int)
    (wall -. t.started);
  let total_fired = Array.fold_left (fun a d -> a + d.dom_fired) 0 domains in
  let prev_total = Array.fold_left ( + ) 0 t.prev_fired in
  Printf.bprintf buf ",\"events\":%d,\"events_per_s\":%.1f" total_fired
    (rate dt prev_total total_fired);
  let arr name f =
    Printf.bprintf buf ",\"%s\":[" name;
    Array.iteri
      (fun i d ->
        if i > 0 then Buffer.add_char buf ',';
        f d)
      domains;
    Buffer.add_char buf ']'
  in
  arr "pending" (fun d -> Printf.bprintf buf "%d" d.dom_pending);
  arr "fired" (fun d -> Printf.bprintf buf "%d" d.dom_fired);
  arr "cal_buckets" (fun d -> Printf.bprintf buf "%d" d.dom_cal_buckets);
  arr "cal_occupancy" (fun d -> Printf.bprintf buf "%.3f" d.dom_cal_occupancy);
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

let write_prom t path ~time ~(domains : domain array) ~grid ~dt =
  let buf = Buffer.create 1024 in
  let gauge name v =
    Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" name name v
  in
  let counter_dom name f =
    Printf.bprintf buf "# TYPE %s counter\n" name;
    Array.iteri
      (fun i d -> Printf.bprintf buf "%s{domain=\"%d\"} %s\n" name i (f d))
      domains
  in
  let gauge_dom name f =
    Printf.bprintf buf "# TYPE %s gauge\n" name;
    Array.iteri
      (fun i d -> Printf.bprintf buf "%s{domain=\"%d\"} %s\n" name i (f d))
      domains
  in
  gauge "manet_sim_time_seconds"
    (Printf.sprintf "%.9f" (Sim.Time.to_sec time));
  counter_dom "manet_events_processed_total" (fun d ->
      string_of_int d.dom_fired);
  Printf.bprintf buf "# TYPE manet_events_per_second gauge\n";
  Array.iteri
    (fun i d ->
      let prev = if i < Array.length t.prev_fired then t.prev_fired.(i) else 0
      in
      Printf.bprintf buf "manet_events_per_second{domain=\"%d\"} %.1f\n" i
        (rate dt prev d.dom_fired))
    domains;
  gauge_dom "manet_queue_pending" (fun d -> string_of_int d.dom_pending);
  gauge_dom "manet_calendar_buckets" (fun d ->
      string_of_int d.dom_cal_buckets);
  gauge_dom "manet_calendar_occupancy" (fun d ->
      Printf.sprintf "%.3f" d.dom_cal_occupancy);
  let cells, occupied, max_occ = grid in
  Printf.bprintf buf "# TYPE manet_grid_cells gauge\n";
  Printf.bprintf buf "manet_grid_cells %d\n" cells;
  Printf.bprintf buf "# TYPE manet_grid_occupied_cells gauge\n";
  Printf.bprintf buf "manet_grid_occupied_cells %d\n" occupied;
  Printf.bprintf buf "# TYPE manet_grid_max_occupancy gauge\n";
  Printf.bprintf buf "manet_grid_max_occupancy %d\n" max_occ;
  let minor, promoted = gc_words () in
  Printf.bprintf buf "# TYPE manet_gc_minor_words_total counter\n";
  Printf.bprintf buf "manet_gc_minor_words_total %.0f\n" minor;
  Printf.bprintf buf "# TYPE manet_gc_promoted_words_total counter\n";
  Printf.bprintf buf "manet_gc_promoted_words_total %.0f\n" promoted;
  (* Atomic replace: scrapers (and the CI validator) either see the
     previous complete snapshot or this one, never a prefix. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Buffer.output_buffer oc buf;
  close_out oc;
  Sys.rename tmp path

let record t ~time ~domains ~grid =
  let wall = Unix.gettimeofday () in
  let dt = wall -. t.prev_wall in
  (match t.jsonl with
  | Some oc -> write_jsonl t oc ~time ~domains ~grid ~wall ~dt
  | None -> ());
  (match t.prom with
  | Some path -> write_prom t path ~time ~domains ~grid ~dt
  | None -> ());
  t.prev_wall <- wall;
  if Array.length t.prev_fired <> Array.length domains then
    t.prev_fired <- Array.make (Array.length domains) 0;
  Array.iteri (fun i d -> t.prev_fired.(i) <- d.dom_fired) domains

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
