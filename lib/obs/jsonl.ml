(* One flat JSON object per line; "t" is virtual time in integer
   nanoseconds (exact round trip), "s" resolves the interned label for
   kinds that carry one.  Hand-rolled — the toolchain has no JSON
   library, and the schema is flat ints plus escape-free short
   strings. *)

let write bus oc (ev : Event.t) =
  Printf.fprintf oc "{\"t\":%d,\"n\":%d,\"k\":\"%s\"" (ev.time :> int) ev.node
    (Event.kind_name ev.kind);
  if Event.has_label ev.kind && ev.a >= 0 then
    Printf.fprintf oc ",\"s\":\"%s\"" (Bus.name bus ev.a);
  Printf.fprintf oc ",\"a\":%d,\"b\":%d,\"c\":%d,\"d\":%d,\"e\":%d,\"f\":%d}\n"
    ev.a ev.b ev.c ev.d ev.e ev.f

let sink bus oc : Bus.sink = fun ev -> write bus oc ev

(* ---- Minimal flat-object parser ---------------------------------------- *)

type value = Int of int | Float of float | Str of string

exception Malformed

let parse_line s : (string * value) list option =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do incr pos done
  in
  let expect c = if peek () = c then incr pos else raise Malformed in
  let quoted () =
    expect '"';
    let b = Buffer.create 8 in
    let rec go () =
      if !pos >= n then raise Malformed
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            if !pos + 1 >= n then raise Malformed;
            Buffer.add_char b s.[!pos + 1];
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let number_value () =
    let start = !pos in
    if peek () = '-' then incr pos;
    let digits = ref 0 in
    let is_float = ref false in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' ->
          incr digits;
          true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      incr pos
    done;
    if !digits = 0 then raise Malformed;
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit) else Int (int_of_string lit)
  in
  try
    skip_ws ();
    expect '{';
    let fields = ref [] in
    let rec members () =
      skip_ws ();
      if peek () = '}' then incr pos
      else begin
        let key = quoted () in
        skip_ws ();
        expect ':';
        skip_ws ();
        let v = if peek () = '"' then Str (quoted ()) else number_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            members ()
        | '}' -> incr pos
        | _ -> raise Malformed
      end
    in
    members ();
    Some (List.rev !fields)
  with Malformed | Failure _ -> None
