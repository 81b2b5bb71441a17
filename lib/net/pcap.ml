let magic = 0xa1b23c4d
let linktype = 147 (* DLT_USER0 *)
let pseudo_header_bytes = 20
let snaplen = 0x40000

type sink = { oc : out_channel; scratch : Wire.Writer.t }

let flush_scratch s =
  output_bytes s.oc (Wire.Writer.contents s.scratch);
  Wire.Writer.clear s.scratch

let open_sink path =
  let oc = open_out_bin path in
  let s = { oc; scratch = Wire.Writer.create ~capacity:1024 () } in
  let w = s.scratch in
  Wire.Writer.u32 w magic;
  Wire.Writer.u16 w 2 (* version major *);
  Wire.Writer.u16 w 4 (* version minor *);
  Wire.Writer.u32 w 0 (* thiszone *);
  Wire.Writer.u32 w 0 (* sigfigs *);
  Wire.Writer.u32 w snaplen;
  Wire.Writer.u32 w linktype;
  flush_scratch s;
  s

let dst_int d = if Frame.is_broadcast d then 0xffffffff else (d :> int)

let write s ~time frame =
  let encoded = Frame.encode frame in
  let len = pseudo_header_bytes + Bytes.length encoded in
  let ns = Sim.Time.to_ns time in
  let w = s.scratch in
  Wire.Writer.u32 w (Int64.to_int (Int64.div ns 1_000_000_000L));
  Wire.Writer.u32 w (Int64.to_int (Int64.rem ns 1_000_000_000L));
  Wire.Writer.u32 w len (* incl_len *);
  Wire.Writer.u32 w len (* orig_len *);
  Wire.Writer.u64 w ns;
  Wire.Writer.u32 w (Packets.Node_id.to_int (Frame.src frame));
  Wire.Writer.u32 w (dst_int (Frame.dst frame));
  Wire.Writer.u8 w (Frame.family frame);
  Wire.Writer.u8 w 0;
  Wire.Writer.u16 w 0;
  flush_scratch s;
  output_bytes s.oc encoded

let close s = close_out s.oc

let is_pcap_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic -> (
      (* A file shorter than the magic, or one that cannot be read (a
         directory), is not pcap. *)
      let read () = really_input_string ic 4 in
      match Fun.protect ~finally:(fun () -> close_in ic) read with
      | head ->
          Char.code head.[0] = 0xa1
          && Char.code head.[1] = 0xb2
          && Char.code head.[2] = 0x3c
          && Char.code head.[3] = 0x4d
      | exception (End_of_file | Sys_error _) -> false)

let ( let* ) = Result.bind

(* The big-endian unsigned 32-bit field at [i]. *)
let u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xffff_ffff

let remaining ic =
  Int64.to_int (Int64.sub (In_channel.length ic) (In_channel.pos ic))

(* [n] bytes of [ic] into [buf] at [pos], unless the file ends first. *)
let read ic buf pos n what =
  if remaining ic < n then Error (what ^ " past end of file")
  else Ok (really_input ic buf pos n)

(* Every field as [open_sink] writes it. *)
let global_header ic hdr =
  let* () = read ic hdr 0 24 "global header" in
  if u32 hdr 0 <> magic then Error "global header: bad magic"
  else if u32 hdr 4 <> 0x0002_0004 then Error "global header: bad version"
  else if u32 hdr 8 <> 0 then Error "global header: bad thiszone"
  else if u32 hdr 12 <> 0 then Error "global header: bad sigfigs"
  else if u32 hdr 16 <> snaplen then Error "global header: bad snaplen"
  else if u32 hdr 20 <> linktype then Error "global header: wrong linktype"
  else Ok ()

(* One record's time, pseudo-header source, destination and family,
   and frame bytes; [Ok None] at a clean end of file.  [hdr] takes the
   record header at 0 and the pseudo-header at 16. *)
let record ic hdr =
  if remaining ic = 0 then Ok None
  else
    let* () = read ic hdr 0 16 "record header" in
    let incl_len = u32 hdr 8 in
    if incl_len <> u32 hdr 12 then Error "truncated capture"
    else if incl_len < pseudo_header_bytes + Wire.Mac.ack_bytes then
      Error "implausibly short packet"
    else if remaining ic < incl_len then Error "packet data past end of file"
    else begin
      really_input ic hdr 16 pseudo_header_bytes;
      let ns = Bytes.get_int64_be hdr 16 and family_pad = u32 hdr 32 in
      if
        Int64.compare ns 0L < 0
        || Int64.div ns 1_000_000_000L <> Int64.of_int (u32 hdr 0)
        || Int64.rem ns 1_000_000_000L <> Int64.of_int (u32 hdr 4)
      then Error "pseudo-header: timestamp disagrees with record header"
      else if family_pad land 0xffffff <> 0 then
        Error "pseudo-header: nonzero padding"
      else
        let frame = Bytes.create (incl_len - pseudo_header_bytes) in
        really_input ic frame 0 (Bytes.length frame);
        let src = u32 hdr 24 and dst = u32 hdr 28 in
        Ok (Some (Int64.to_int ns, src, dst, family_pad lsr 24, frame))
    end

(* The frame a record holds, when it decodes and its addresses agree
   with the pseudo-header's. *)
let decode ~src ~dst ~family frame =
  let src = Packets.Node_id.of_int src in
  let* f = Frame.decode ~family ~ack_src:src frame in
  if Packets.Node_id.equal (Frame.src f) src && dst_int (Frame.dst f) = dst then
    Ok f
  else
    Error
      { Wire.offset = 0; reason = "frame addresses disagree with pseudo-header" }

(* Each record's frame goes onto the bus as the Tx event
   [Channel.transmit] emitted for it.  A structural fault stops the
   pass; a frame that does not decode is counted, and the pass goes
   on so the count covers the whole file. *)
let replay path bus =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      let hdr = Bytes.create 36 in
      let undecodable = ref 0 and first = ref "" in
      let rec records k =
        match record ic hdr with
        | Error e -> Error (Printf.sprintf "%s: record %d: %s" path k e)
        | Ok None -> Ok ()
        | Ok (Some (ns, src, dst, family, frame)) ->
            (match decode ~src ~dst ~family frame with
            | Ok f ->
                Obs.Bus.tx bus ~time:(Sim.Time.unsafe_of_ns ns) ~node:src
                  ~cls:(Obs.Bus.intern bus (Frame.class_name f))
                  ~dst:(Frame.dst f :> int) ~bytes:(Bytes.length frame)
            | Error e ->
                if !undecodable = 0 then
                  first :=
                    Printf.sprintf "record %d: %s" k (Wire.error_to_string e);
                incr undecodable);
            records (k + 1)
      in
      let pass () =
        match global_header ic hdr with
        | Error e -> Error (path ^ ": " ^ e)
        | Ok () -> records 1
      in
      match Fun.protect ~finally:(fun () -> close_in ic) pass with
      | exception Sys_error msg -> Error (path ^ ": " ^ msg)
      | exception End_of_file -> Error (path ^ ": unexpected end of file")
      | Error _ as e -> e
      | Ok () when !undecodable > 0 ->
          Error
            (Printf.sprintf "%d undecodable frame(s) in %s; first: %s"
               !undecodable path !first)
      | Ok () -> Ok ())
