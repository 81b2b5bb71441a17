open Packets

type dst = int

let broadcast = -1
let unicast = Node_id.to_int
let is_broadcast d = d < 0
let addressee = Node_id.of_int

type t =
  | Data of { src : Node_id.t; dst : dst; payload : Payload.t }
  | Ack of { src : Node_id.t; dst : dst }

let src = function Data f -> f.src | Ack f -> f.src
let dst = function Data f -> f.dst | Ack f -> f.dst
let addressed_to t id =
  let d = dst t in
  is_broadcast d || d = Node_id.to_int id

let class_name = function
  | Ack _ -> "ACK"
  | Data f -> Payload.class_name f.payload

let family = function
  | Ack _ -> Wire.Payload.family_ack
  | Data f -> Wire.Payload.family f.payload

let encoded_length = function
  | Ack _ -> Wire.Mac.ack_bytes
  | Data f -> Wire.Mac.data_overhead + Wire.encoded_length f.payload

let dst_addr d = if is_broadcast d then None else Some d

(* Frame-control octet pairs: 802.11 control/ACK, and data with both
   ToDS and FromDS set (the 4-address format behind the 30-byte header
   counted by [Wire.Mac.header_bytes]). *)
let fc_ack = 0xd4
let fc_data0 = 0x08
let fc_data1 = 0x03

let write_unprotected w = function
  | Ack f ->
      Wire.Writer.u8 w fc_ack;
      Wire.Writer.u8 w 0;
      Wire.Writer.u16 w 0 (* duration *);
      Wire.Mac.write_addr w (dst_addr f.dst)
  | Data f ->
      Wire.Writer.u8 w fc_data0;
      Wire.Writer.u8 w fc_data1;
      Wire.Writer.u16 w 0 (* duration *);
      Wire.Mac.write_addr w (dst_addr f.dst) (* A1: receiver *);
      Wire.Mac.write_addr w (Some (Node_id.to_int f.src)) (* A2: transmitter *);
      Wire.Mac.write_addr w (dst_addr f.dst) (* A3: destination *);
      Wire.Writer.u16 w 0 (* sequence control *);
      Wire.Mac.write_addr w (Some (Node_id.to_int f.src)) (* A4: source *);
      Wire.Payload.write w f.payload

let encode t =
  let w = Wire.Writer.create ~capacity:(encoded_length t) () in
  write_unprotected w t;
  let body = Wire.Writer.contents w in
  Wire.Writer.u32 w (Wire.Crc32.bytes body ~pos:0 ~len:(Bytes.length body));
  Wire.Writer.contents w

let ( let* ) = Result.bind

let check (r : Wire.Reader.t) cond reason =
  if cond then Ok () else Wire.Reader.fail r reason

let read_dst r =
  let* a = Wire.Mac.read_addr r in
  Ok (Option.value a ~default:broadcast)

let decode ~family:fam ~ack_src b =
  let len = Bytes.length b in
  let r0 = Wire.Reader.of_bytes b in
  let* () = check r0 (len >= Wire.Mac.ack_bytes) "frame: shorter than an ACK" in
  let fcs = Wire.Crc32.bytes b ~pos:0 ~len:(len - Wire.Mac.fcs_bytes) in
  let tail = Wire.Reader.of_bytes ~pos:(len - Wire.Mac.fcs_bytes) b in
  let* stored = Wire.Reader.u32 tail in
  let* () = check tail (stored = fcs) "frame: FCS mismatch" in
  let r = Wire.Reader.of_bytes ~len:(len - Wire.Mac.fcs_bytes) b in
  let* fc0 = Wire.Reader.u8 r in
  if fc0 = fc_ack then
    let* () =
      check r (fam = Wire.Payload.family_ack) "frame: ACK under payload family"
    in
    let* () = check r (len = Wire.Mac.ack_bytes) "frame: oversized ACK" in
    let* fc1 = Wire.Reader.u8 r in
    let* () = check r (fc1 = 0) "frame: unsupported frame control" in
    let* dur = Wire.Reader.u16 r in
    let* () = check r (dur = 0) "frame: nonzero duration" in
    let* dst = read_dst r in
    Ok (Ack { src = ack_src; dst })
  else if fc0 = fc_data0 then
    let* fc1 = Wire.Reader.u8 r in
    let* () = check r (fc1 = fc_data1) "frame: unsupported frame control" in
    let* () =
      check r (fam <> Wire.Payload.family_ack) "frame: data under ACK family"
    in
    let* dur = Wire.Reader.u16 r in
    let* () = check r (dur = 0) "frame: nonzero duration" in
    let* dst = read_dst r in
    let* src_a = Wire.Mac.read_addr r in
    let* src =
      match src_a with
      | Some s -> Ok (Node_id.of_int s)
      | None -> Wire.Reader.fail r "frame: broadcast transmitter"
    in
    let* a3 = read_dst r in
    let* () = check r (a3 = dst) "frame: A3 differs from receiver" in
    let* seq_ctl = Wire.Reader.u16 r in
    let* () = check r (seq_ctl = 0) "frame: nonzero sequence control" in
    let* a4 = Wire.Mac.read_addr r in
    let* () =
      check r
        (a4 = Some (Node_id.to_int src))
        "frame: A4 differs from transmitter"
    in
    let* p = Wire.Payload.read ~family:fam r in
    let* () = Wire.Reader.expect_end r in
    Ok (Data { src; dst; payload = p })
  else Wire.Reader.fail r "frame: unknown frame control"

let pp_dst fmt d =
  if is_broadcast d then Format.pp_print_string fmt "*"
  else Node_id.pp fmt (addressee d)

let pp fmt = function
  | Ack f -> Format.fprintf fmt "ack[%a->%a]" Node_id.pp f.src pp_dst f.dst
  | Data f ->
      Format.fprintf fmt "frame[%a->%a %a]" Node_id.pp f.src pp_dst f.dst
        Payload.pp f.payload
