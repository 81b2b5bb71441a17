open Packets

type dst = Unicast of Node_id.t | Broadcast

type body = Payload of Payload.t | Ack

type t = { src : Node_id.t; dst : dst; body : body }

let addressed_to t id =
  match t.dst with Broadcast -> true | Unicast d -> Node_id.equal d id

let class_name t =
  match t.body with Ack -> "ACK" | Payload p -> Payload.class_name p

let family t =
  match t.body with
  | Ack -> Wire.Payload.family_ack
  | Payload p -> Wire.Payload.family p

let encoded_length t =
  match t.body with
  | Ack -> Wire.Mac.ack_bytes
  | Payload p -> Wire.Mac.data_overhead + Wire.encoded_length p

let dst_int = function Broadcast -> -1 | Unicast d -> Node_id.to_int d

let dst_equal a b =
  match (a, b) with
  | Broadcast, Broadcast -> true
  | Unicast x, Unicast y -> Node_id.equal x y
  | Broadcast, Unicast _ | Unicast _, Broadcast -> false

let dst_addr = function
  | Broadcast -> None
  | Unicast d -> Some (Node_id.to_int d)

(* Frame-control octet pairs: 802.11 control/ACK, and data with both
   ToDS and FromDS set (the 4-address format behind the 30-byte header
   counted by [Wire.Mac.header_bytes]). *)
let fc_ack = 0xd4
let fc_data0 = 0x08
let fc_data1 = 0x03

let write_unprotected w t =
  match t.body with
  | Ack ->
      Wire.Writer.u8 w fc_ack;
      Wire.Writer.u8 w 0;
      Wire.Writer.u16 w 0 (* duration *);
      Wire.Mac.write_addr w (dst_addr t.dst)
  | Payload p ->
      Wire.Writer.u8 w fc_data0;
      Wire.Writer.u8 w fc_data1;
      Wire.Writer.u16 w 0 (* duration *);
      Wire.Mac.write_addr w (dst_addr t.dst) (* A1: receiver *);
      Wire.Mac.write_addr w (Some (Node_id.to_int t.src)) (* A2: transmitter *);
      Wire.Mac.write_addr w (dst_addr t.dst) (* A3: destination *);
      Wire.Writer.u16 w 0 (* sequence control *);
      Wire.Mac.write_addr w (Some (Node_id.to_int t.src)) (* A4: source *);
      Wire.Payload.write w p

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
  match a with None -> Ok Broadcast | Some d -> Ok (Unicast (Node_id.of_int d))

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
    Ok { src = ack_src; dst; body = Ack }
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
    let* () = check r (dst_equal a3 dst) "frame: A3 differs from receiver" in
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
    Ok { src; dst; body = Payload p }
  else Wire.Reader.fail r "frame: unknown frame control"

let pp_dst fmt = function
  | Broadcast -> Format.pp_print_string fmt "*"
  | Unicast d -> Node_id.pp fmt d

let pp fmt t =
  match t.body with
  | Ack -> Format.fprintf fmt "ack[%a->%a]" Node_id.pp t.src pp_dst t.dst
  | Payload p ->
      Format.fprintf fmt "frame[%a->%a %a]" Node_id.pp t.src pp_dst t.dst
        Payload.pp p
