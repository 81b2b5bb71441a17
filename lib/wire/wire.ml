type error = { offset : int; reason : string }

let pp_error fmt e = Format.fprintf fmt "offset %d: %s" e.offset e.reason
let error_to_string e = Format.asprintf "%a" pp_error e

module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(capacity = 64) () =
    { buf = Bytes.create (max capacity 16); len = 0 }

  let clear t = t.len <- 0
  let length t = t.len

  let ensure t n =
    let need = t.len + n in
    let cap = Bytes.length t.buf in
    if need > cap then begin
      let cap = ref (cap * 2) in
      while !cap < need do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end

  let u8 t v =
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
    t.len <- t.len + 1

  let u16 t v =
    ensure t 2;
    Bytes.set_uint16_be t.buf t.len (v land 0xffff);
    t.len <- t.len + 2

  let u32 t v =
    ensure t 4;
    Bytes.set_int32_be t.buf t.len (Int32.of_int (v land 0xffffffff));
    t.len <- t.len + 4

  let u64 t v =
    ensure t 8;
    Bytes.set_int64_be t.buf t.len v;
    t.len <- t.len + 8

  let zeros t n =
    ensure t n;
    Bytes.fill t.buf t.len n '\000';
    t.len <- t.len + n

  let contents t = Bytes.sub t.buf 0 t.len
end

module Reader = struct
  type t = { buf : Bytes.t; limit : int; mutable pos : int }

  let of_bytes ?(pos = 0) ?len buf =
    let limit =
      match len with Some l -> pos + l | None -> Bytes.length buf
    in
    { buf; limit; pos }

  let pos t = t.pos
  let remaining t = t.limit - t.pos
  let fail t reason = Error { offset = t.pos; reason }

  let u8 t =
    if remaining t < 1 then fail t "u8 past end"
    else begin
      let v = Char.code (Bytes.unsafe_get t.buf t.pos) in
      t.pos <- t.pos + 1;
      Ok v
    end

  let u16 t =
    if remaining t < 2 then fail t "u16 past end"
    else begin
      let v = Bytes.get_uint16_be t.buf t.pos in
      t.pos <- t.pos + 2;
      Ok v
    end

  let u32 t =
    if remaining t < 4 then fail t "u32 past end"
    else begin
      let v = Int32.to_int (Bytes.get_int32_be t.buf t.pos) land 0xffffffff in
      t.pos <- t.pos + 4;
      Ok v
    end

  let u64 t =
    if remaining t < 8 then fail t "u64 past end"
    else begin
      let v = Bytes.get_int64_be t.buf t.pos in
      t.pos <- t.pos + 8;
      Ok v
    end

  let skip t n =
    if n < 0 || remaining t < n then fail t "skip past end"
    else begin
      t.pos <- t.pos + n;
      Ok ()
    end

  let expect_end t =
    if remaining t = 0 then Ok () else fail t "trailing bytes"
end

module Crc32 = struct
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1)
             else c := !c lsr 1
           done;
           !c))

  let bytes b ~pos ~len =
    let table = Lazy.force table in
    let crc = ref 0xffffffff in
    for i = pos to pos + len - 1 do
      crc :=
        table.((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xff)
        lxor (!crc lsr 8)
    done;
    !crc lxor 0xffffffff
end

let ( let* ) = Result.bind

(* An [Error _] tagged with the position of the value just read. *)
let reject (r : Reader.t) width reason =
  Error { offset = Reader.pos r - width; reason }

let check r width cond reason = if cond then Ok () else reject r width reason

let expect_u8 r expected reason =
  let* v = Reader.u8 r in
  check r 1 (v = expected) reason

let expect_u16 r expected reason =
  let* v = Reader.u16 r in
  check r 2 (v = expected) reason

let read_list r n f =
  let rec go acc k =
    if k = 0 then Ok (List.rev acc)
    else
      let* v = f r in
      go (v :: acc) (k - 1)
  in
  go [] n

let node_of_int = Packets.Node_id.of_int

let read_node r =
  let* v = Reader.u32 r in
  Ok (node_of_int v)

let write_node w id = Writer.u32 w (Packets.Node_id.to_int id)

let write_sn w (sn : Packets.Seqnum.t) =
  Writer.u32 w sn.stamp;
  Writer.u32 w sn.counter

let read_sn r =
  let* stamp = Reader.u32 r in
  let* counter = Reader.u32 r in
  Ok { Packets.Seqnum.stamp; counter }

(* Lifetimes travel as whole milliseconds in a 32-bit field (RFC 3561
   §5.1 semantics); sub-millisecond residue is truncated on encode. *)
let write_lifetime_ms w t =
  let ms = Int64.to_int (Int64.div (Sim.Time.to_ns t) 1_000_000L) in
  Writer.u32 w ms

let read_lifetime_ms r =
  let* ms = Reader.u32 r in
  Ok (Sim.Time.unsafe_of_ns (ms * 1_000_000))

module Ldr = struct
  (* Mirrors [Ldr.Conditions.infinity]; wire cannot depend on the ldr
     library (ldr depends on net depends on wire), so the equality is
     pinned by a test instead. *)
  let infinite_distance = max_int / 4

  let write_dist w v =
    Writer.u32 w (if v >= infinite_distance then 0xffffffff else v)

  let read_dist r =
    let* v = Reader.u32 r in
    Ok (if v = 0xffffffff then infinite_distance else v)

  let encoded_length (t : Packets.Ldr_msg.t) =
    match t with
    | Rreq _ -> 44
    | Rrep _ -> 32
    | Rerr { unreachable } -> 4 + (12 * List.length unreachable)
    | Rreq_agg members -> 4 + (44 * List.length members)

  let flag_reset = 0x80
  let flag_no_reverse = 0x40
  let flag_probe = 0x20
  let flag_unknown_sn = 0x10

  let rec write w (t : Packets.Ldr_msg.t) =
    match t with
    | Rreq q ->
        Writer.u8 w 1;
        Writer.u8 w
          ((if q.reset then flag_reset else 0)
          lor (if q.no_reverse then flag_no_reverse else 0)
          lor (if q.unicast_probe then flag_probe else 0)
          lor match q.dst_sn with None -> flag_unknown_sn | Some _ -> 0);
        Writer.u8 w q.ttl;
        Writer.u8 w 0;
        Writer.u32 w q.rreq_id;
        write_node w q.dst;
        (match q.dst_sn with
        | None -> Writer.u64 w 0L
        | Some sn -> write_sn w sn);
        write_node w q.origin;
        write_sn w q.origin_sn;
        write_dist w q.fd;
        write_dist w q.answer_dist;
        write_dist w q.dist
    | Rrep p ->
        Writer.u8 w 2;
        Writer.u8 w (if p.rrep_no_reverse then flag_no_reverse else 0);
        Writer.u16 w 0;
        write_node w p.dst;
        write_sn w p.dst_sn;
        write_node w p.origin;
        Writer.u32 w p.rreq_id;
        write_dist w p.dist;
        write_lifetime_ms w p.lifetime
    | Rerr { unreachable } ->
        Writer.u8 w 3;
        Writer.u8 w 0;
        Writer.u8 w (List.length unreachable);
        Writer.u8 w 0;
        List.iter
          (fun (id, sn) ->
            write_node w id;
            match sn with
            | None ->
                Writer.u32 w 0xffffffff;
                Writer.u32 w 0xffffffff
            | Some sn -> write_sn w sn)
          unreachable
    | Rreq_agg members ->
        (* Aggregation option block (type 4): a count octet, two reserved
           octets, then the member RREQs nested whole — each with its own
           type octet — so member layout stays byte-identical to a plain
           flood and the per-member fields (TTL, flags, distances) need no
           re-encoding rules of their own. *)
        Writer.u8 w 4;
        Writer.u8 w (List.length members);
        Writer.u16 w 0;
        List.iter (fun q -> write w (Packets.Ldr_msg.Rreq q)) members

  let rec read r : (Packets.Ldr_msg.t, error) result =
    let* typ = Reader.u8 r in
    match typ with
    | 1 ->
        let* flags = Reader.u8 r in
        let* () = check r 1 (flags land 0x0f = 0) "ldr rreq: reserved flag bits" in
        let* ttl = Reader.u8 r in
        let* () = expect_u8 r 0 "ldr rreq: reserved octet" in
        let* rreq_id = Reader.u32 r in
        let* dst = read_node r in
        let* sn = read_sn r in
        let unknown = flags land flag_unknown_sn <> 0 in
        let* () =
          check r 8
            ((not unknown) || (sn.stamp = 0 && sn.counter = 0))
            "ldr rreq: U flag with nonzero dst_sn"
        in
        let dst_sn = if unknown then None else Some sn in
        let* origin = read_node r in
        let* origin_sn = read_sn r in
        let* fd = read_dist r in
        let* answer_dist = read_dist r in
        let* dist = read_dist r in
        Ok
          (Packets.Ldr_msg.Rreq
             {
               dst;
               dst_sn;
               rreq_id;
               origin;
               origin_sn;
               fd;
               answer_dist;
               dist;
               ttl;
               reset = flags land flag_reset <> 0;
               no_reverse = flags land flag_no_reverse <> 0;
               unicast_probe = flags land flag_probe <> 0;
             })
    | 2 ->
        let* flags = Reader.u8 r in
        let* () =
          check r 1 (flags land lnot flag_no_reverse = 0)
            "ldr rrep: reserved flag bits"
        in
        let* () = expect_u16 r 0 "ldr rrep: reserved octets" in
        let* dst = read_node r in
        let* dst_sn = read_sn r in
        let* origin = read_node r in
        let* rreq_id = Reader.u32 r in
        let* dist = read_dist r in
        let* lifetime = read_lifetime_ms r in
        Ok
          (Packets.Ldr_msg.Rrep
             {
               dst;
               dst_sn;
               origin;
               rreq_id;
               dist;
               lifetime;
               rrep_no_reverse = flags land flag_no_reverse <> 0;
             })
    | 3 ->
        let* () = expect_u8 r 0 "ldr rerr: reserved flags" in
        let* count = Reader.u8 r in
        let* () = expect_u8 r 0 "ldr rerr: reserved octet" in
        let* () =
          check r 1 (Reader.remaining r = 12 * count) "ldr rerr: length mismatch"
        in
        let* unreachable =
          read_list r count (fun r ->
              let* id = read_node r in
              let* sn = read_sn r in
              let sn =
                if sn.stamp = 0xffffffff && sn.counter = 0xffffffff then None
                else Some sn
              in
              Ok (id, sn))
        in
        Ok (Packets.Ldr_msg.Rerr { unreachable })
    | 4 ->
        let* count = Reader.u8 r in
        let* () = check r 1 (count >= 1) "ldr rreq-agg: empty aggregate" in
        let* () = expect_u16 r 0 "ldr rreq-agg: reserved octets" in
        let* () =
          check r 1
            (Reader.remaining r = 44 * count)
            "ldr rreq-agg: length mismatch"
        in
        let* members =
          read_list r count (fun r ->
              let* m = read r in
              match m with
              | Packets.Ldr_msg.Rreq q -> Ok q
              | _ -> reject r 1 "ldr rreq-agg: member is not a RREQ")
        in
        Ok (Packets.Ldr_msg.Rreq_agg members)
    | _ -> reject r 1 "ldr: unknown message type"

end

module Aodv = struct
  let flag_unknown_sn = 0x08

  let encoded_length (t : Packets.Aodv_msg.t) =
    match t with
    | Rreq _ -> 24
    | Rrep _ -> 20
    | Rerr { unreachable } -> 4 + (8 * List.length unreachable)
    | Rreq_agg members -> 4 + (24 * List.length members)

  let rec write w (t : Packets.Aodv_msg.t) =
    match t with
    | Rreq q ->
        Writer.u8 w 1;
        Writer.u8 w (match q.dst_sn with None -> flag_unknown_sn | Some _ -> 0);
        (* RFC 3561 carries the expanding-ring TTL in the IP header; with
           no IP layer here it rides the RREQ's reserved octet. *)
        Writer.u8 w q.ttl;
        Writer.u8 w q.hop_count;
        Writer.u32 w q.rreq_id;
        write_node w q.dst;
        Writer.u32 w (match q.dst_sn with None -> 0 | Some sn -> sn);
        write_node w q.origin;
        Writer.u32 w q.origin_sn
    | Rrep p ->
        Writer.u8 w 2;
        Writer.u8 w 0;
        Writer.u8 w 0;
        Writer.u8 w p.hop_count;
        write_node w p.dst;
        Writer.u32 w p.dst_sn;
        write_node w p.origin;
        write_lifetime_ms w p.lifetime
    | Rerr { unreachable } ->
        Writer.u8 w 3;
        Writer.u8 w 0;
        Writer.u8 w (List.length unreachable);
        Writer.u8 w 0;
        List.iter
          (fun (id, sn) ->
            write_node w id;
            Writer.u32 w sn)
          unreachable
    | Rreq_agg members ->
        (* Aggregation option block; type 16 sits outside RFC 3561's 1-4
           range, marking it as the extension it is.  Same shape as the
           LDR block: count octet, two reserved octets, nested whole
           member RREQs. *)
        Writer.u8 w 16;
        Writer.u8 w (List.length members);
        Writer.u16 w 0;
        List.iter (fun q -> write w (Packets.Aodv_msg.Rreq q)) members

  let rec read r : (Packets.Aodv_msg.t, error) result =
    let* typ = Reader.u8 r in
    match typ with
    | 1 ->
        let* flags = Reader.u8 r in
        let* () =
          check r 1 (flags land lnot flag_unknown_sn = 0)
            "aodv rreq: reserved flag bits"
        in
        let* ttl = Reader.u8 r in
        let* hop_count = Reader.u8 r in
        let* rreq_id = Reader.u32 r in
        let* dst = read_node r in
        let* sn = Reader.u32 r in
        let unknown = flags land flag_unknown_sn <> 0 in
        let* () =
          check r 4 ((not unknown) || sn = 0) "aodv rreq: U flag with nonzero sn"
        in
        let dst_sn = if unknown then None else Some sn in
        let* origin = read_node r in
        let* origin_sn = Reader.u32 r in
        Ok
          (Packets.Aodv_msg.Rreq
             { dst; dst_sn; rreq_id; origin; origin_sn; hop_count; ttl })
    | 2 ->
        let* () = expect_u8 r 0 "aodv rrep: reserved flags" in
        let* () = expect_u8 r 0 "aodv rrep: prefix size" in
        let* hop_count = Reader.u8 r in
        let* dst = read_node r in
        let* dst_sn = Reader.u32 r in
        let* origin = read_node r in
        let* lifetime = read_lifetime_ms r in
        Ok (Packets.Aodv_msg.Rrep { dst; dst_sn; origin; hop_count; lifetime })
    | 3 ->
        let* () = expect_u8 r 0 "aodv rerr: reserved flags" in
        let* count = Reader.u8 r in
        let* () = expect_u8 r 0 "aodv rerr: reserved octet" in
        let* () =
          check r 1 (Reader.remaining r = 8 * count) "aodv rerr: length mismatch"
        in
        let* unreachable =
          read_list r count (fun r ->
              let* id = read_node r in
              let* sn = Reader.u32 r in
              Ok (id, sn))
        in
        Ok (Packets.Aodv_msg.Rerr { unreachable })
    | 16 ->
        let* count = Reader.u8 r in
        let* () = check r 1 (count >= 1) "aodv rreq-agg: empty aggregate" in
        let* () = expect_u16 r 0 "aodv rreq-agg: reserved octets" in
        let* () =
          check r 1
            (Reader.remaining r = 24 * count)
            "aodv rreq-agg: length mismatch"
        in
        let* members =
          read_list r count (fun r ->
              let* m = read r in
              match m with
              | Packets.Aodv_msg.Rreq q -> Ok q
              | _ -> reject r 1 "aodv rreq-agg: member is not a RREQ")
        in
        Ok (Packets.Aodv_msg.Rreq_agg members)
    | _ -> reject r 1 "aodv: unknown message type"

end

module Data = struct
  let header_bytes = 28

  let encoded_length (d : Packets.Data_msg.t) = header_bytes + d.payload_bytes

  let write w (d : Packets.Data_msg.t) =
    Writer.u8 w d.ttl;
    Writer.u8 w d.hops;
    Writer.u16 w d.payload_bytes;
    Writer.u32 w d.flow_id;
    Writer.u32 w d.seq;
    write_node w d.src;
    write_node w d.dst;
    Writer.u64 w (Sim.Time.to_ns d.origin_time);
    Writer.zeros w d.payload_bytes

  let read r : (Packets.Data_msg.t, error) result =
    let* ttl = Reader.u8 r in
    let* hops = Reader.u8 r in
    let* payload_bytes = Reader.u16 r in
    let* flow_id = Reader.u32 r in
    let* seq = Reader.u32 r in
    let* src = read_node r in
    let* dst = read_node r in
    let* ns = Reader.u64 r in
    let* () =
      check r 8 (Int64.compare ns 0L >= 0) "data: negative origin time"
    in
    let* () = Reader.skip r payload_bytes in
    Ok
      {
        Packets.Data_msg.flow_id;
        seq;
        src;
        dst;
        payload_bytes;
        origin_time = Sim.Time.unsafe_of_ns (Int64.to_int ns);
        ttl;
        hops;
      }

end

module Dsr = struct
  let opt_rerr = 1
  let opt_rreq = 2
  let opt_rrep = 3
  let opt_source_route = 96

  let encoded_length (t : Packets.Dsr_msg.t) =
    match t with
    | Rreq { route; _ } -> 16 + (4 * List.length route)
    | Rrep { sr_remaining; rrep } ->
        20 + (4 * List.length sr_remaining) + (4 * List.length rrep.full_route)
    | Rerr { sr_remaining; _ } -> 28 + (4 * List.length sr_remaining)
    | Data { full_route; data; _ } ->
        8 + (4 * List.length full_route) + Data.encoded_length data

  let write_addrs w l = List.iter (write_node w) l

  let write_source_route w ~salvage ~segs_left addrs =
    Writer.u8 w opt_source_route;
    Writer.u8 w (2 + (4 * List.length addrs));
    Writer.u8 w salvage;
    Writer.u8 w segs_left;
    write_addrs w addrs

  (* Fixed DSR header: [ttl][next_header][payload length].  The RFC's
     next-header octet distinguishes options-only packets (0) from
     packets whose options are followed by a data payload (1). *)
  let write_header w ~ttl ~next_header ~payload_len =
    Writer.u8 w ttl;
    Writer.u8 w next_header;
    Writer.u16 w payload_len

  let write w (t : Packets.Dsr_msg.t) =
    let payload_len = encoded_length t - 4 in
    match t with
    | Rreq { origin; dst; rreq_id; route; ttl } ->
        write_header w ~ttl ~next_header:0 ~payload_len;
        Writer.u8 w opt_rreq;
        Writer.u8 w (10 + (4 * List.length route));
        Writer.u16 w rreq_id;
        write_node w dst;
        write_node w origin;
        write_addrs w route
    | Rrep { sr_remaining; rrep } ->
        write_header w ~ttl:0 ~next_header:0 ~payload_len;
        write_source_route w ~salvage:0
          ~segs_left:(List.length sr_remaining)
          sr_remaining;
        Writer.u8 w opt_rrep;
        Writer.u8 w (10 + (4 * List.length rrep.full_route));
        Writer.u16 w 0;
        write_node w rrep.origin;
        write_node w rrep.dst;
        write_addrs w rrep.full_route
    | Rerr { sr_remaining; rerr } ->
        write_header w ~ttl:0 ~next_header:0 ~payload_len;
        write_source_route w ~salvage:0
          ~segs_left:(List.length sr_remaining)
          sr_remaining;
        Writer.u8 w opt_rerr;
        Writer.u8 w 18;
        Writer.u8 w 1 (* NODE_UNREACHABLE *);
        Writer.u8 w 0;
        write_node w rerr.err_from;
        write_node w rerr.err_dst;
        write_node w rerr.broken_from;
        write_node w rerr.broken_to
    | Data { sr_remaining; full_route; data; salvage } ->
        write_header w ~ttl:0 ~next_header:1 ~payload_len;
        (* The source-route option carries the whole route; the hops
           still to traverse are the last [segs_left] of it (the agents
           maintain [sr_remaining] as a suffix of [full_route]). *)
        write_source_route w ~salvage
          ~segs_left:(List.length sr_remaining)
          full_route;
        Data.write w data

  let read_addr_block r ~data_len ~fixed reason =
    let* () =
      check r 1 (data_len >= fixed && (data_len - fixed) mod 4 = 0) reason
    in
    read_list r ((data_len - fixed) / 4) read_node

  let rec suffix l n = if List.length l <= n then l else suffix (List.tl l) n

  let read r : (Packets.Dsr_msg.t, error) result =
    let* ttl = Reader.u8 r in
    let* next_header = Reader.u8 r in
    let* payload_len = Reader.u16 r in
    let* () =
      check r 2 (Reader.remaining r = payload_len) "dsr: length mismatch"
    in
    let* opt = Reader.u8 r in
    if opt = opt_rreq then
      let* () = check r 1 (next_header = 0) "dsr rreq: unexpected payload" in
      let* data_len = Reader.u8 r in
      let* rreq_id = Reader.u16 r in
      let* dst = read_node r in
      let* origin = read_node r in
      let* route =
        read_addr_block r ~data_len ~fixed:10 "dsr rreq: bad option length"
      in
      Ok (Packets.Dsr_msg.Rreq { origin; dst; rreq_id; route; ttl })
    else if opt = opt_source_route then
      let* () = check r 1 (ttl = 0) "dsr: nonzero ttl outside rreq" in
      let* data_len = Reader.u8 r in
      let* salvage = Reader.u8 r in
      let* segs_left = Reader.u8 r in
      let* addrs =
        read_addr_block r ~data_len ~fixed:2 "dsr: bad source-route length"
      in
      let* () =
        check r 1 (segs_left <= List.length addrs) "dsr: segs_left beyond route"
      in
      if next_header = 1 then
        let* data = Data.read r in
        Ok
          (Packets.Dsr_msg.Data
             { sr_remaining = suffix addrs segs_left; full_route = addrs; data; salvage })
      else
        let* () =
          check r 0 (segs_left = List.length addrs) "dsr: partial source route"
        in
        let* () = check r 0 (salvage = 0) "dsr: salvage outside data" in
        let* opt = Reader.u8 r in
        if opt = opt_rrep then
          let* data_len = Reader.u8 r in
          let* () = expect_u16 r 0 "dsr rrep: reserved octets" in
          let* origin = read_node r in
          let* dst = read_node r in
          let* full_route =
            read_addr_block r ~data_len ~fixed:10 "dsr rrep: bad option length"
          in
          Ok
            (Packets.Dsr_msg.Rrep
               { sr_remaining = addrs; rrep = { origin; dst; full_route } })
        else if opt = opt_rerr then
          let* () = expect_u8 r 18 "dsr rerr: bad option length" in
          let* () = expect_u8 r 1 "dsr rerr: unsupported error type" in
          let* () = expect_u8 r 0 "dsr rerr: reserved octet" in
          let* err_from = read_node r in
          let* err_dst = read_node r in
          let* broken_from = read_node r in
          let* broken_to = read_node r in
          Ok
            (Packets.Dsr_msg.Rerr
               {
                 sr_remaining = addrs;
                 rerr = { err_from; broken_from; broken_to; err_dst };
               })
        else reject r 1 "dsr: unknown option after source route"
    else reject r 1 "dsr: unknown leading option"

end

module Olsr = struct
  let msg_hello = 1
  let msg_tc = 2

  (* RFC 3626 link codes: (neighbor type << 2) | link type. *)
  let code_asym = 1 (* NOT_NEIGH, ASYM_LINK *)
  let code_sym = 6 (* SYM_NEIGH, SYM_LINK *)
  let code_mpr = 10 (* MPR_NEIGH, SYM_LINK *)

  let hello_blocks (neighbors : (Packets.Node_id.t * Packets.Olsr_msg.link_kind) list) =
    let of_kind k =
      List.filter_map
        (fun (id, kind) -> if kind = k then Some id else None)
        neighbors
    in
    List.filter
      (fun (_, ids) -> ids <> [])
      [
        (code_asym, of_kind Packets.Olsr_msg.Asym);
        (code_sym, of_kind Packets.Olsr_msg.Sym);
        (code_mpr, of_kind Packets.Olsr_msg.Mpr);
      ]

  let encoded_length (t : Packets.Olsr_msg.t) =
    match t with
    | Hello h ->
        List.fold_left
          (fun acc (_, ids) -> acc + 4 + (4 * List.length ids))
          20 (hello_blocks h.neighbors)
    | Tc { tc; _ } -> 20 + (4 * List.length tc.advertised)

  let write w (t : Packets.Olsr_msg.t) =
    let len = encoded_length t in
    Writer.u16 w len;
    Writer.u16 w 0;
    (* packet sequence number *)
    match t with
    | Hello h ->
        Writer.u8 w msg_hello;
        Writer.u8 w 0 (* vtime *);
        Writer.u16 w (len - 4);
        (* HELLOs are single-hop: the originator is the MAC source, so
           the envelope field is left zero rather than duplicated. *)
        Writer.u32 w 0;
        Writer.u8 w 1 (* ttl *);
        Writer.u8 w 0 (* hop count *);
        Writer.u16 w 0 (* message sequence *);
        Writer.u16 w 0 (* reserved *);
        Writer.u8 w 0 (* htime *);
        Writer.u8 w 3 (* willingness: WILL_DEFAULT *);
        List.iter
          (fun (code, ids) ->
            Writer.u8 w code;
            Writer.u8 w 0;
            Writer.u16 w (4 + (4 * List.length ids));
            List.iter (write_node w) ids)
          (hello_blocks h.neighbors)
    | Tc { origin; msg_seq; ttl; tc } ->
        Writer.u8 w msg_tc;
        Writer.u8 w 0;
        Writer.u16 w (len - 4);
        write_node w origin;
        Writer.u8 w ttl;
        Writer.u8 w 0;
        Writer.u16 w msg_seq;
        Writer.u16 w tc.ansn;
        Writer.u16 w 0;
        List.iter (write_node w) tc.advertised

  let kind_of_code r = function
    | c when c = code_asym -> Ok Packets.Olsr_msg.Asym
    | c when c = code_sym -> Ok Packets.Olsr_msg.Sym
    | c when c = code_mpr -> Ok Packets.Olsr_msg.Mpr
    | _ -> reject r 1 "olsr hello: unknown link code"

  let read r : (Packets.Olsr_msg.t, error) result =
    let total = Reader.remaining r in
    let* pkt_len = Reader.u16 r in
    let* () = check r 2 (pkt_len = total) "olsr: packet length mismatch" in
    let* () = expect_u16 r 0 "olsr: packet sequence" in
    let* msg_type = Reader.u8 r in
    let* () = expect_u8 r 0 "olsr: vtime" in
    let* msg_size = Reader.u16 r in
    let* () = check r 2 (msg_size = total - 4) "olsr: message size mismatch" in
    let* originator = Reader.u32 r in
    let* ttl = Reader.u8 r in
    let* () = expect_u8 r 0 "olsr: hop count" in
    let* msg_seq = Reader.u16 r in
    if msg_type = msg_hello then
      let* () = check r 0 (originator = 0) "olsr hello: originator set" in
      let* () = check r 0 (ttl = 1) "olsr hello: ttl" in
      let* () = check r 0 (msg_seq = 0) "olsr hello: message sequence" in
      let* () = expect_u16 r 0 "olsr hello: reserved" in
      let* () = expect_u8 r 0 "olsr hello: htime" in
      let* () = expect_u8 r 3 "olsr hello: willingness" in
      let rec blocks acc =
        if Reader.remaining r = 0 then Ok (List.rev acc)
        else
          let* code = Reader.u8 r in
          let* kind = kind_of_code r code in
          let* () = expect_u8 r 0 "olsr hello: block reserved" in
          let* size = Reader.u16 r in
          let* () =
            check r 2 (size >= 8 && (size - 4) mod 4 = 0)
              "olsr hello: bad block size"
          in
          let* ids = read_list r ((size - 4) / 4) read_node in
          blocks (List.rev_append (List.map (fun id -> (id, kind)) ids) acc)
      in
      let* neighbors = blocks [] in
      Ok (Packets.Olsr_msg.Hello { neighbors })
    else if msg_type = msg_tc then
      let* ansn = Reader.u16 r in
      let* () = expect_u16 r 0 "olsr tc: reserved" in
      let* () =
        check r 2 (Reader.remaining r mod 4 = 0) "olsr tc: ragged address list"
      in
      let* advertised = read_list r (Reader.remaining r / 4) read_node in
      let origin = node_of_int originator in
      Ok
        (Packets.Olsr_msg.Tc
           {
             origin;
             msg_seq;
             ttl;
             tc = { tc_origin = origin; ansn; advertised };
           })
    else reject r 1 "olsr: unknown message type"

end

module Payload = struct
  let family_ack = 0

  let family (p : Packets.Payload.t) =
    match p with
    | Data _ -> 1
    | Ldr _ -> 2
    | Aodv _ -> 3
    | Dsr _ -> 4
    | Olsr _ -> 5

  let encoded_length (p : Packets.Payload.t) =
    match p with
    | Data d -> Data.encoded_length d
    | Ldr m -> Ldr.encoded_length m
    | Aodv m -> Aodv.encoded_length m
    | Dsr m -> Dsr.encoded_length m
    | Olsr m -> Olsr.encoded_length m

  let write w (p : Packets.Payload.t) =
    match p with
    | Data d -> Data.write w d
    | Ldr m -> Ldr.write w m
    | Aodv m -> Aodv.write w m
    | Dsr m -> Dsr.write w m
    | Olsr m -> Olsr.write w m

  let read ~family r : (Packets.Payload.t, error) result =
    match family with
    | 1 ->
        let* d = Data.read r in
        Ok (Packets.Payload.Data d)
    | 2 ->
        let* m = Ldr.read r in
        Ok (Packets.Payload.Ldr m)
    | 3 ->
        let* m = Aodv.read r in
        Ok (Packets.Payload.Aodv m)
    | 4 ->
        let* m = Dsr.read r in
        Ok (Packets.Payload.Dsr m)
    | 5 ->
        let* m = Olsr.read r in
        Ok (Packets.Payload.Olsr m)
    | _ -> Reader.fail r "payload: unknown family"

  let encode p =
    let w = Writer.create ~capacity:(encoded_length p) () in
    write w p;
    Writer.contents w

  let decode ~family b =
    let r = Reader.of_bytes b in
    let* t = read ~family r in
    let* () = Reader.expect_end r in
    Ok t
end

let encoded_length = Payload.encoded_length

module Mac = struct
  (* 802.11 4-address data header: frame control (2) + duration (2) +
     A1..A3 (18) + sequence control (2) + A4 (6). *)
  let header_bytes = 30
  let fcs_bytes = 4
  let data_overhead = header_bytes + fcs_bytes
  let ack_bytes = 14

  let write_addr w = function
    | None ->
        Writer.u16 w 0xffff;
        Writer.u32 w 0xffffffff
    | Some id ->
        Writer.u16 w 0x0200;
        Writer.u32 w id

  let read_addr r =
    let* hi = Reader.u16 r in
    let* lo = Reader.u32 r in
    if hi = 0xffff && lo = 0xffffffff then Ok None
    else if hi = 0x0200 then Ok (Some lo)
    else reject r 6 "mac: malformed address"
end
