open Packets

let infinity = max_int / 4

let sn_ge_opt a = function None -> true | Some b -> Seqnum.(a >= b)
let sn_gt_opt a = function None -> true | Some b -> Seqnum.(a > b)
let sn_eq_opt a = function None -> false | Some b -> Seqnum.equal a b

let ndc ~sn ~fd ~adv_sn ~adv_dist =
  Seqnum.(adv_sn > sn) || (Seqnum.equal adv_sn sn && adv_dist < fd)

let fdc_requires_reset ~sn ~fd ~req_sn ~req_fd =
  sn_eq_opt sn req_sn && fd >= req_fd

let sdc_ignoring_reset ~sn ~dist ~active ~req_sn ~answer_dist =
  active && (sn_gt_opt sn req_sn || (sn_eq_opt sn req_sn && dist < answer_dist))

let sdc ~sn ~dist ~active ~req_sn ~answer_dist ~reset =
  active
  && (sn_gt_opt sn req_sn
     || (sn_eq_opt sn req_sn && dist < answer_dist && not reset))
