(* Auto mode must never spawn more domains than there are work items:
   the spare domains would only pay startup cost and skew per-domain GC
   deltas.  Every jobs=0 consumer (map, the CLI, perfbench) resolves
   through here. *)
let effective_jobs ~items jobs =
  if jobs < 0 then invalid_arg "Parallel.effective_jobs: jobs must be >= 0";
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  Stdlib.max 1 (Stdlib.min jobs items)

(* Strictly ascending index order — [Array.init]'s order is unspecified,
   and the inline path must replicate the historical sequential loop
   exactly. *)
let sequential n f =
  if n = 0 then [||]
  else begin
    let results = Array.make n (f 0) in
    for i = 1 to n - 1 do
      results.(i) <- f i
    done;
    results
  end

let map ?(jobs = 1) n f =
  if n < 0 then invalid_arg "Parallel.map: n must be >= 0";
  let jobs = if n = 0 then 1 else effective_jobs ~items:n jobs in
  if jobs <= 1 then sequential n f
  else begin
    let results = Array.make n None in
    (* Trials are coarse (tens of ms to seconds), so workers claim one
       index at a time: that balances heterogeneous trial costs, and
       one atomic increment per trial is noise.  All synchronisation
       here is the two atomics — results need none beyond the
       happens-before edge of [Domain.join]. *)
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      (* After a failure no new index is started: the caller is about
         to re-raise anyway. *)
      if i < n && Atomic.get failure = None then begin
        (try results.(i) <- Some (f i)
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        worker ()
      end
    in
    let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function Some v -> v | None -> assert false (* every index ran *))
      results
  end
