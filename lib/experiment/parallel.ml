let recommended_jobs () = Stdlib.max 1 (Domain.recommended_domain_count ())

let resolve_jobs jobs =
  if jobs < 0 then invalid_arg "Parallel.resolve_jobs: jobs must be >= 0"
  else if jobs = 0 then recommended_jobs ()
  else jobs

(* Auto mode must never spawn more domains than there are work items:
   the spare domains would only pay startup cost and skew per-domain GC
   deltas.  Every jobs=0 consumer (map, the sweep benchmark's reported
   worker count) resolves through here. *)
let effective_jobs ~items jobs =
  Stdlib.max 1 (Stdlib.min (resolve_jobs jobs) items)

(* A closeable multi-producer multi-consumer queue of work chunks.
   Workers block on [nonempty] until an item or [close] arrives; after
   close they drain what remains and exit.  All synchronisation in this
   file is this mutex + condition — results need none beyond the
   happens-before edge of [Domain.join]. *)
module Work_queue = struct
  type 'a t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    items : 'a Queue.t;
    mutable closed : bool;
  }

  let create () =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      items = Queue.create ();
      closed = false;
    }

  let push t x =
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Parallel.Work_queue.push: queue closed"
    end;
    Queue.push x t.items;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex

  let take t =
    Mutex.lock t.mutex;
    while Queue.is_empty t.items && not t.closed do
      Condition.wait t.nonempty t.mutex
    done;
    let item =
      if Queue.is_empty t.items then None else Some (Queue.pop t.items)
    in
    Mutex.unlock t.mutex;
    item
end

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

(* Trials are coarse (tens of ms to seconds), so small chunks win: they
   balance load across heterogeneous trial costs and the queue overhead
   is noise.  Only enormous matrices get larger chunks. *)
let default_chunk ~jobs n = Stdlib.max 1 (n / (jobs * 64))

let map ?(jobs = 1) ?chunk n f =
  if n < 0 then invalid_arg "Parallel.map: n must be >= 0";
  let jobs = if n = 0 then 1 else effective_jobs ~items:n jobs in
  if jobs <= 1 then sequential n f
  else begin
    let chunk =
      match chunk with
      | None -> default_chunk ~jobs n
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Parallel.map: chunk must be >= 1"
    in
    let results = Array.make n None in
    let queue = Work_queue.create () in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        match Work_queue.take queue with
        | None -> ()
        | Some (lo, hi) ->
            (* After a failure the queue is only drained, not worked:
               the caller is about to re-raise anyway. *)
            if Atomic.get failure = None then begin
              try
                for i = lo to hi do
                  results.(i) <- Some (f i)
                done
              with e ->
                let bt = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set failure None (Some (e, bt)))
            end;
            loop ()
      in
      loop ()
    in
    (* Workers first, then work: early workers genuinely wait on the
       condition variable while the producer is still pushing. *)
    let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
    let i = ref 0 in
    while !i < n do
      let hi = Stdlib.min (n - 1) (!i + chunk - 1) in
      Work_queue.push queue (!i, hi);
      i := hi + 1
    done;
    Work_queue.close queue;
    Array.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function Some v -> v | None -> assert false (* every chunk ran *))
      results
  end
