(* The whole (scenario × seed) matrix fans through one Parallel.map
   call, so a 3-scenario × 10-seed sweep keeps 8 workers busy rather
   than parallelising 10 trials at a time.  Trial k runs scenario
   [k / n] under seed [seed + k mod n] and its summary lands at index
   k, so each scenario's slice is in ascending-seed order no matter
   which domain finished first. *)
let run ?jobs scs ~trials:n =
  if n <= 0 then invalid_arg "Sweep.run: trials must be >= 1";
  let scs = Array.of_list scs in
  let summaries =
    Parallel.map ?jobs (Array.length scs * n) (fun k ->
        let sc : Scenario.t = scs.(k / n) in
        (Runner.run { sc with seed = sc.seed + (k mod n) }).Runner.summary)
  in
  List.init (Array.length scs) (fun i -> Array.sub summaries (i * n) n)

let trial_outcomes ?jobs (sc : Scenario.t) ~n =
  if n <= 0 then invalid_arg "Sweep.trial_outcomes: n must be >= 1";
  Parallel.map ?jobs n (fun i -> Runner.run { sc with seed = sc.seed + i })
