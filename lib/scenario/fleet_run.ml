open Avm_core
module H = Fleet_harness
module Faults = Avm_netsim.Faults
module Rng = Avm_util.Rng

(* Field docs live in the interface. *)
type spec = {
  nodes : int; witnesses : int; epochs : int; epoch_us : float;
  activity : float; cheat_frac : float;
  seed : int64; rsa_bits : int; key_pool : int; faults : Faults.t option;
  shards : int; dedup : bool; spot_rate : int;
}

let default_spec =
  {
    nodes = 200; witnesses = 3; epochs = 3; epoch_us = 1_000_000.0;
    activity = 0.10; cheat_frac = 0.02;
    seed = 7L; rsa_bits = 512; key_pool = 32;
    faults = Some (Faults.make ~drop:0.02 ~reorder:0.05 ~jitter_us:2_000.0 ());
    shards = 8; dedup = true; spot_rate = 8;
  }

type cheat = { node : int; epoch : int; slot : int; value : int }

type epoch_report = H.epoch_report = { epoch : int; coverage : float; jobs : int; failures : int }

type outcome = {
  spec : spec; net : Avm_netsim.Net.t;
  verdicts : Witness.verdict list; reports : epoch_report list;
  cheats : cheat list; detected : int list; missed : int list; false_flagged : int list;
  sim_events : int; run_seconds : float; audit_jobs : int; audit_seconds : float;
  semantic_entries : int; semantic_us : int; cache : Replay_cache.stats option;
}

let run ?par spec =
  if spec.epochs < 1 then invalid_arg "Fleet_run.run: need at least one epoch";
  (* Each node's guest-visible peers are exactly its witnesses, so the
     communication graph and the audit graph coincide. *)
  let asg = Witness.assign ~seed:spec.seed ~nodes:spec.nodes ~k:spec.witnesses in
  let w =
    H.create ?faults:spec.faults ~seed:spec.seed ~rsa_bits:spec.rsa_bits ~key_pool:spec.key_pool
      asg.Witness.sets
  in
  let rng = H.driver_rng ~salt:0x666C6565745FL spec.seed in
  (* Poke a kv slot the workload never writes (ops use 0..250), with a
     nonzero value: the tamper is invisible to the guest's own outputs
     and only a witness replay can surface it. *)
  let cheats =
    H.pick rng ~nodes:spec.nodes ~epochs:spec.epochs ~frac:spec.cheat_frac (fun ~node ~epoch ->
        let slot = Rng.int_in rng 251 255 in
        let value = 1 + Rng.int_in rng 0 65534 in
        { node; epoch; slot; value })
  in
  let vals_addr = Guests.fleet_symbol "g_vals" in
  let wit = H.witnesses w asg in
  (* One replay cache for the whole run, shared by every (target,
     witness) job across all epochs and worker domains: the idle
     majority's epoch chunks are fingerprint-identical fleet-wide, so
     each distinct chunk replays once and the rest are three-digest
     compares (DESIGN.md §14). Seeded from the spec so the spot-check
     designation — and with it the verdict vector — is reproducible. *)
  let cache =
    if spec.dedup then Some (Replay_cache.create ~spot_rate:spec.spot_rate ~seed:spec.seed ())
    else None
  in
  let counter name = Avm_obs.Metrics.counter (Avm_obs.Metrics.snapshot ()) name in
  let sem_entries0 = counter "witness.semantic_entries" in
  let sem_us0 = counter "witness.semantic_us" in
  let poke epoch _ =
    List.iter
      (fun (c : cheat) ->
        if c.epoch = epoch then Avmm.poke (H.avmm w c.node) ~addr:(vals_addr + c.slot) ~value:c.value)
      cheats
  in
  let run_seconds =
    H.run_epochs w rng ~epochs:spec.epochs ~epoch_us:spec.epoch_us ~activity:spec.activity
      ~mid:poke (fun epoch ->
        let _collected = H.audit_epoch ?par ?cache wit ~shards:spec.shards epoch in
        ())
  in
  let flagged =
    List.filter_map
      (fun (v : Witness.verdict) -> if v.ok then None else Some v.job.target)
      wit.verdicts
  in
  let detected, missed, false_flagged =
    H.tally ~cheaters:(List.map (fun (c : cheat) -> c.node) cheats) ~flagged
  in
  {
    spec; net = w.net; verdicts = wit.verdicts; reports = wit.reports;
    cheats; detected; missed; false_flagged;
    sim_events = Avm_netsim.Sim.processed (Avm_netsim.Net.sim w.net);
    run_seconds;
    audit_jobs = wit.audit_jobs;
    audit_seconds = wit.audit_seconds;
    semantic_entries = counter "witness.semantic_entries" - sem_entries0;
    semantic_us = counter "witness.semantic_us" - sem_us0;
    cache = Option.map Replay_cache.stats cache;
  }

let signature o = H.signature (List.map H.verdict_line o.verdicts)
