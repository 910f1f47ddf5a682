(* Fleet-scale witness auditing: many tiny kv-store logs audited by k
   witnesses each, where most replay work is shared. Record and audit
   interleave epoch by epoch inside [Fleet_run.run]; its outcome
   splits the wall time into simulation and auditor-pool seconds. *)

module Fleet_run = Avm_scenario.Fleet_run
module Net = Avm_netsim.Net
module Log = Avm_tamperlog.Log
module Spot_check = Avm_core.Spot_check
module Witness = Avm_core.Witness
module Metrics = Avm_obs.Metrics
module H = Harness

let nodes = 2000
let epochs = 5

let spec seed = { Fleet_run.default_spec with Fleet_run.nodes; epochs; seed }

let shape =
  let s = Fleet_run.default_spec in
  Printf.sprintf "%d nodes, k=%d witnesses, %d epochs, dedup %b, 2%% drop + 5%% reorder" nodes
    s.Fleet_run.witnesses epochs s.Fleet_run.dedup

let describe seed = Printf.sprintf "seed %Ld" seed

(* Entries each witness job takes to a verdict: the target's log
   between the job's opening and closing epoch snapshots. *)
let job_entries (o : Fleet_run.outcome) =
  let boundaries =
    Array.map
      (fun n -> Spot_check.boundaries (Avm_core.Avmm.log (Net.node_avmm n)))
      (Net.nodes o.Fleet_run.net)
  in
  let entry_seq target snapshot_seq =
    List.find_map
      (fun (b : Spot_check.boundary) ->
        if b.Spot_check.snapshot_seq = snapshot_seq then Some b.Spot_check.entry_seq else None)
      boundaries.(target)
  in
  List.fold_left
    (fun acc (v : Witness.verdict) ->
      let { Witness.target; epoch; _ } = v.Witness.job in
      match (entry_seq target (epoch - 1), entry_seq target epoch) with
      | Some first, Some last -> acc + last - first
      | _ -> acc)
    0 o.Fleet_run.verdicts

(* Witness audit jobs per second of the auditor pool. *)
let report jobs_per_s = [ H.summary "fleet_jobs_per_s" "jobs/s" jobs_per_s ]

let run ~seed ~par =
  let before = Metrics.snapshot () in
  let o, wall_s =
    H.timed (fun () -> H.span "Fleet_run.run" (fun () -> Fleet_run.run ~par (spec seed)))
  in
  let after = Metrics.snapshot () in
  let logs = Array.map (fun n -> Avm_core.Avmm.log (Net.node_avmm n)) (Net.nodes o.Fleet_run.net) in
  let audit_entries = job_entries o in
  let whole = { H.before; after } in
  let semantic_s = float_of_int o.Fleet_run.semantic_us /. 1e6 in
  let pool_busy_s = List.fold_left ( +. ) 0.0 (H.shard_seconds after) in
  {
    (* What [Fleet_run.run] spends outside its simulation and auditor
       pool: key generation, image compile, world creation, and the
       per-epoch view building. *)
    H.setup_s = wall_s -. o.Fleet_run.run_seconds -. o.Fleet_run.audit_seconds;
    record_s = o.Fleet_run.run_seconds;
    record_entries = Array.fold_left (fun acc l -> acc + Log.length l) 0 logs;
    audit_s = o.Fleet_run.audit_seconds;
    audit_entries;
    virtual_s =
      float_of_int o.Fleet_run.spec.Fleet_run.epochs *. o.Fleet_run.spec.Fleet_run.epoch_us /. 1e6;
    stored_bytes = Array.fold_left (fun acc l -> acc + Log.stored_bytes l) 0 logs;
    wire_bytes = int_of_float (H.delta whole "net.bytes_sent");
    own = [ float_of_int o.Fleet_run.audit_jobs /. o.Fleet_run.audit_seconds ];
    targets = nodes;
    errors = List.length o.Fleet_run.missed + List.length o.Fleet_run.false_flagged;
    signature = Fleet_run.signature o;
    layers =
      (if !H.tracing then
         H.layers ~record:whole ~audit:whole ~audit_entries
           [
             ("net.run_s", o.Fleet_run.run_seconds);
             ("sim.events", float_of_int o.Fleet_run.sim_events);
             ("audit.syntactic_s", pool_busy_s -. semantic_s);
             ("audit.semantic_s", semantic_s);
             ("witness.audit_s", o.Fleet_run.audit_seconds);
             ("pool.lanes", float_of_int par.Avm_core.Audit.jobs);
           ]
       else []);
    attributed_s = o.Fleet_run.run_seconds +. o.Fleet_run.audit_seconds;
  }
