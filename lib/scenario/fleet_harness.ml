open Avm_core
module Net = Avm_netsim.Net
module Witness = Avm_core.Witness
module Rng = Avm_util.Rng
module Identity = Avm_crypto.Identity

type world = { net : Net.t; nodes : int; image : int array }

let avmm w i = Net.node_avmm (Net.node w.net i)
let name w i = Net.node_name (Net.node w.net i)
let cert w i = Identity.certificate (Avmm.identity (avmm w i))
let index id = Scanf.sscanf id "n%d" (fun i -> i)

let create ?faults ~seed ~rsa_bits ~key_pool adjacency =
  let nodes = Array.length adjacency in
  let image = (Guests.fleet_image ()).Avm_isa.Asm.words in
  let net =
    Net.create ~seed ?faults ~rsa_bits ~key_pool ~mem_words:Guests.fleet_mem_words
      ~log_backend:Avm_tamperlog.Segment_store.Memory
      ~topology:(Avm_netsim.Topology.of_adjacency adjacency)
      ~config:(Config.make ~snapshot_every_us:None Config.Avmm_rsa768)
      ~images:(List.init nodes (fun _ -> image))
      ~names:(List.init nodes (Printf.sprintf "n%d"))
      ()
  in
  Array.iter (fun n -> ignore (Avmm.take_snapshot (Net.node_avmm n))) (Net.nodes net);
  { net; nodes; image }

let driver_rng ~salt seed = Rng.create (Int64.logxor seed salt)

let pick rng ~nodes ~epochs ~frac draw =
  let count =
    if frac <= 0.0 then 0 else max 1 (int_of_float ((frac *. float_of_int nodes) +. 0.5))
  in
  let chosen = Hashtbl.create (max 16 count) in
  let out = ref [] in
  while Hashtbl.length chosen < min count nodes do
    let node = Rng.int_in rng 0 (nodes - 1) in
    if not (Hashtbl.mem chosen node) then begin
      Hashtbl.add chosen node ();
      let epoch = Rng.int_in rng 1 epochs in
      out := (node, draw ~node ~epoch) :: !out
    end
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !out |> List.map snd

let run_epochs w rng ~epochs ~epoch_us ~activity ?(start = ignore) ?(mid = fun _ _ -> ())
    ?(sealed = ignore) audit =
  let run_seconds = ref 0.0 in
  for epoch = 1 to epochs do
    let t0 = Unix.gettimeofday () in
    start epoch;
    (* Ops land at epoch start, waking the chosen nodes; everyone else
       stays parked on SLEEP and costs no events. *)
    for i = 0 to w.nodes - 1 do
      if Rng.float rng 1.0 < activity then
        for _ = 1 to 1 + Rng.int_in rng 0 2 do
          let slot = Rng.int_in rng 0 250 in
          let value = Rng.int_in rng 0 65535 in
          Net.queue_input w.net i (Guests.fleet_input_op ~slot ~value)
        done
    done;
    let mid_us = (float_of_int (epoch - 1) *. epoch_us) +. (epoch_us /. 2.0) in
    Net.run w.net ~until_us:mid_us ();
    mid epoch mid_us;
    Net.run w.net ~until_us:(float_of_int epoch *. epoch_us) ();
    Array.iter (fun n -> ignore (Avmm.take_snapshot (Net.node_avmm n))) (Net.nodes w.net);
    sealed epoch;
    run_seconds := !run_seconds +. (Unix.gettimeofday () -. t0);
    audit epoch
  done;
  !run_seconds

type epoch_report = { epoch : int; coverage : float; jobs : int; failures : int }

type witnesses = {
  world : world;
  asg : Witness.assignment;
  certs : (string * Identity.certificate) list array;
  mutable verdicts : Witness.verdict list;
  mutable reports : epoch_report list;
  mutable audit_jobs : int;
  mutable audit_seconds : float;
}

(* Keeping peer_certs this small is what lets a 10k-node audit avoid a
   10k-entry cert list per job. *)
let witnesses w (asg : Witness.assignment) =
  let senders = Array.make asg.nodes [] in
  Array.iteri (fun j set -> senders.(set.(0)) <- j :: senders.(set.(0))) asg.sets;
  let certs =
    Array.init asg.nodes (fun t ->
        let seen = Hashtbl.create 8 in
        let add acc i =
          if Hashtbl.mem seen i then acc
          else begin
            Hashtbl.add seen i ();
            (name w i, cert w i) :: acc
          end
        in
        Array.fold_left add (List.fold_left add [] senders.(t)) asg.sets.(t))
  in
  { world = w; asg; certs; verdicts = []; reports = []; audit_jobs = 0; audit_seconds = 0.0 }

let audit_epoch ?par ?cache wt ~shards epoch =
  let w = wt.world in
  let view_of t =
    let a = avmm w t in
    {
      Witness.log = Avmm.log a;
      snapshots = Avmm.snapshots a;
      image = w.image;
      mem_words = Guests.fleet_mem_words;
      peers = Net.peers_of w.net t;
      node_cert = Identity.certificate (Avmm.identity a);
      peer_certs = wt.certs.(t);
    }
  in
  let views = Array.init w.nodes view_of in
  let auth_tbl = Hashtbl.create (w.nodes * wt.asg.Witness.k) in
  Array.iteri
    (fun t set ->
      Array.iter
        (fun wi ->
          Hashtbl.replace auth_tbl (t, wi)
            (Multiparty.auths_for (Net.node_ledger (Net.node w.net wi)) (name w t)))
        set)
    wt.asg.Witness.sets;
  let collected ~target ~witness =
    Option.value ~default:[] (Hashtbl.find_opt auth_tbl (target, witness))
  in
  let f (job : Witness.job) =
    Witness.audit_job ?cache ~view:views.(job.target)
      ~auths:(collected ~target:job.target ~witness:job.witness)
      job
  in
  let jobs = Witness.epoch_jobs wt.asg ~epoch in
  let t0 = Unix.gettimeofday () in
  let vs = Witness.run_sharded ?par ~shards ~f jobs in
  wt.audit_seconds <- wt.audit_seconds +. (Unix.gettimeofday () -. t0);
  wt.audit_jobs <- wt.audit_jobs + List.length jobs;
  let report =
    {
      epoch;
      coverage = Witness.coverage vs ~nodes:w.nodes ~epoch;
      jobs = List.length jobs;
      failures = List.length (List.filter (fun v -> not v.Witness.ok) vs);
    }
  in
  wt.verdicts <- wt.verdicts @ vs;
  wt.reports <- wt.reports @ [ report ];
  collected

let tally ~cheaters ~flagged =
  let detected, missed = List.partition (fun c -> List.mem c flagged) cheaters in
  (detected, missed, List.sort_uniq compare (List.filter (fun f -> not (List.mem f cheaters)) flagged))

let verdict_line (v : Witness.verdict) =
  let j = v.job in
  Printf.sprintf "%d:%d:%d:%s:%b:%s\n" j.epoch j.target j.witness
    (match j.mode with Witness.Syntactic -> "syn" | Witness.Semantic -> "sem")
    v.ok v.detail

let signature lines = Digest.to_hex (Digest.string (String.concat "" lines))

let gate ?(reports = []) ?same ?(checks = []) ~missed ~false_flagged () =
  let fails = ref [] in
  let check ok fmt = Printf.ksprintf (fun m -> if not ok then fails := m :: !fails) fmt in
  Option.iter (fun (what, a, b) -> check (a = b) "verdict signature differs between %s" what) same;
  List.iter (fun r -> check (r.coverage = 1.0) "epoch %d coverage %.3f < 1.0" r.epoch r.coverage) reports;
  check (missed = []) "%d cheats went undetected" (List.length missed);
  check (false_flagged = []) "%d honest nodes were flagged" (List.length false_flagged);
  List.iter (fun (ok, m) -> check ok "%s" m) checks;
  List.rev !fails
