open Avm_core
module H = Fleet_harness
module Faults = Avm_netsim.Faults
module Log = Avm_tamperlog.Log
module Entry = Avm_tamperlog.Entry
module Auth = Avm_tamperlog.Auth

(* Field docs live in the interface. *)
type spec = {
  nodes : int; witnesses : int; epochs : int; epoch_us : float;
  activity : float; fork_frac : float;
  seed : int64; rsa_bits : int; key_pool : int; shards : int;
}

let default_spec =
  {
    nodes = 60; witnesses = 3; epochs = 3; epoch_us = 400_000.0;
    activity = 0.15; fork_frac = 0.05;
    seed = 11L; rsa_bits = 512; key_pool = 32; shards = 8;
  }

type forker = { node : int; epoch : int }

type outcome = {
  spec : spec; verdicts : Witness.verdict list; forkers : forker list;
  exchange_detected : (int * int) list; baseline_detected : (int * int) list;
  false_flags : int list; proofs : Evidence.t list; proofs_verified : int;
  commit_auths : int; ex_messages : int; ex_auths : int; ex_bytes : int;
  sim_events : int; run_seconds : float; audit_seconds : float; exchange_seconds : float;
}

(* The forged head: a commitment over a Note the node never logged, at
   the same seq and prev as the genuine one, signed with the node's
   real identity — exactly what a log fork looks like from outside. *)
let fork_commitment avmm ~epoch =
  let log = Avmm.log avmm in
  let n = Log.length log in
  let prev = Log.prev_hash log n in
  let entry =
    Entry.seal ~prev ~seq:n (Entry.Note (Printf.sprintf "commit epoch %d (forked)" epoch))
  in
  Auth.make (Avmm.identity avmm) ~entry ~prev_hash:prev

let run ?par spec =
  if spec.epochs < 1 then invalid_arg "Equivocation_run.run: need at least one epoch";
  if spec.witnesses < 2 then
    invalid_arg "Equivocation_run.run: equivocation needs at least two witnesses per node";
  let asg = Witness.assign ~seed:spec.seed ~nodes:spec.nodes ~k:spec.witnesses in
  let rng = H.driver_rng ~salt:0x65717569765FL spec.seed in
  let forkers =
    H.pick rng ~nodes:spec.nodes ~epochs:spec.epochs ~frac:spec.fork_frac (fun ~node ~epoch ->
        { node; epoch })
  in
  (* The adversary lives in the fault layer: a fork window makes the
     node two-faced from just after its fork epoch opens until halfway
     through the next, which covers the epoch-boundary commitment. *)
  let fork_window f =
    {
      Faults.node = f.node;
      from_us = (float_of_int (f.epoch - 1) *. spec.epoch_us) +. 1.0;
      to_us = (float_of_int f.epoch +. 0.5) *. spec.epoch_us;
    }
  in
  let w =
    H.create ~faults:(Faults.make ~forks:(List.map fork_window forkers) ())
      ~seed:spec.seed ~rsa_bits:spec.rsa_bits ~key_pool:spec.key_pool asg.Witness.sets
  in
  let wit = H.witnesses w asg in
  (* One persistent store per witness, kept across epochs: a fork's two
     heads may reach the same store epochs apart. *)
  let stores = Array.init spec.nodes (fun _ -> Witness.equiv_store ()) in
  let commit_auths = ref 0 and exchange_seconds = ref 0.0 in
  let ex_messages = ref 0 and ex_auths = ref 0 and ex_bytes = ref 0 in
  let exchange_detected = ref [] in
  (* The commitment Note lands after the boundary Snapshot_ref, so it
     is audited as part of the next epoch — which is exactly why the
     per-witness baseline audits cannot flag a fork until one epoch
     later, while the exchange catches it now. *)
  let commit epoch =
    for i = 0 to spec.nodes - 1 do
      let avmm = H.avmm w i in
      Avmm.note avmm (Printf.sprintf "commit epoch %d" epoch);
      match Avmm.commitment avmm with
      | None -> ()
      | Some a ->
        let record wi auth =
          Multiparty.record_auth (Avm_netsim.Net.node_ledger (Avm_netsim.Net.node w.net wi)) auth;
          incr commit_auths
        in
        let set = asg.Witness.sets.(i) in
        if Avm_netsim.Net.two_faced w.net i then begin
          let b = fork_commitment avmm ~epoch in
          Array.iteri (fun slot wi -> record wi (if slot mod 2 = 0 then a else b)) set
        end
        else Array.iter (fun wi -> record wi a) set
    done
  in
  (* After the ordinary audit, gossip each witness set's collected
     authenticators (commitments included) and pair up conflicting
     heads. *)
  let audit epoch =
    let collected = H.audit_epoch ?par wit ~shards:spec.shards epoch in
    let t0 = Unix.gettimeofday () in
    let stats = Witness.exchange asg ~stores ~collected ~cert_of:(H.cert w) in
    exchange_seconds := !exchange_seconds +. (Unix.gettimeofday () -. t0);
    ex_messages := !ex_messages + stats.ex_messages;
    ex_auths := !ex_auths + stats.ex_auths;
    ex_bytes := !ex_bytes + stats.ex_bytes;
    List.iter
      (fun (ev : Evidence.t) ->
        let idx = H.index ev.accused in
        if not (List.mem_assoc idx !exchange_detected) then
          exchange_detected := (idx, epoch) :: !exchange_detected)
      stats.ex_proofs
  in
  let run_seconds =
    H.run_epochs w rng ~epochs:spec.epochs ~epoch_us:spec.epoch_us ~activity:spec.activity
      ~sealed:commit audit
  in
  (* Per-witness baseline: first epoch each target was flagged by an
     ordinary audit job (the collected-auth-vs-log mismatch route). *)
  let baseline_detected =
    List.fold_left
      (fun acc (v : Witness.verdict) ->
        if v.ok || List.mem_assoc v.job.target acc then acc else (v.job.target, v.job.epoch) :: acc)
      [] wit.verdicts
    |> List.sort compare
  in
  let exchange_detected = List.sort compare !exchange_detected in
  let _, _, false_flags =
    H.tally
      ~cheaters:(List.map (fun f -> f.node) forkers)
      ~flagged:(List.map fst (exchange_detected @ baseline_detected))
  in
  (* Every proof must stand alone: a third party with only the accused
     node's certificate — no log, no image, no peers — re-verifies it. *)
  let proofs =
    Array.to_list stores
    |> List.concat_map Witness.equiv_proofs
    |> List.sort_uniq (fun (a : Evidence.t) b -> compare a.accused b.accused)
  in
  let verifies (ev : Evidence.t) =
    let ctx = Audit_ctx.ctx ~node_cert:(H.cert w (H.index ev.accused)) () in
    Audit.check_evidence ev ~ctx ~image:[||] ~peers:[] ()
  in
  {
    spec; verdicts = wit.verdicts; forkers; exchange_detected; baseline_detected; false_flags;
    proofs;
    proofs_verified = List.length (List.filter verifies proofs);
    commit_auths = !commit_auths;
    ex_messages = !ex_messages;
    ex_auths = !ex_auths;
    ex_bytes = !ex_bytes;
    sim_events = Avm_netsim.Sim.processed (Avm_netsim.Net.sim w.net);
    run_seconds;
    audit_seconds = wit.audit_seconds;
    exchange_seconds = !exchange_seconds;
  }

let missed o =
  List.filter_map
    (fun f -> if List.assoc_opt f.node o.exchange_detected = Some f.epoch then None else Some f.node)
    o.forkers

(* The witness verdict lines, then the proof set, then the detection
   schedule. *)
let signature o =
  let proof (ev : Evidence.t) =
    match ev.accusation with
    | Evidence.Equivocation { a; b } ->
      Printf.sprintf "proof:%s:%d:%s:%s\n" ev.accused a.Auth.seq a.Auth.hash b.Auth.hash
    | _ -> Printf.sprintf "proof:%s\n" ev.accused
  in
  H.signature
    (List.map H.verdict_line o.verdicts
    @ List.map proof o.proofs
    @ List.map (fun (n, e) -> Printf.sprintf "caught:%d:%d\n" n e) o.exchange_detected)
