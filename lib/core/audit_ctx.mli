(** Shared audit configuration records.

    Every audit entry point used to re-thread the same labeled
    arguments — who is being audited ([node_cert]), whose signatures
    appear in its log ([peer_certs]), which authenticators the auditor
    collected ([auths]), the acknowledgement grace window, and the
    [?jobs]/[?pool] pair. {!ctx} and {!parallelism} bundle them once;
    {!Audit}, {!Spot_check} and {!Online_audit} all take [~ctx] /
    [?par]. (Defined here, below those modules in the dependency
    order; {!Audit} re-exports both records under its own name.) *)

type ctx = {
  node_cert : Avm_crypto.Identity.certificate;
      (** certificate of the node under audit *)
  peer_certs : (string * Avm_crypto.Identity.certificate) list;
      (** certificates of its correspondents, for RECV signatures *)
  auths : Avm_tamperlog.Auth.t list;
      (** authenticators the auditor collected for this node *)
  ack_grace : int;
      (** most recent sends exempt from the every-send-acked rule *)
}

val ctx :
  node_cert:Avm_crypto.Identity.certificate ->
  ?peer_certs:(string * Avm_crypto.Identity.certificate) list ->
  ?auths:Avm_tamperlog.Auth.t list ->
  ?ack_grace:int ->
  unit ->
  ctx
(** Smart constructor; [peer_certs] and [auths] default to [[]],
    [ack_grace] to 50. *)

type parallelism = {
  jobs : int;  (** worker count; 1 = sequential *)
  pool : Avm_util.Domain_pool.t option;
      (** run on this (borrowed) pool instead of spawning one *)
}

val sequential : parallelism
(** [{ jobs = 1; pool = None }] — the default everywhere. *)

val parallel : ?pool:Avm_util.Domain_pool.t -> int -> parallelism
(** [parallel jobs] spawns a scoped pool per call; [parallel ~pool jobs]
    borrows [pool] (its lane count wins over [jobs]). *)

val with_parallelism : ?par:parallelism -> (Avm_util.Domain_pool.t option -> 'a) -> 'a
(** Resolve [?par] the way every entry point does: an explicit
    multi-lane [pool] is borrowed as-is; otherwise [jobs > 1] spawns a
    pool scoped to the callback; anything else passes [None] (the
    sequential path). *)

val map : ?par:parallelism -> ('a -> 'b) -> 'a list -> 'b list
(** [f] over [xs] under {!with_parallelism}: on the pool when there is
    one, else [List.map]; results in input order either way. *)
