type ctx = {
  node_cert : Avm_crypto.Identity.certificate;
  peer_certs : (string * Avm_crypto.Identity.certificate) list;
  auths : Avm_tamperlog.Auth.t list;
  ack_grace : int;
}

let ctx ~node_cert ?(peer_certs = []) ?(auths = []) ?(ack_grace = 50) () =
  { node_cert; peer_certs; auths; ack_grace }

type parallelism = { jobs : int; pool : Avm_util.Domain_pool.t option }

let sequential = { jobs = 1; pool = None }
let parallel ?pool jobs = { jobs; pool }

module Pool = Avm_util.Domain_pool

let with_parallelism ?(par = sequential) f =
  match par.pool with
  | Some p -> f (if Pool.jobs p > 1 then Some p else None)
  | None -> if par.jobs > 1 then Pool.with_pool ~jobs:par.jobs (fun p -> f (Some p)) else f None

let map ?par f xs =
  with_parallelism ?par (function
    | Some p -> Pool.map_list p f xs
    | None -> List.map f xs)
