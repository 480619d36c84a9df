let recommended_domains () = Domain.recommended_domain_count ()

let run_shards f shards =
  let n = Array.length shards in
  if n <= 1 then Array.mapi f shards
  else begin
    (* Every shard gets a fresh spawned domain — the caller only joins.
       Shard code can then rely on domain-local state being private to its
       shard: a per-domain memo profile exported from inside [f] covers
       only that shard's activity, never the calling domain's history.
       Failures must not leave domains unjoined, so collect outcomes and
       re-raise the lowest-indexed failure only after every join. *)
    let spawned = Array.init n (fun i -> Domain.spawn (fun () -> f i shards.(i))) in
    let res = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned in
    Array.map (function Ok v -> v | Error e -> raise e) res
  end
