(** The distributed coordinator: accepts jobs from clients, shards them
    across registered workers, and reroutes work when a worker dies.

    {2 Sharding}

    Jobs are placed by {e rendezvous (highest-random-weight) hashing}
    on the instance digest: among live workers with spare capacity, the
    job goes to the one maximizing [fnv1a64(digest ^ "|" ^ worker)].
    Two properties follow: repeated solves of the same instance land on
    the same worker (whose engine cache then answers warm or hot), and
    a worker joining or leaving moves only the jobs that hash to it —
    no global reshuffle.

    {2 Durability and rerouting}

    With a {!Psdp_store.Store} attached, the coordinator journals
    [Submitted] when it accepts a job, [Assigned] each time it hands
    the job to a worker, and [Completed] — now carrying the result
    body — when the result arrives; the same WAL the single-process
    engine writes, so [psdp journal] tools read it unchanged. A worker
    that stays silent past the grace period — no frame of any kind, so
    a worker busy streaming results counts as alive without heartbeating
    — or whose connection drops is declared dead; its unfinished jobs are re-queued and
    re-journaled as [Assigned] to their new worker. On startup the
    coordinator replays its journal: every job submitted but never
    completed is re-queued, and every completed job's result is loaded
    so an idempotent resubmission (same job id) is answered from the
    journal instead of re-run — a client never pays twice and never
    loses a result across a coordinator death.

    {2 High availability}

    A standby (see {!Replicate}) attaches with [Rep_hello] and receives
    the whole journal as [Rep_snapshot], then every fsynced append as a
    byte-exact [Rep_append]; its [Rep_ack]s feed the replication-lag
    gauge. Each reign has a {e fencing epoch}: journaled in an [Epoch]
    record, stamped on every journal line, and carried by [Welcome] and
    worker-bound [Submit] frames. A plain restart keeps the stored
    epoch (first-ever start is epoch 1); only a takeover/promotion
    bumps it. A [Hello] whose [fence] exceeds our epoch means a newer
    primary reigns: the worker is {e not} registered — it receives our
    stale [Welcome], rejects it against its fence, and stays with the
    live primary. That exchange is what makes a resurrected deposed
    primary harmless (no split-brain).

    {2 Concurrency model}

    One thread, one [select] loop. Frame decoding is pure and
    incremental, so slow or malicious peers cannot wedge the loop;
    writes are blocking (results and acks are small). Protocol
    violations drop the offending connection only. *)

type config = {
  name : string;  (** announced in [Welcome] *)
  heartbeat_every : float;  (** seconds between worker heartbeats *)
  heartbeat_grace : float;
      (** silence (no frame at all) after which a worker is declared
          dead; must exceed [heartbeat_every] *)
  max_payload : int;  (** per-frame payload acceptance limit, bytes *)
}

val default_config : config
(** [{name = "coordinator"; heartbeat_every = 1.0;
     heartbeat_grace = 5.0; max_payload = Frame.default_max_payload}] *)

val serve :
  ?config:config ->
  ?store:Psdp_store.Store.t ->
  ?metrics:Psdp_obs.Metrics.t ->
  ?trace:Psdp_engine.Trace.sink ->
  ?on_ready:(unit -> unit) ->
  ?takeover:bool ->
  lfd:Unix.file_descr ->
  listen:Transport.addr ->
  unit ->
  (unit, string) result
(** Serve over an already-bound, listening descriptor. This is the
    promotion entry point: a standby binds its address at startup and
    hands the descriptor here the moment it decides to take over, so
    failover involves no bind race. [takeover] bumps the fencing epoch
    past the journal's (and journals the bump); default [false] keeps
    the stored epoch. Closes [lfd] (and unlinks a Unix socket path) on
    the way out. *)

val run :
  ?config:config ->
  ?store:Psdp_store.Store.t ->
  ?metrics:Psdp_obs.Metrics.t ->
  ?trace:Psdp_engine.Trace.sink ->
  ?on_ready:(unit -> unit) ->
  ?takeover:bool ->
  listen:Transport.addr ->
  unit ->
  (unit, string) result
(** Bind [listen] and {!serve} until a client sends [Shutdown] (all
    peers then receive [Goodbye] and every connection is closed) — or
    return [Error] if the listen address cannot be bound. [on_ready]
    fires once recovery is done and the loop is about to start
    (in-process tests synchronize on it).

    Metrics registered when [metrics] is given:
    [psdp_dist_workers], [psdp_dist_worker_inflight{worker}],
    [psdp_dist_jobs_submitted_total], [psdp_dist_jobs_completed_total],
    [psdp_dist_jobs_queued], [psdp_dist_reroutes_total],
    [psdp_dist_heartbeat_misses_total],
    [psdp_dist_frame_bytes_total{dir="rx"|"tx"}], plus the HA meters
    [psdp_ha_epoch], [psdp_ha_standbys],
    [psdp_ha_replication_lag_bytes],
    [psdp_ha_replication_records_total],
    [psdp_ha_replication_bytes_total], [psdp_ha_failovers_total],
    [psdp_ha_deposed_hellos_total],
    [psdp_ha_resubmits_deduped_total]. *)
