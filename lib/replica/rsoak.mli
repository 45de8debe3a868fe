(** Replica-topology soak: the failover counterpart of
    {!Rts_serve.Soak}.

    One {!Cluster} (controller + serving nodes + scripted clients) runs
    a churny multi-tenant workload to quiescence while one scenario
    fault hits the initial primary mid-stream — on top of per-tenant
    storage-fault plans on {e every} node and a lossy, reordering
    network. Client 0 subscribes to every tenant; clients [1..tenants]
    each drive one tenant's {!Rts_serve.Oracle.script} and ride out the
    failover via re-send + watermark re-subscribe.

    The oracle is built from the promoted node's own storage: cold WAL
    segments are archived at the moment pruning deletes them (an
    {!Rts_resilience.Io.dir} wrapper on the base dir), and
    {!Rts_serve.Oracle.verdict} replays [archive ++ surviving chain]
    through a fresh engine, which must equal — bit-identically — both
    the promoted node's maturity log and the subscriber's merged push
    stream: nothing lost, nothing early, nothing duplicated across the
    failover. Pruning must also have actually happened
    ([pruned_somewhere]) and the surviving chain must stay under the
    disk bound, so the run demonstrates bounded disk at 10× the
    checkpoint interval, not pruning disabled. *)

type scenario =
  | Clean
      (** no scenario fault: replication + gating under churn only. A
          spurious failover (heartbeats delayed by network-fault luck)
          may still happen and must then be handled correctly. *)
  | Kill of int  (** fail-stop the primary at this virtual tick *)
  | Wedge of { at : int; duration : int }
      (** stall the primary, then wake the zombie — its stale frames
          must be fenced and it must fail-stop on the new view *)

type config = {
  tenants : int;
  queries : int;
  elements : int;
  batch : int;
  threshold : int;
  churn : float;
  dim : int;
  seed : int;
  faulty_incarnations : int;  (** per (node, tenant): lives with fault plans *)
  crash_every : int;  (** storage fault-plan intensity *)
  scenario : scenario;
  cluster : Cluster.config;
}

val default : config
(** 3 serving nodes, [Kill 120], mild network faults, segment rotation
    and pruning on, enough volume for 10× the checkpoint interval. *)

type tenant_report = {
  name : string;
  archived_records : int;  (** ops rescued from pruned segments *)
  chain_records : int;  (** records still on the promoted node's disk *)
  chain_base : int;  (** ops below the surviving chain ( > 0 ⇒ pruned) *)
  verdict : Rts_serve.Oracle.verdict;
      (** the promoted node's log and the subscriber's merged push
          stream against [archive ++ chain] *)
  chain_ok : bool;  (** archive ++ chain is gap-free from op 1 *)
  disk_ok : bool;  (** surviving chain under the pruning bound *)
}

type report = {
  per_tenant : tenant_report list;
  promoted : int;
  failovers : int;
  fenced : int;  (** stale-epoch frames dropped cluster-wide *)
  crashes_total : int;
  net_retransmits : int;
  scenario_ok : bool;  (** the scenario actually played out as scripted *)
  volume_ok : bool;
      (** ≥ 10 × checkpoint interval of ops per tenant. Reported but not
          folded into [ok]: survival-to-application depends on
          fault-plan luck (disk-full windows and kills shed ops under
          the at-least-once admission contract), so only pinned-seed
          tests assert it. *)
  pruned_somewhere : bool;
  ok : bool;
}

val run :
  ?progress:(string -> unit) -> make:(dim:int -> Rts_core.Engine.t) -> config -> report

val pp : Format.formatter -> report -> unit
