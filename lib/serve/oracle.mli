(** The WAL oracle shared by the two soak harnesses ({!Soak} and
    [Rts_replica.Rsoak]): how a run is seeded and scripted, and how it
    is judged.

    A run is a pure function of its master seed: {!mix} derives every
    per-tenant, per-incarnation and per-link seed from it, {!draw_plan}
    turns a seeded PRNG into a storage fault plan, and {!script} turns
    it into a tenant's frame script. The {!verdict} replays the ops a
    node made durable on a fresh, fault-free engine and holds the
    server's maturity log and the subscriber's push stream to that
    replay — exactly once, never early. *)

open Rts_core

val mix : int -> string -> int -> int
(** [mix seed name k] is a 30-bit seed derived from [seed], [name] and
    [k]. Stable across compiler versions (unlike [Hashtbl.hash]), so
    pinned CI seeds replay everywhere. *)

val draw_plan : crash_every:int -> Rts_util.Prng.t -> Rts_resilience.Fault.plan
(** A storage fault plan: a crash within [2 * crash_every] appends,
    sometimes torn, bit-flipped or preceded by a silent short write
    (always armed one append before the crash, so the scanner-amputated
    record is resubmitted on recovery), sometimes a crash at checkpoint
    publication or a sticky {!Rts_resilience.Io.No_space}. *)

val tenant_name : int -> string
(** ["t<i>"]. *)

val script :
  seed:int ->
  dim:int ->
  queries:int ->
  elements:int ->
  batch:int ->
  threshold:int ->
  churn:float ->
  tenant_idx:int ->
  Frame.client list
(** Tenant [tenant_idx]'s frames in send order: [queries]
    registrations (thresholds drawn from [1, threshold]), then
    [elements] elements in {!Frame.Batch} frames of [batch] (a final
    single element goes as an {!Frame.Op}), each frame followed with
    probability [churn] by a terminate of a previously registered id
    (possibly already matured — the benign-rejection path) and a fresh
    registration. *)

type verdict = {
  accepted : int;
  applied : int;
  rejected : int;  (** Benign engine rejections (churn races). *)
  matured : int;  (** Length of the server's maturity log. *)
  log_ok : bool;  (** Server maturity log == oracle. *)
  sub_ok : bool;  (** Subscriber's received stream == oracle. *)
  acct_ok : bool;  (** accepted = applied + rejected; WAL = applied. *)
}

val verdict :
  make:(dim:int -> Engine.t) ->
  dim:int ->
  Server.t ->
  subscriber:Client.t ->
  tenant:string ->
  ops:Rts_workload.Replay.op list ->
  wal_records:int ->
  verdict
(** Judge one tenant: [ops] is its whole durable op history, from op 1,
    and [wal_records] the op count its WAL accounts for (base +
    surviving records). With [RTS_SERVE_TRACE] set to the tenant (or
    [all]) and a stream diverging, dumps the oracle, server and
    subscriber streams and every op to stderr. *)

val passed : verdict -> bool
(** [log_ok && sub_ok && acct_ok]. *)
