(** Combined-fault soak harness: churn a multi-tenant {!Hub} under
    simultaneous storage faults and network faults, then prove the run
    lost nothing.

    Per tenant, the harness:

    - drives [queries] registrations, [elements] stream elements (mostly
      as {!Frame.Batch} frames of [batch]), and churn
      (terminate + fresh register) through a dedicated client;
    - interposes {!Rts_resilience.Fault.wrap} on the first
      [faulty_incarnations] lives of the tenant's store, with
      PRNG-drawn crash points, torn tails, bit flips,
      crash-at-checkpoint, silent short writes (always armed one append
      before a crash, so the scanner-amputated record is resubmitted on
      recovery) and sticky {!Rts_resilience.Io.No_space};
    - optionally wedges tenants mid-run ({!Server.inject_wedge}) so the
      watchdog's stall detection restarts them too;
    - runs the whole deployment over a faulty network
      ({!Rts_net.Net_fault.spec} + {!Rts_net.Reliable} timers).

    Afterwards each tenant is judged by {!Oracle.verdict} against a
    replay of its surviving WAL on a fresh, fault-free engine: the
    server's log and the subscriber's stream must both equal it
    (exactly once, never early, across every crash, wedge, restart and
    retransmission), and accepted = applied + benignly rejected = WAL
    records. *)

open Rts_core

type config = {
  tenants : int;
  queries : int;  (** Initial registrations per tenant. *)
  elements : int;  (** Stream elements per tenant. *)
  batch : int;  (** Elements per {!Frame.Batch} ([1] = singleton frames). *)
  threshold : int;  (** Max maturity threshold drawn per query. *)
  churn : float;  (** Per-chunk probability of a terminate + register. *)
  dim : int;
  seed : int;  (** Master seed — the whole run replays from it. *)
  faulty_incarnations : int;  (** Fault-wrapped lives per tenant. *)
  crash_every : int;  (** Mean appends between drawn crash points. *)
  wedges : int;  (** Wedge injections spread across the run. *)
  net : Rts_net.Net_fault.spec;
  reliable : Rts_net.Reliable.config;
  server : Server.config;
}

val default : config
(** A small but fault-dense configuration: 3 tenants, combined
    crash + short-write + ENOSPC + net-fault pressure, tight queue so
    backpressure fires. *)

type tenant_report = { name : string; wal_records : int; restarts : int; verdict : Oracle.verdict }

type report = {
  per_tenant : tenant_report list;
  crashes : int;
  restarts_total : int;
  client_retries : int;  (** {!Frame.Retry_after} rounds observed. *)
  overloads : int;  (** Typed {!Frame.Overloaded} refusals observed. *)
  net_retransmits : int;
  ok : bool;
      (** Every tenant's verdict {!Oracle.passed}, and — when
          [faulty_incarnations > 0] — at least one crash was actually
          exercised. *)
}

val run : ?progress:(string -> unit) -> make:(dim:int -> Engine.t) -> config -> report
(** Deterministic: same [config] (and engine kind) — same report. *)

val pp_report : Format.formatter -> report -> unit
