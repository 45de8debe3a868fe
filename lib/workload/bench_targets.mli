(** The single registry of benchmark targets.

    Both sides of the bench pipeline consume this table: [bench/main.ml]
    builds its cmdliner command list (and the [all] sweep) from it, and
    [tools/validate_bench.ml] uses it to decide which figures exist,
    which must carry strictly-advancing traces, and how their entries in
    the budget manifest [tools/budgets.json] are keyed. Before this
    table existed the figure list was hardcoded in both places, so a new
    bench target could be added to the bench without the validator ever
    seeing its output — the registry makes that structurally impossible:
    the bench asserts at startup that its implementations and this
    table cover each other exactly, and the validator rejects any
    [BENCH_<figure>.json] whose figure it does not know. *)

type budget_keying =
  | No_budgets  (** figure has no entry in the budget manifest *)
  | By_batch
      (** budget entries are keyed ["<engine>/<batch>"] — the batched
          ingestion sweep ([perf]) *)
  | By_shards
      (** budget entries are keyed ["<engine>/k<shards>"] — the shard
          and element-partitioned scaling sweeps ([shard], [par]) *)
  | By_engine
      (** budget entries are keyed by the bare engine name — the
          approximate-tier sweep ([approx]), one run per engine *)

type t = {
  name : string;  (** target name = cmdliner subcommand = JSON "figure" *)
  doc : string;  (** one-line description (cmdliner [~doc]) *)
  emits_json : bool;
      (** writes [BENCH_<name>.json] under [--json]; the only exception
          is [micro], whose Bechamel output has no stable JSON shape *)
  strict_trace : bool;
      (** every run's [trace[].elements] must strictly increase after
          the first point — the figures whose trajectories CI replots *)
  budget_keying : budget_keying;
}

val all : t list
(** Every target, in the order the default [all] sweep runs them. *)

val names : string list

val find : string -> t option

val budget_key : budget_keying -> Rts_obs.Json.t -> string option
(** [budget_key keying run] is the manifest key of one [runs[]] entry of
    a bench document: ["<engine>/<batch>"], ["<engine>/k<shards>"] or
    ["<engine>"] per [keying]. [None] under [No_budgets], or when the run
    lacks the [engine] string or the [batch]/[shards] number the keying
    needs. *)

val reliable_r_square : float
(** A Bechamel OLS fit whose r² falls below this is noise, not a cost:
    the bench prints it as unreliable and its JSON row carries no
    [ns_per_element]. *)

val drift_cell : budget:float -> actual:float -> string
(** The drift column of [validate_bench]'s budget table: [(actual - budget) /
    budget] as a signed percentage — except that zero-budget rows carry
    no relative drift and render as ["n/a"] (met exactly) or
    ["OVER (zero budget)"] instead of the [-nan%]/[+inf%] a naive
    division produces. *)
