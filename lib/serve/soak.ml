module Prng = Rts_util.Prng
module Io = Rts_resilience.Io
module Fault = Rts_resilience.Fault
module Wal = Rts_resilience.Wal
module Vclock = Rts_net.Vclock
module Net_fault = Rts_net.Net_fault
module Reliable = Rts_net.Reliable
module Metrics = Rts_obs.Metrics

type config = {
  tenants : int;
  queries : int;
  elements : int;
  batch : int;
  threshold : int;
  churn : float;
  dim : int;
  seed : int;
  faulty_incarnations : int;
  crash_every : int;
  wedges : int;
  net : Net_fault.spec;
  reliable : Reliable.config;
  server : Server.config;
}

let default =
  {
    tenants = 3;
    queries = 40;
    elements = 600;
    batch = 8;
    threshold = 2500;
    churn = 0.15;
    dim = 2;
    seed = 1;
    faulty_incarnations = 4;
    crash_every = 150;
    wedges = 2;
    net = { Net_fault.none with drop = 0.1; duplicate = 0.05; reorder = 0.2 };
    reliable = Reliable.default;
    server =
      {
        Server.default with
        Server.queue_capacity = 16;
        drain_per_tick = 6;
        durable = { Rts_resilience.Durable.default with fsync_every = 7; checkpoint_every = 97 };
      };
  }

type tenant_report = { name : string; wal_records : int; restarts : int; verdict : Oracle.verdict }

type report = {
  per_tenant : tenant_report list;
  crashes : int;
  restarts_total : int;
  client_retries : int;
  overloads : int;
  net_retransmits : int;
  ok : bool;
}

let run ?(progress = fun _ -> ()) ~make cfg =
  if cfg.tenants < 1 || cfg.queries < 1 || cfg.elements < 0 || cfg.batch < 1 then
    invalid_arg "Soak.run: nonsensical config";
  let bases : (string, Io.dir) Hashtbl.t = Hashtbl.create 8 in
  let base_of tenant =
    match Hashtbl.find_opt bases tenant with
    | Some d -> d
    | None ->
        let d = Io.mem_dir () in
        Hashtbl.add bases tenant d;
        d
  in
  let provider ~tenant ~incarnation =
    let base = base_of tenant in
    if incarnation < cfg.faulty_incarnations then
      let rng = Prng.create ~seed:(Oracle.mix cfg.seed tenant incarnation) in
      Fault.wrap ~rng (Oracle.draw_plan ~crash_every:cfg.crash_every rng) base
    else base
  in
  let server_config = { cfg.server with Server.dim = cfg.dim; max_tenants = cfg.tenants } in
  (* one client per tenant, plus a dedicated subscriber watching all *)
  let hub =
    Hub.create ~server_config ~net:cfg.net ~reliable:cfg.reliable
      ~net_seed:(Oracle.mix cfg.seed "net" 0) ~clients:(cfg.tenants + 1) ~make ~provider ()
  in
  let server = Hub.server hub in
  let subscriber = Hub.client hub cfg.tenants in
  for i = 0 to cfg.tenants - 1 do
    Client.enqueue subscriber (Frame.Subscribe { tenant = Oracle.tenant_name i; after = 0 })
  done;
  for i = 0 to cfg.tenants - 1 do
    let frames =
      Oracle.script ~seed:cfg.seed ~dim:cfg.dim ~queries:cfg.queries ~elements:cfg.elements
        ~batch:cfg.batch ~threshold:cfg.threshold ~churn:cfg.churn ~tenant_idx:i
    in
    let client = Hub.client hub i in
    List.iter (fun f -> Client.enqueue client f) frames
  done;
  (* wedge injections at staggered virtual times, cycling tenants *)
  for w = 0 to cfg.wedges - 1 do
    let name = Oracle.tenant_name (w mod cfg.tenants) in
    ignore
      (Vclock.schedule (Hub.clock hub)
         ~delay:(40 + (w * 97))
         (fun () ->
           match Server.inject_wedge server name with
           | () -> ()
           | exception Invalid_argument _ -> ()))
  done;
  progress "soak: driving churn to quiescence";
  Hub.run hub;
  progress "soak: quiescent; shutting down";
  Server.shutdown server;
  (* flush the Matured pushes emitted during the final drain *)
  Hub.run hub;
  progress "soak: verifying against the WAL oracle";
  let per_tenant =
    List.init cfg.tenants (fun i ->
        let name = Oracle.tenant_name i in
        let scanned = Wal.scan ~dim:cfg.dim ~dir:(base_of name) () in
        let wal_records = scanned.Wal.base + scanned.Wal.records in
        {
          name;
          wal_records;
          restarts = Server.restarts server name;
          verdict =
            Oracle.verdict ~make ~dim:cfg.dim server ~subscriber ~tenant:name
              ~ops:scanned.Wal.ops ~wal_records;
        })
  in
  let crashes = Server.crashes server in
  let snap = Server.metrics server in
  let restarts_total = Metrics.counter_value snap "serve_restarts_total" in
  let client_retries =
    let n = ref 0 in
    for i = 0 to Hub.clients hub - 1 do
      n := !n + Client.retries (Hub.client hub i)
    done;
    !n
  in
  let overloads =
    let n = ref 0 in
    for i = 0 to Hub.clients hub - 1 do
      n := !n + List.length (Client.overloads (Hub.client hub i))
    done;
    !n
  in
  let net_retransmits =
    Metrics.counter_value (Hub.net_metrics hub) "net_retransmits_total"
  in
  let ok =
    List.for_all (fun r -> Oracle.passed r.verdict) per_tenant
    && (cfg.faulty_incarnations = 0 || crashes > 0)
  in
  { per_tenant; crashes; restarts_total; client_retries; overloads; net_retransmits; ok }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun t ->
      let v = t.verdict and ok b = if b then "ok" else "MISMATCH" in
      Format.fprintf ppf
        "tenant %-6s accepted=%-6d applied=%-6d rejected=%-4d wal=%-6d restarts=%-3d \
         matured=%-5d log=%s sub=%s acct=%s@,"
        t.name v.Oracle.accepted v.applied v.rejected t.wal_records t.restarts v.matured
        (ok v.log_ok) (ok v.sub_ok) (ok v.acct_ok))
    r.per_tenant;
  Format.fprintf ppf
    "crashes=%d restarts=%d client_retries=%d overloads=%d net_retransmits=%d => %s@]"
    r.crashes r.restarts_total r.client_retries r.overloads r.net_retransmits
    (if r.ok then "PASS" else "FAIL")
