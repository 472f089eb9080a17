//! The three workloads: seeded inputs, world construction, and drivers.
//!
//! * `paper_phases` — the paper's own traffic. Closed loop, four waiting
//!   clients (one QT1–QT4 batch per round) on the paper's three servers at
//!   paper-like table sizes, QCC routing, Table 1's eight load phases in
//!   order, ten seeded instances per type repeated in every phase. Remote
//!   execution does nearly all the work; plans are cached after the first
//!   phase; the call-and-wait gather path (`stall_factor = 0`).
//! * `overload_admitted` — the only admission workload. Open loop of
//!   seeded Poisson arrivals just past the tiny scenario's drain rate,
//!   admission on, tiny tables, seeded constants over each
//!   template's range so most statements are distinct and the plan cache
//!   misses. Per-query coordinator cost, plan-cache misses and journal
//!   growth show here.
//! * `fleet_failover` — the only workload with catalog source selection,
//!   cursor streaming, mid-query reroute and availability probes. Closed
//!   loop on a generated fleet with replication bound 3, small tables,
//!   the stall detector on, and seeded crash windows that cut the streams
//!   of the catalog-selected replica the router uses most. Federation
//!   self time dominates.

use crate::trace::{timed, TracedMiddleware, TracedWrapper, Tracer};
use qcc_admission::{AdmissionConfig, AdmissionController, QueueTicket};
use qcc_common::{Pcg32, QccError, Row, ServerId, SimDuration, SimTime};
use qcc_core::{AvailabilityDaemon, Middleware, QccConfig};
use qcc_federation::Federation;
use qcc_workload::scenario::scale_server_specs;
use qcc_workload::{
    apply_phase, openloop::class_of, ArrivalEvent, PhaseSchedule, QueryType, Routing, Scenario,
    ScenarioConfig, ALL_QUERY_TYPES,
};
use qcc_wrapper::Wrapper;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, paper scenario, Table 1 phases.
    PaperPhases,
    /// Open loop past saturation with admission control.
    OverloadAdmitted,
    /// Closed loop on a fleet with crash windows.
    FleetFailover,
}

/// `paper_phases`: rows in the large tables (the bench default; the paper
/// used about 100 000).
const PAPER_LARGE_ROWS: u64 = 40_000;
/// `paper_phases`: rows in the small table.
const PAPER_SMALL_ROWS: u64 = 1_000;
/// `paper_phases`: instances per query type, repeated in every phase.
const PAPER_INSTANCES: usize = 10;

/// `overload_admitted`: Poisson arrival rate per virtual ms. The tiny
/// scenario drains about 2.7 queries per virtual ms of these statements,
/// so this offers about 1.1 times its capacity and admission sheds about
/// a tenth. (At twice the capacity the median response falls between the
/// fast mode and the deadline mode and swings by a third between seeds.)
const OVERLOAD_RATE_PER_MS: f64 = 3.0;
/// `overload_admitted`: arrivals per pass.
const OVERLOAD_ARRIVALS: usize = 4_000;
/// `overload_admitted`: queue-wait part of the deadline budget.
const OVERLOAD_QUEUE_DEADLINE_MS: f64 = 40.0;
/// `overload_admitted`: execution part of the deadline budget.
const OVERLOAD_EXEC_DEADLINE_MS: f64 = 120.0;

/// `fleet_failover`: servers in the fleet.
const FLEET_SERVERS: usize = 120;
/// `fleet_failover`: waiting clients, cycling through QT1–QT4. Enough
/// that one round is several ms of wall, so scheduler jitter from other
/// tenants of the host is a small share of it.
const FLEET_CLIENTS: usize = 16;
/// `fleet_failover`: closed-loop rounds per pass.
const FLEET_ROUNDS: usize = 250;
/// `fleet_failover`: crash windows per pass, one near the start of each
/// equal slice of the rounds. A fixed count keeps the number of rescued
/// queries, and so the response tail, alike for every seed.
const FLEET_CRASHES: usize = 8;
/// `fleet_failover`: virtual think time of each client between rounds.
/// It spaces the crash windows (see [`crash_gap`]) over the pass.
const FLEET_THINK_MS: f64 = 5.0;
/// `fleet_failover`: stall detector factor (streamed execution on).
const FLEET_STALL_FACTOR: f64 = 4.0;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperPhases,
        Workload::OverloadAdmitted,
        Workload::FleetFailover,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPhases => "paper_phases",
            Workload::OverloadAdmitted => "overload_admitted",
            Workload::FleetFailover => "fleet_failover",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall-metric windows per pass. A closed loop over a fleet is
    /// homogeneous round to round, so half-pass windows double the
    /// samples; the paper phases and the open loop change character
    /// within a pass, so their window is the whole pass.
    pub fn windows_per_pass(self) -> usize {
        match self {
            Workload::PaperPhases | Workload::OverloadAdmitted => 1,
            Workload::FleetFailover => 2,
        }
    }

    /// The virtual latency limit a correct answer must meet to count as
    /// goodput (for the open loop, counted from scheduled arrival).
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::PaperPhases => 400.0,
            Workload::OverloadAdmitted => OVERLOAD_QUEUE_DEADLINE_MS + OVERLOAD_EXEC_DEADLINE_MS,
            Workload::FleetFailover => 2.0,
        }
    }
}

/// Parameter range of each query template: constants are drawn from
/// `[lo, hi)` so every instance keeps the type's selectivity class.
fn param_range(qt: QueryType) -> (f64, f64) {
    match qt {
        QueryType::QT1 => (2000.0, 3000.0),
        QueryType::QT2 => (20.0, 50.0),
        QueryType::QT3 => (9800.0, 9950.0),
        QueryType::QT4 => (0.0, 5000.0),
    }
}

/// The SQL of query type `qt` with selection constant drawn from `rng`.
/// The texts are `QueryType::sql`'s templates with the constant free, so
/// every instance shares its type's template signature.
pub fn template_sql(qt: QueryType, rng: &mut Pcg32) -> String {
    let (lo, hi) = param_range(qt);
    let k = rng.range_i64(lo as i64, hi as i64);
    match qt {
        QueryType::QT1 => format!(
            "SELECT a.grp, COUNT(*) AS n, SUM(b.qty) AS total \
             FROM big_a a JOIN big_b b ON b.a_id = a.id \
             WHERE a.sel > {k} GROUP BY a.grp"
        ),
        // Two decimals: the bonus column is a float, so the constant
        // ranges over 3000 values, not 30.
        QueryType::QT2 => format!(
            "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
             FROM big_a a JOIN small_s s ON a.grp = s.id \
             WHERE s.bonus > {k}.{:02} GROUP BY s.cat",
            rng.range_u64(0, 100)
        ),
        QueryType::QT3 => format!(
            "SELECT d.grp, COUNT(*) AS n, MIN(d.val) AS lo \
             FROM big_d d JOIN big_b b ON b.a_id = d.id \
             WHERE d.sel > {k} GROUP BY d.grp"
        ),
        QueryType::QT4 => format!(
            "SELECT COUNT(*) AS n, SUM(b.qty) AS total \
             FROM big_a a JOIN big_b b ON b.a_id = a.id \
             JOIN big_c c ON c.b_id = b.id \
             WHERE c.flag = {k}"
        ),
    }
}

/// A crash window the fleet driver opens at the top of a round, on the
/// replica the router used most in the round before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// Window start after the round's submit instant, virtual ms; less
    /// than a query's response, so the crash cuts streams in flight.
    pub offset_ms: f64,
    /// Window length, virtual ms.
    pub len_ms: f64,
}

/// One closed-loop round: every client submits once, then waits.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Table 1 phase (0-based) applied before this round, if it starts one.
    pub phase: Option<usize>,
    /// One statement per client.
    pub sqls: Vec<String>,
    /// Crash window opened before this round, if any.
    pub crash: Option<Crash>,
}

/// Everything a pass submits, generated from the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Seed of the scenario's generated data and fleet shape.
    pub data_seed: u64,
    /// Closed-loop rounds (empty for the open loop).
    pub rounds: Vec<Round>,
    /// Open-loop arrivals (empty for the closed loops).
    pub arrivals: Vec<ArrivalEvent>,
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Pcg32::new(seed, 0xbe9c);
        let data_seed = rng.next_u64();
        let mut rounds = Vec::new();
        let mut arrivals = Vec::new();
        match workload {
            Workload::PaperPhases => {
                let instances: Vec<Vec<String>> = (0..PAPER_INSTANCES)
                    .map(|_| {
                        ALL_QUERY_TYPES
                            .iter()
                            .map(|&qt| template_sql(qt, &mut rng))
                            .collect()
                    })
                    .collect();
                for phase in 0..PhaseSchedule::paper_table1().phases.len() {
                    for (i, sqls) in instances.iter().enumerate() {
                        rounds.push(Round {
                            phase: (i == 0).then_some(phase),
                            sqls: sqls.clone(),
                            crash: None,
                        });
                    }
                }
            }
            Workload::OverloadAdmitted => {
                let mut t = 0.0f64;
                for _ in 0..OVERLOAD_ARRIVALS {
                    // u ∈ [0,1) so 1-u ∈ (0,1]: ln is finite.
                    t += -(1.0 - rng.next_f64()).ln() / OVERLOAD_RATE_PER_MS;
                    let qt = *rng.choose(&ALL_QUERY_TYPES);
                    arrivals.push(ArrivalEvent {
                        at: SimTime::from_millis(t),
                        qt,
                        sql: template_sql(qt, &mut rng),
                        class: class_of(qt),
                    });
                }
            }
            Workload::FleetFailover => {
                let slice = FLEET_ROUNDS / FLEET_CRASHES;
                let crash_rounds: Vec<usize> = (0..FLEET_CRASHES)
                    .map(|k| k * slice + rng.range_u64(0, slice as u64 / 8) as usize)
                    .collect();
                for i in 0..FLEET_ROUNDS {
                    let sqls = (0..FLEET_CLIENTS)
                        .map(|c| template_sql(ALL_QUERY_TYPES[c % ALL_QUERY_TYPES.len()], &mut rng))
                        .collect();
                    let crash = crash_rounds.contains(&i).then(|| Crash {
                        offset_ms: rng.range_f64(0.5, 1.0),
                        len_ms: rng.range_f64(2.0, 10.0),
                    });
                    rounds.push(Round {
                        phase: None,
                        sqls,
                        crash,
                    });
                }
            }
        }
        Inputs {
            workload,
            data_seed,
            rounds,
            arrivals,
        }
    }

    /// Queries one pass attempts.
    pub fn attempted(&self) -> usize {
        self.arrivals.len() + self.rounds.iter().map(|r| r.sqls.len()).sum::<usize>()
    }

    /// Distinct statements, in order of first submission.
    pub fn distinct_sqls(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let all = self
            .rounds
            .iter()
            .flat_map(|r| r.sqls.iter())
            .chain(self.arrivals.iter().map(|a| &a.sql));
        all.filter(|s| seen.insert(s.as_str()))
            .map(String::as_str)
            .collect()
    }
}

/// How to build a world.
#[derive(Debug, Clone)]
pub struct WorldOptions {
    /// Federation worker-pool width.
    pub threads: usize,
    /// Record metrics and journal through the scenario's `Obs`.
    pub obs: bool,
    /// Wrap the middleware and wrappers in tracing decorators.
    pub tracer: Option<Arc<Tracer>>,
}

/// A built scenario plus the parts the drivers need.
pub struct World {
    /// The scenario, with its federation rebuilt around the (possibly
    /// decorated) middleware and wrappers.
    pub scenario: Scenario,
    /// The admission controller (`overload_admitted` only).
    pub admission: Option<Arc<AdmissionController>>,
    /// The availability daemon (`fleet_failover` only).
    pub daemon: Option<AvailabilityDaemon>,
    /// Server ids in scenario order.
    pub server_ids: Vec<ServerId>,
    /// The tracer, when the world is traced.
    pub tracer: Option<Arc<Tracer>>,
}

fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        queue_deadline_ms: OVERLOAD_QUEUE_DEADLINE_MS,
        exec_deadline_ms: OVERLOAD_EXEC_DEADLINE_MS,
        base_tokens: 4,
        max_queue_depth: 1024,
        ..AdmissionConfig::default()
    }
}

/// Build the world `inputs` run against: datagen, indexes, catalog, and
/// a federation rebuilt around `Qcc::middleware()` and the scenario's
/// wrappers (decorated when `opts.tracer` is set).
pub fn build_world(inputs: &Inputs, opts: &WorldOptions) -> World {
    let seed = inputs.data_seed;
    let base = ScenarioConfig {
        seed,
        threads: opts.threads,
        obs_enabled: opts.obs,
        ..ScenarioConfig::default()
    };
    let config = match inputs.workload {
        Workload::PaperPhases => ScenarioConfig {
            large_rows: PAPER_LARGE_ROWS,
            small_rows: PAPER_SMALL_ROWS,
            ..base
        },
        Workload::OverloadAdmitted => ScenarioConfig {
            large_rows: ScenarioConfig::tiny().large_rows,
            small_rows: ScenarioConfig::tiny().small_rows,
            link_rtt_ms: ScenarioConfig::tiny().link_rtt_ms,
            link_bandwidth: ScenarioConfig::tiny().link_bandwidth,
            ..base
        },
        Workload::FleetFailover => {
            let scale = ScenarioConfig::scale(FLEET_SERVERS);
            ScenarioConfig {
                large_rows: scale.large_rows,
                small_rows: scale.small_rows,
                link_rtt_ms: scale.link_rtt_ms,
                link_bandwidth: scale.link_bandwidth,
                server_specs: scale_server_specs(FLEET_SERVERS, seed),
                replication_factor: scale.replication_factor,
                stall_factor: FLEET_STALL_FACTOR,
                ..base
            }
        }
    };
    let mut scenario = Scenario::build_with(Routing::Qcc, config);
    let qcc = Arc::clone(scenario.qcc.as_ref().expect("QCC routing builds a QCC"));

    let mut middleware: Arc<dyn Middleware> = qcc.middleware();
    if let Some(t) = &opts.tracer {
        middleware = Arc::new(TracedMiddleware::new(middleware, Arc::clone(t)));
    }
    if let Some(t) = &opts.tracer {
        scenario.wrappers = scenario
            .wrappers
            .iter()
            .map(|w| Arc::new(TracedWrapper::new(Arc::clone(w), Arc::clone(t))) as Arc<dyn Wrapper>)
            .collect();
    }
    let old = &scenario.federation;
    let mut federation = Federation::new(
        old.nicknames().clone(),
        scenario.clock.clone(),
        middleware,
        old.config().clone(),
    );
    federation.set_obs(scenario.obs.clone());
    for w in &scenario.wrappers {
        federation.add_wrapper(Arc::clone(w));
    }
    if let Some(catalog) = &scenario.catalog {
        federation.set_catalog(Arc::clone(catalog));
    }
    let admission = (inputs.workload == Workload::OverloadAdmitted).then(|| {
        let admission = Arc::new(AdmissionController::with_obs(
            admission_config(),
            scenario.obs.clone(),
        ));
        federation.set_admission(Arc::clone(&admission));
        admission
    });
    scenario.federation = federation;
    let daemon = (inputs.workload == Workload::FleetFailover)
        .then(|| AvailabilityDaemon::new(qcc, scenario.wrappers.clone(), scenario.clock.clone()));
    let server_ids = scenario.servers.iter().map(|s| s.id().clone()).collect();
    World {
        scenario,
        admission,
        daemon,
        server_ids,
        tracer: opts.tracer.clone(),
    }
}

/// How one query ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Answered.
    Done {
        /// Virtual response ms: from submit (closed loops) or from
        /// scheduled arrival (open loop).
        response_ms: f64,
        /// Signature of the executed global plan.
        signature: String,
        /// Result rows as returned.
        rows: Vec<Row>,
    },
    /// Refused by admission.
    Shed,
    /// An error other than a shed.
    Failed(String),
}

/// One attempted query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Statement text.
    pub sql: String,
    /// How it ended.
    pub outcome: Outcome,
}

/// What a pass produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// One record per attempted query (arrival order for the open loop,
    /// submission order for the closed loops).
    pub records: Vec<QueryRecord>,
    /// Completed responses in dispatch order (open loop only; the order
    /// `run_open_loop` reports them in).
    pub dispatch_order_ms: Vec<f64>,
    /// Wall ns of each `submit_batch*` call.
    pub round_wall_ns: Vec<u64>,
    /// Start of each `submit_batch*` call (`trace::now_ns`).
    pub round_start_ns: Vec<u64>,
    /// Queries answered by each `submit_batch*` call.
    pub round_completed: Vec<usize>,
    /// Virtual queue wait of every dispatched ticket (open loop only).
    pub queue_wait_ms: Vec<f64>,
    /// Admitted tickets per dispatch round (open loop only).
    pub batch_sizes: Vec<usize>,
}

impl PassOutput {
    fn note_round(&mut self, start: u64, completed: usize) {
        self.round_wall_ns
            .push(crate::trace::now_ns().saturating_sub(start));
        self.round_start_ns.push(start);
        self.round_completed.push(completed);
    }
}

/// Drive one pass of `inputs` through `world`.
pub fn drive(world: &World, inputs: &Inputs) -> PassOutput {
    if inputs.workload == Workload::OverloadAdmitted {
        drive_open(world, inputs)
    } else {
        drive_closed(world, inputs)
    }
}

fn record(
    sql: &str,
    result: Result<qcc_federation::QueryOutcome, QccError>,
    offset_ms: f64,
) -> QueryRecord {
    let outcome = match result {
        Ok(out) => Outcome::Done {
            response_ms: offset_ms + out.response_ms,
            signature: out.chosen_signature,
            rows: out.rows,
        },
        Err(QccError::Shed(_)) => Outcome::Shed,
        Err(e) => Outcome::Failed(e.to_string()),
    };
    QueryRecord {
        sql: sql.to_string(),
        outcome,
    }
}

fn drive_closed(world: &World, inputs: &Inputs) -> PassOutput {
    let tracer = world.tracer.as_deref();
    let schedule = PhaseSchedule::paper_table1();
    let scenario = &world.scenario;
    let mut out = PassOutput::default();
    let mut down_until = SimTime::ZERO;
    // Fragments each server ran in the previous round.
    let mut busiest: BTreeMap<ServerId, usize> = BTreeMap::new();
    for round in &inputs.rounds {
        if let Some(p) = round.phase {
            apply_phase(scenario, &schedule.phases[p]);
        }
        if let Some(daemon) = &world.daemon {
            timed(tracer, "core.daemon_probes", || daemon.run_due_probes());
        }
        if let Some(crash) = &round.crash {
            let now = scenario.clock.now();
            // The replica the router used most in the last round: one the
            // catalog kept, and the one this round's streams will run on.
            let victim = busiest
                .iter()
                .max_by_key(|(id, n)| (**n, std::cmp::Reverse(*id)));
            if let (true, Some((victim, _))) = (now >= down_until, victim) {
                down_until = world.open_crash(victim, crash, now) + crash_gap();
            }
        }
        let start = crate::trace::now_ns();
        let results = timed(tracer, "federation.submit", || {
            scenario.federation.submit_batch(&round.sqls)
        });
        out.note_round(start, results.iter().filter(|r| r.is_ok()).count());
        busiest.clear();
        for server in results.iter().flatten().flat_map(|o| &o.servers) {
            *busiest.entry(server.clone()).or_default() += 1;
        }
        for (sql, result) in round.sqls.iter().zip(results) {
            out.records.push(record(sql, result, 0.0));
        }
        if inputs.workload == Workload::FleetFailover {
            scenario
                .clock
                .advance(SimDuration::from_millis(FLEET_THINK_MS));
        }
    }
    out
}

/// Quiet time after a crash window closes before the next may open: one
/// and a half of the availability daemon's fast re-probe bound, so the
/// QCC can see the victim back up. One fault at a time, each detected and
/// healed before the next: a replica the catalog prefers is always live.
/// (With the think time, consecutive crash rounds lie further apart than
/// this plus the longest window, so no window is dropped.)
/// (Windows closer than the re-probe bound can leave every preferred
/// replica marked down at once; the catalog learns of down-ness only from
/// probes, so such a burst fails queries until the next probe.)
fn crash_gap() -> SimDuration {
    SimDuration::from_millis(1.5 * QccConfig::default().probe_interval_bounds_ms.0)
}

impl World {
    /// Take `victim` down for `crash`'s window; returns the window's end.
    fn open_crash(&self, victim: &ServerId, crash: &Crash, now: SimTime) -> SimTime {
        let from = now + SimDuration::from_millis(crash.offset_ms);
        let until = from + SimDuration::from_millis(crash.len_ms);
        self.scenario
            .server(victim.as_str())
            .availability()
            .add_outage(from, until);
        until
    }
}

/// The admitted open loop, step for step as `run_open_loop` drives it,
/// with each admission call timed at the API.
fn drive_open(world: &World, inputs: &Inputs) -> PassOutput {
    let tracer = world.tracer.as_deref();
    let scenario = &world.scenario;
    let admission = world
        .admission
        .as_deref()
        .expect("the open loop runs with admission");
    let arrivals = &inputs.arrivals;
    let mut outcomes: Vec<Option<QueryRecord>> = vec![None; arrivals.len()];
    let mut arrival_of_seq: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out = PassOutput::default();
    let mut next = 0usize;
    loop {
        let now = scenario.clock.now();
        while next < arrivals.len() && arrivals[next].at <= now {
            let a = &arrivals[next];
            let template = a.qt.to_string();
            match timed(tracer, "admission.enqueue", || {
                admission.enqueue(&a.sql, &template, a.class, a.at)
            }) {
                Ok(seq) => {
                    arrival_of_seq.insert(seq, next);
                }
                Err(_) => {
                    outcomes[next] = Some(QueryRecord {
                        sql: a.sql.clone(),
                        outcome: Outcome::Shed,
                    });
                }
            }
            next += 1;
        }
        if admission.queue_depth() == 0 {
            if next >= arrivals.len() {
                break;
            }
            scenario.clock.advance_to(arrivals[next].at);
            continue;
        }
        if let Some(qcc) = &scenario.qcc {
            timed(tracer, "core.refresh_admission", || {
                qcc.refresh_admission(admission, &world.server_ids, now)
            });
        }
        let batch = timed(tracer, "admission.dequeue_batch", || {
            admission.dequeue_batch(now)
        });
        for t in &batch.shed {
            if let Some(&i) = arrival_of_seq.get(&t.seq) {
                outcomes[i] = Some(QueryRecord {
                    sql: t.sql.clone(),
                    outcome: Outcome::Shed,
                });
            }
        }
        if batch.admitted.is_empty() {
            continue;
        }
        let results = dispatch_round(world, admission, &batch.admitted, now, &mut out);
        for (ticket, rec) in batch.admitted.iter().zip(results) {
            if let Outcome::Done { response_ms, .. } = &rec.outcome {
                out.dispatch_order_ms.push(*response_ms);
            }
            if let Some(&i) = arrival_of_seq.get(&ticket.seq) {
                outcomes[i] = Some(rec);
            }
        }
    }
    out.records = outcomes
        .into_iter()
        .zip(arrivals)
        .map(|(rec, a)| {
            rec.unwrap_or_else(|| QueryRecord {
                sql: a.sql.clone(),
                outcome: Outcome::Failed("arrival never resolved".into()),
            })
        })
        .collect();
    out
}

fn dispatch_round(
    world: &World,
    admission: &AdmissionController,
    tickets: &[QueueTicket],
    dispatched_at: SimTime,
    out: &mut PassOutput,
) -> Vec<QueryRecord> {
    let tracer = world.tracer.as_deref();
    let scenario = &world.scenario;
    let slots = timed(tracer, "admission.dispatch_slots", || {
        admission.dispatch_slots(tickets.len())
    });
    let server_index: BTreeMap<&str, usize> = world
        .server_ids
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();
    let guards: Vec<_> = (0..tickets.len())
        .map(|i| {
            let idx = slots
                .get(i)
                .and_then(|sid| server_index.get(sid.as_str()).copied())
                .unwrap_or(i % scenario.servers.len());
            scenario.servers[idx].load().begin_query()
        })
        .collect();
    let sqls: Vec<String> = tickets.iter().map(|t| t.sql.clone()).collect();
    let budgets: Vec<Option<f64>> = tickets
        .iter()
        .map(|t| t.remaining_budget_ms(dispatched_at))
        .collect();
    let start = crate::trace::now_ns();
    let results = timed(tracer, "federation.submit", || {
        scenario
            .federation
            .submit_batch_with_budgets(&sqls, &budgets)
    });
    out.note_round(start, results.iter().filter(|r| r.is_ok()).count());
    drop(guards);
    out.batch_sizes.push(tickets.len());
    tickets
        .iter()
        .zip(results)
        .map(|(ticket, result)| {
            let wait = dispatched_at.since(ticket.enqueued_at).as_millis();
            out.queue_wait_ms.push(wait);
            if let Ok(o) = &result {
                timed(tracer, "admission.record_exec", || {
                    admission.record_exec(&ticket.template, o.response_ms)
                });
            }
            record(&ticket.sql, result, wait)
        })
        .collect()
}
