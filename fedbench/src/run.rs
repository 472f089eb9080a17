//! One benchmark run: set-up, reference answers, timed passes, checks,
//! and the metrics.
//!
//! A *pass* builds a fresh world (a set-up sample) and drives the whole
//! seeded input through it. Every pass of a run therefore yields the same
//! virtual outcome, and the run checks that it does. Untraced runs repeat
//! passes at the workload's thread count until `seconds` of timed wall
//! have accrued. Traced runs repeat cycles of three single-thread passes
//! (plain, traced, and with `Obs` off) so that the ledger, the tracing
//! overhead and the obs overhead come from comparable passes.

use crate::check::{canonical, Digest, Reference};
use crate::probe;
use crate::stats::{self, Tail};
use crate::trace::{now_ns, Ledger, Tracer};
use crate::workloads::{
    build_world, drive, Inputs, Outcome, PassOutput, Workload, World, WorldOptions,
};
use qcc_common::FieldValue;
use qcc_workload::{run_open_loop, AdmissionMode, OpenLoopReport};

/// Timed repetitions of each pure-function replay call.
const REPLAY_REPS: u32 = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed wall seconds to accrue.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Federation worker-pool width for untraced passes.
    pub threads: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every answer matched its reference and every check held.
    pub correct: bool,
    /// Queries attempted over all passes.
    pub attempted: u64,
    /// Errors plus wrong answers over all passes.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Digest of the virtual outcome (same for every pass).
    pub virtual_digest: u64,
}

impl RunReport {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The virtual outcome of one pass, checked against the reference.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Digest of per-query response bits, plan signatures and rows.
    pub digest: u64,
    /// Queries attempted.
    pub attempted: usize,
    /// Queries answered.
    pub completed: usize,
    /// Queries refused by admission.
    pub shed: usize,
    /// Queries that ended in another error.
    pub errors: usize,
    /// Statements answered with wrong rows.
    pub wrong: Vec<String>,
    /// Virtual response ms of every answered query.
    pub responses: Vec<f64>,
    /// Correct answers within the workload's latency limit.
    pub goodput: usize,
    /// The first error message, if any query failed.
    pub first_error: Option<String>,
}

/// Check every answer of `out` and digest the virtual outcome.
pub fn check_pass(out: &PassOutput, reference: &Reference, limit_ms: f64) -> Checked {
    let mut c = Checked {
        attempted: out.records.len(),
        ..Checked::default()
    };
    let mut digest = Digest::default();
    for (i, rec) in out.records.iter().enumerate() {
        digest.u64(i as u64);
        digest.str(&rec.sql);
        match &rec.outcome {
            Outcome::Done {
                response_ms,
                signature,
                rows,
            } => {
                let rows = canonical(rows);
                digest.u64(1);
                digest.u64(response_ms.to_bits());
                digest.str(signature);
                digest.rows(&rows);
                c.completed += 1;
                c.responses.push(*response_ms);
                if !reference.accepts(&rec.sql, &rows) {
                    c.wrong.push(rec.sql.clone());
                } else if *response_ms <= limit_ms {
                    c.goodput += 1;
                }
            }
            Outcome::Shed => {
                digest.u64(2);
                c.shed += 1;
            }
            Outcome::Failed(e) => {
                digest.u64(3);
                digest.str(e);
                c.errors += 1;
                c.first_error
                    .get_or_insert_with(|| format!("{e} [{}]", rec.sql));
            }
        }
    }
    c.digest = digest.finish();
    c
}

/// Program state read from a world's public API after a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassObs {
    /// Summed `explain_tasks` of the `compile` spans.
    pub explain_tasks: u64,
    /// Mid-query remainder re-dispatches (`reroute_dispatch` events).
    pub reroutes: u64,
    /// Hedged fragment dispatches (`hedge` events).
    pub hedges: u64,
    /// Whole-query retries after a server failure (`server_banned`).
    pub retries: u64,
    /// Compiles whose candidate set the catalog pruned.
    pub catalog_prunes: u64,
    /// Journal length at the end of the pass.
    pub journal_len: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
}

impl PassObs {
    fn of(world: &World) -> PassObs {
        let obs = &world.scenario.obs;
        let explain_tasks = obs
            .events_of("compile")
            .iter()
            .map(|e| match e.field("explain_tasks") {
                Some(FieldValue::U64(v)) => *v,
                _ => 0,
            })
            .sum();
        let (cache_hits, cache_misses, cache_evictions) = match &world.scenario.qcc {
            Some(qcc) => {
                let (h, m) = qcc.plan_cache.stats();
                (h, m, qcc.plan_cache.evictions())
            }
            None => (0, 0, 0),
        };
        PassObs {
            explain_tasks,
            reroutes: obs.events_of("reroute_dispatch").len() as u64,
            hedges: obs.events_of("hedge").len() as u64,
            retries: obs.events_of("server_banned").len() as u64,
            catalog_prunes: obs.events_of("catalog_prune").len() as u64,
            journal_len: obs.journal_len() as u64,
            cache_hits,
            cache_misses,
            cache_evictions,
        }
    }

    fn absorb(&mut self, o: &PassObs) {
        self.explain_tasks += o.explain_tasks;
        self.reroutes += o.reroutes;
        self.hedges += o.hedges;
        self.retries += o.retries;
        self.catalog_prunes += o.catalog_prunes;
        self.journal_len += o.journal_len;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_evictions += o.cache_evictions;
    }
}

/// Pure public functions replayed outside the timed region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `qcc_sql::parse_select` calls and ns.
    pub parse: (u64, u64),
    /// `qcc_federation::decompose` calls and ns.
    pub decompose: (u64, u64),
    /// `ReplicaCatalog::select_sources` calls and ns.
    pub select: (u64, u64),
    /// Candidates offered to and kept by source selection.
    pub candidates: u64,
    /// Candidates kept.
    pub kept: u64,
}

impl Replay {
    fn absorb(&mut self, o: &Replay) {
        let add = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        add(&mut self.parse, o.parse);
        add(&mut self.decompose, o.decompose);
        add(&mut self.select, o.select);
        self.candidates += o.candidates;
        self.kept += o.kept;
    }
}

fn replay(world: &World, inputs: &Inputs) -> Replay {
    let mut r = Replay::default();
    let nicknames = world.scenario.federation.nicknames();
    let time = |acc: &mut (u64, u64), f: &mut dyn FnMut()| {
        let start = now_ns();
        for _ in 0..REPLAY_REPS {
            f();
        }
        acc.0 += u64::from(REPLAY_REPS);
        acc.1 += now_ns().saturating_sub(start);
    };
    for sql in inputs.distinct_sqls() {
        time(&mut r.parse, &mut || {
            std::hint::black_box(qcc_sql::parse_select(std::hint::black_box(sql)).ok());
        });
        let mut decomposed = None;
        time(&mut r.decompose, &mut || {
            decomposed = qcc_federation::decompose(std::hint::black_box(sql), nicknames).ok();
        });
        let (Some(d), Some(catalog)) = (decomposed, &world.scenario.catalog) else {
            continue;
        };
        for frag in &d.fragments {
            let mut kept = 0;
            time(&mut r.select, &mut || {
                kept = catalog
                    .select_sources(&frag.nicknames, &frag.candidate_servers)
                    .len();
            });
            r.candidates += frag.candidate_servers.len() as u64;
            r.kept += kept as u64;
        }
    }
    r
}

/// One pass and everything measured around it.
struct PassRun {
    checked: Checked,
    setup_ns: u64,
    /// Timed region start and end (`trace::now_ns`).
    span_ns: (u64, u64),
    wall_ns: u64,
    cpu_ns: u64,
    out: PassOutput,
    obs: PassObs,
    ledger: Option<Ledger>,
    replay: Option<Replay>,
}

fn run_pass(inputs: &Inputs, opts: &WorldOptions, reference: &Reference) -> PassRun {
    let t0 = now_ns();
    let world = build_world(inputs, opts);
    let setup_ns = now_ns().saturating_sub(t0);
    let cpu0 = probe::cpu_ns().unwrap_or(0);
    let w0 = now_ns();
    let mut out = drive(&world, inputs);
    let w1 = now_ns();
    let wall_ns = w1.saturating_sub(w0);
    let cpu_ns = probe::cpu_ns().unwrap_or(0).saturating_sub(cpu0);
    let obs = PassObs::of(&world);
    let ledger = opts.tracer.as_ref().map(|t| t.ledger());
    let replay = opts.tracer.is_some().then(|| replay(&world, inputs));
    drop(world);
    let checked = check_pass(&out, reference, inputs.workload.latency_limit_ms());
    // Rows are checked and digested; keep only what the metrics need.
    out.records = Vec::new();
    probe::release_free_memory();
    PassRun {
        checked,
        setup_ns,
        span_ns: (w0, w1),
        wall_ns,
        cpu_ns,
        out,
        obs,
        ledger,
        replay,
    }
}

/// Does our open-loop driver reproduce `run_open_loop`'s report?
fn same_report(report: &OpenLoopReport, pass: &PassRun) -> bool {
    let ours = &pass.out.dispatch_order_ms;
    let theirs: Vec<f64> = report.completed.iter().map(|c| c.response_ms).collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(ours) == bits(&theirs)
        && report.shed == pass.checked.shed as u64
        && report.failed == pass.checked.errors as u64
        && stats::percentile(ours, 50.0).to_bits() == report.response_percentile(50.0).to_bits()
        && stats::percentile(ours, 99.0).to_bits() == report.response_percentile(99.0).to_bits()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the benchmark once.
pub fn run(cfg: &RunConfig) -> RunReport {
    let inputs = Inputs::generate(cfg.workload, cfg.seed);
    let mut notes = vec![format!(
        "workload={} seed={} data_seed={:#x} threads={} trace={} attempted_per_pass={} distinct_sql={}",
        cfg.workload.name(),
        cfg.seed,
        inputs.data_seed,
        if cfg.trace { 1 } else { cfg.threads },
        u8::from(cfg.trace),
        inputs.attempted(),
        inputs.distinct_sqls().len(),
    )];
    let threads = if cfg.trace { 1 } else { cfg.threads };
    let plain = WorldOptions {
        threads,
        obs: true,
        tracer: None,
    };
    let mut setup_ns: Vec<u64> = Vec::new();

    // Reference answers, once per distinct statement, outside the timed
    // region: single-site execution on a fault-free server's engine.
    let t0 = now_ns();
    let ref_world = build_world(&inputs, &plain);
    setup_ns.push(now_ns().saturating_sub(t0));
    let mut reference = Reference::default();
    reference.extend(
        ref_world.scenario.servers[0].engine(),
        inputs.distinct_sqls(),
    );
    drop(ref_world);
    probe::release_free_memory();

    // The library's own open-loop driver on the same arrivals.
    let expected_report = (cfg.workload == Workload::OverloadAdmitted).then(|| {
        let t0 = now_ns();
        let world = build_world(&inputs, &plain);
        setup_ns.push(now_ns().saturating_sub(t0));
        let admission = world.admission.clone().expect("admission world");
        let report = run_open_loop(
            &world.scenario,
            AdmissionMode::Admitted(&admission),
            &inputs.arrivals,
        );
        drop(world);
        probe::release_free_memory();
        report
    });

    let budget_ns = (cfg.seconds * 1e9) as u64;
    let mut passes: Vec<PassRun> = Vec::new();
    let mut traced: Vec<PassRun> = Vec::new();
    let mut obs_off: Vec<PassRun> = Vec::new();
    let mut timed_ns = 0u64;
    while timed_ns < budget_ns || passes.len() < 2 {
        let p = run_pass(&inputs, &plain, &reference);
        timed_ns += p.wall_ns;
        setup_ns.push(p.setup_ns);
        passes.push(p);
        if cfg.trace {
            let tracer = Tracer::new();
            let t = run_pass(
                &inputs,
                &WorldOptions {
                    tracer: Some(tracer),
                    ..plain.clone()
                },
                &reference,
            );
            let off = run_pass(
                &inputs,
                &WorldOptions {
                    obs: false,
                    ..plain.clone()
                },
                &reference,
            );
            timed_ns += t.wall_ns + off.wall_ns;
            setup_ns.extend([t.setup_ns, off.setup_ns]);
            traced.push(t);
            obs_off.push(off);
        }
    }

    // Checks: answers, identical virtual outcome in every pass, and the
    // open-loop driver's fidelity.
    let first = &passes[0].checked;
    let all: Vec<&PassRun> = passes.iter().chain(&traced).chain(&obs_off).collect();
    let mut correct = true;
    let mut wrong_listed = 0;
    for p in &all {
        for sql in &p.checked.wrong {
            if wrong_listed < 20 {
                notes.push(format!("WRONG ANSWER: {sql}"));
            }
            wrong_listed += 1;
            correct = false;
        }
    }
    if let Some(p) = all.iter().find(|p| p.checked.digest != first.digest) {
        notes.push(format!(
            "VIRTUAL DIGEST MISMATCH: {:#018x} vs {:#018x}",
            p.checked.digest, first.digest
        ));
        correct = false;
    }
    if let Some(report) = &expected_report {
        let same = same_report(report, &passes[0]);
        notes.push(format!(
            "open-loop driver reproduces run_open_loop: {}",
            if same { "yes" } else { "NO" }
        ));
        correct &= same;
    }
    for p in &all {
        if p.checked.errors > 0 {
            notes.push(format!(
                "ERRORS in a pass: {} (first: {})",
                p.checked.errors,
                p.checked.first_error.as_deref().unwrap_or("")
            ));
            break;
        }
    }
    notes.push(format!(
        "virtual_digest={:#018x} passes={} reference_statements={}",
        first.digest,
        all.len(),
        reference.len()
    ));

    let attempted: u64 = all.iter().map(|p| p.checked.attempted as u64).sum();
    let failed: u64 = all
        .iter()
        .map(|p| (p.checked.errors + p.checked.wrong.len()) as u64)
        .sum();
    let setup_s: Vec<f64> = setup_ns.iter().map(|&n| n as f64 / 1e9).collect();

    let metrics = if cfg.trace {
        per_layer(cfg.workload, &passes, &traced, &obs_off, &mut notes)
    } else {
        end_to_end(cfg.workload, &passes, &setup_s, &mut notes)
    };
    RunReport {
        correct,
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|m| Metric {
                value: finite(m.value),
                ..m
            })
            .collect(),
        notes,
        virtual_digest: first.digest,
    }
}

fn note_tail(notes: &mut Vec<String>, name: &str, t: &Tail) {
    notes.push(format!(
        "{name}: p{:.3} over {} samples = {:.6}",
        t.pct, t.n, t.value
    ));
}

/// Percentile of the per-window wall figures reported: the fastest
/// quarter of windows (see `end_to_end`).
const FAST_QUARTILE: f64 = 25.0;

/// A window of consecutive dispatch rounds of one pass.
struct Window {
    qps: f64,
    p50: f64,
    tail: Tail,
}

/// Split each pass's rounds into `per_pass` windows. A window's wall runs
/// from its first round's start to the next window's (or the pass's end),
/// so driver time between rounds counts.
fn windows(passes: &[PassRun], per_pass: usize) -> Vec<Window> {
    let mut out = Vec::new();
    for p in passes {
        let o = &p.out;
        let n = o.round_start_ns.len();
        let size = n.div_ceil(per_pass.max(1)).max(1);
        for lo in (0..n).step_by(size) {
            let hi = (lo + size).min(n);
            let start = if lo == 0 {
                p.span_ns.0
            } else {
                o.round_start_ns[lo]
            };
            let end = if hi == n {
                p.span_ns.1
            } else {
                o.round_start_ns[hi]
            };
            let done: usize = o.round_completed[lo..hi].iter().sum();
            let walls: Vec<f64> = o.round_wall_ns[lo..hi].iter().map(|&w| ms(w)).collect();
            out.push(Window {
                qps: ratio(done as f64, end.saturating_sub(start) as f64 / 1e9),
                p50: stats::median(&walls),
                tail: stats::tail(&walls),
            });
        }
    }
    out
}

fn end_to_end(
    workload: Workload,
    passes: &[PassRun],
    setup_s: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let first = &passes[0].checked;
    // Wall figures come from windows of rounds. CPU steal by other tenants
    // of the host (seen up to 40%) only ever slows a window, so the fastest
    // quartile of windows estimates the program's own speed more steadily
    // than their median. CPU time has 10 ms ticks, so it is taken per pass.
    let windows = windows(passes, workload.windows_per_pass());
    let qps: Vec<f64> = windows.iter().map(|w| w.qps).collect();
    let p50s: Vec<f64> = windows.iter().map(|w| w.p50).collect();
    let tails: Vec<f64> = windows.iter().map(|w| w.tail.value).collect();
    let cpu: Vec<f64> = passes
        .iter()
        .map(|p| ratio(p.cpu_ns as f64 / 1e3, p.checked.completed as f64))
        .collect();
    notes.push(format!(
        "median over windows: wall_qps={:.3} round_wall_p50_ms={:.4} round_wall_tail_ms={:.4}",
        stats::median(&qps),
        stats::median(&p50s),
        stats::median(&tails)
    ));
    let virt_tail = stats::tail(&first.responses);
    note_tail(
        notes,
        "round_wall_tail_ms (per window; fastest quartile over windows reported)",
        &windows[0].tail,
    );
    note_tail(notes, "virt_resp_tail_ms", &virt_tail);
    notes.push(format!(
        "timed passes={} windows={} wall_s={:.3}; setup samples={}",
        passes.len(),
        windows.len(),
        passes.iter().map(|p| p.wall_ns as f64).sum::<f64>() / 1e9,
        setup_s.len()
    ));
    let n = first.attempted as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("setup_s", stats::median(setup_s), "s"),
        m(
            "wall_qps",
            stats::percentile(&qps, 100.0 - FAST_QUARTILE),
            "1/s",
        ),
        m("cpu_us_per_query", stats::median(&cpu), "us"),
        m(
            "round_wall_p50_ms",
            stats::percentile(&p50s, FAST_QUARTILE),
            "ms",
        ),
        m(
            "round_wall_tail_ms",
            stats::percentile(&tails, FAST_QUARTILE),
            "ms",
        ),
        m("peak_rss_mb", probe::peak_rss_mb().unwrap_or(0.0), "MB"),
        m("virt_resp_p50_ms", stats::median(&first.responses), "ms"),
        m("virt_resp_tail_ms", virt_tail.value, "ms"),
        m("goodput_frac", ratio(first.goodput as f64, n), "ratio"),
        m("admitted_frac", 1.0 - ratio(first.shed as f64, n), "ratio"),
        m(
            "ok_frac",
            1.0 - ratio((first.errors + first.wrong.len()) as f64, n),
            "ratio",
        ),
    ]
}

fn per_layer(
    workload: Workload,
    plain: &[PassRun],
    traced: &[PassRun],
    obs_off: &[PassRun],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut ledger = Ledger::default();
    let mut obs = PassObs::default();
    let mut rep = Replay::default();
    for p in traced {
        if let Some(l) = &p.ledger {
            ledger.absorb(l);
        }
        obs.absorb(&p.obs);
        if let Some(r) = &p.replay {
            rep.absorb(r);
        }
    }
    let npass = traced.len() as f64;
    let queries: f64 = traced.iter().map(|p| p.checked.attempted as f64).sum();
    let wall = |ps: &[PassRun]| ps.iter().map(|p| p.wall_ns as f64).sum::<f64>();
    let (t_traced, t_plain, t_off) = (wall(traced), wall(plain), wall(obs_off));
    let cpu: f64 = traced.iter().map(|p| p.cpu_ns as f64).sum();
    let per_call_us = |(calls, ns): (u64, u64)| ratio(ns as f64 / 1e3, calls as f64);
    let pct_of_wall = |ns: u64| ratio(ns as f64 * 100.0, t_traced);
    let waits: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.out.queue_wait_ms.iter().copied())
        .collect();
    let batches: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.out.batch_sizes.iter().map(|&b| b as f64))
        .collect();
    let checked = &traced[0].checked;
    let attempted = checked.attempted as f64;
    let sp = |name: &str| ledger.span(name);
    let remote_exec = sp("remote.execute");
    let unattributed_ns = (t_traced as u64).saturating_sub(ledger.self_ns_total());

    notes.push(format!(
        "ledger ({}, {} traced pass(es), {:.1} ms traced wall):",
        workload.name(),
        traced.len(),
        t_traced / 1e6
    ));
    for (name, s) in &ledger.spans {
        notes.push(format!(
            "  {name:<30} calls={:<9} self_ms={:<12.3} self_pct={:.2}",
            s.calls,
            ms(s.self_ns),
            pct_of_wall(s.self_ns)
        ));
    }
    notes.push(format!(
        "  {:<30} self_ms={:.3} self_pct={:.2}",
        "driver+unattributed",
        ms(unattributed_ns),
        pct_of_wall(unattributed_ns)
    ));
    notes.push(format!(
        "tracing overhead: traced wall {:.3} ms - untraced wall {:.3} ms = {:.3} ms",
        t_traced / 1e6,
        t_plain / 1e6,
        (t_traced - t_plain) / 1e6
    ));

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("sql.parse_us", per_call_us(rep.parse), "us"),
        m("federation.decompose_us", per_call_us(rep.decompose), "us"),
        m(
            "federation.self_us_per_query",
            ratio(sp("federation.submit").self_ns as f64 / 1e3, queries),
            "us",
        ),
        m(
            "federation.self_pct",
            pct_of_wall(ledger.self_ns_of("federation.")),
            "%",
        ),
        m(
            "federation.explain_tasks_per_query",
            ratio(obs.explain_tasks as f64, queries),
            "count/query",
        ),
        m(
            "federation.candidates_per_query",
            ratio(
                ledger.count("core.choose_global_candidates") as f64,
                sp("core.choose_global").calls as f64,
            ),
            "count/query",
        ),
        m(
            "federation.reroutes_per_kquery",
            ratio(obs.reroutes as f64 * 1e3, queries),
            "1/kquery",
        ),
        m(
            "federation.hedges_per_kquery",
            ratio(obs.hedges as f64 * 1e3, queries),
            "1/kquery",
        ),
        m(
            "federation.retries_per_kquery",
            ratio(obs.retries as f64 * 1e3, queries),
            "1/kquery",
        ),
        m("catalog.select_us", per_call_us(rep.select), "us"),
        m(
            "catalog.kept_frac",
            ratio(rep.kept as f64, rep.candidates as f64),
            "ratio",
        ),
        m(
            "catalog.prunes_per_query",
            ratio(obs.catalog_prunes as f64, queries),
            "count/query",
        ),
        m(
            "core.plan_fragment_self_us",
            sp("core.plan_fragment").mean_self_us(),
            "us",
        ),
        m(
            "core.execute_fragment_self_us",
            sp("core.execute_fragment").mean_self_us(),
            "us",
        ),
        m(
            "core.choose_global_us",
            sp("core.choose_global").mean_us(),
            "us",
        ),
        m(
            "core.self_pct",
            pct_of_wall(ledger.self_ns_of("core.")),
            "%",
        ),
        m(
            "core.plan_cache_hit_ratio",
            ratio(
                obs.cache_hits as f64,
                (obs.cache_hits + obs.cache_misses) as f64,
            ),
            "ratio",
        ),
        m(
            "core.plan_cache_evictions",
            ratio(obs.cache_evictions as f64, npass),
            "count",
        ),
        m(
            "core.refresh_admission_us",
            sp("core.refresh_admission").mean_us(),
            "us",
        ),
        m(
            "admission.enqueue_us",
            sp("admission.enqueue").mean_us(),
            "us",
        ),
        m(
            "admission.dequeue_batch_us",
            sp("admission.dequeue_batch").mean_us(),
            "us",
        ),
        m(
            "admission.dispatch_slots_us",
            sp("admission.dispatch_slots").mean_us(),
            "us",
        ),
        m(
            "admission.self_pct",
            pct_of_wall(ledger.self_ns_of("admission.")),
            "%",
        ),
        m(
            "admission.queue_wait_virt_p50_ms",
            stats::median(&waits),
            "ms",
        ),
        m("admission.batch_size", stats::mean(&batches), "count"),
        m("remote.explain_us", sp("remote.explain").mean_us(), "us"),
        m("remote.execute_us", remote_exec.mean_us(), "us"),
        m(
            "remote.self_pct",
            pct_of_wall(ledger.self_ns_of("remote.")),
            "%",
        ),
        m(
            "remote.bytes_per_query",
            ratio(ledger.count("remote.bytes") as f64, queries),
            "B/query",
        ),
        m(
            "remote.rows_per_query",
            ratio(ledger.count("remote.rows") as f64, queries),
            "rows/query",
        ),
        m(
            "remote.errors_per_kquery",
            ratio(ledger.count("remote.errors") as f64 * 1e3, queries),
            "1/kquery",
        ),
        m(
            "remote.ping_calls",
            ratio(sp("remote.ping").calls as f64, npass),
            "count",
        ),
        m(
            "obs.events_per_query",
            ratio(obs.journal_len as f64, queries),
            "count/query",
        ),
        m(
            "obs.journal_len_end",
            ratio(obs.journal_len as f64, npass),
            "count",
        ),
        m(
            "obs.overhead_pct",
            ratio((t_plain - t_off) * 100.0, t_off),
            "%",
        ),
        m(
            "trace.overhead_pct",
            ratio((t_traced - t_plain) * 100.0, t_plain),
            "%",
        ),
        m("proc.cpu_util", ratio(cpu, t_traced), "ratio"),
        m("unattributed_pct", pct_of_wall(unattributed_ns), "%"),
        m("shed_frac", ratio(checked.shed as f64, attempted), "ratio"),
        m(
            "failed_frac",
            ratio((checked.errors + checked.wrong.len()) as f64, attempted),
            "ratio",
        ),
    ]
}
