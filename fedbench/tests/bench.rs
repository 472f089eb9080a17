//! Benchmark self-tests. Run in release mode; the paper workload
//! generates paper-sized tables:
//! `cargo test --release --offline --manifest-path fedbench/Cargo.toml`.

use qcc_common::Pcg32;
use qcc_fedbench::run::{run, RunConfig, RunReport};
use qcc_fedbench::workloads::{build_world, template_sql, Inputs, Workload, WorldOptions};
use qcc_workload::ALL_QUERY_TYPES;

/// The deterministic end-to-end metrics: bit-identical across runs,
/// thread counts and tracing.
const VIRTUAL: [&str; 5] = [
    "virt_resp_p50_ms",
    "virt_resp_tail_ms",
    "goodput_frac",
    "admitted_frac",
    "ok_frac",
];

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

/// The shortest run: two passes, whatever their length.
fn quick(workload: Workload, seed: u64, threads: usize, trace: bool) -> RunReport {
    let report = run(&RunConfig {
        workload,
        seed,
        seconds: 0.001,
        trace,
        threads,
    });
    assert!(
        report.correct,
        "{} seed {seed}: checks failed: {:?}",
        workload.name(),
        report.notes
    );
    assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.notes);
    report
}

fn virtual_bits(r: &RunReport) -> Vec<u64> {
    VIRTUAL
        .iter()
        .map(|name| r.metric(name).expect("virtual metric reported").to_bits())
        .collect()
}

#[test]
fn virtual_metrics_are_bit_identical_at_one_and_nproc_threads() {
    for workload in Workload::ALL {
        let one = quick(workload, 7, 1, false);
        let many = quick(workload, 7, nproc(), false);
        assert_eq!(
            one.virtual_digest,
            many.virtual_digest,
            "{}",
            workload.name()
        );
        assert_eq!(
            virtual_bits(&one),
            virtual_bits(&many),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn the_seed_changes_inputs_but_not_metric_names() {
    for workload in Workload::ALL {
        let (a, b) = (Inputs::generate(workload, 1), Inputs::generate(workload, 2));
        assert_ne!(a.data_seed, b.data_seed);
        assert_ne!(a.distinct_sqls(), b.distinct_sqls(), "{}", workload.name());
        assert_eq!(
            Inputs::generate(workload, 1).distinct_sqls(),
            a.distinct_sqls()
        );
        match workload {
            Workload::OverloadAdmitted => {
                let at = |i: &Inputs| i.arrivals.iter().map(|e| e.at).collect::<Vec<_>>();
                assert_ne!(at(&a), at(&b));
            }
            Workload::FleetFailover => {
                let crashes = |i: &Inputs| i.rounds.iter().map(|r| r.crash).collect::<Vec<_>>();
                assert_ne!(crashes(&a), crashes(&b));
            }
            Workload::PaperPhases => {}
        }
    }
    for workload in [Workload::OverloadAdmitted, Workload::FleetFailover] {
        let names = |r: &RunReport| r.metrics.iter().map(|m| m.name).collect::<Vec<_>>();
        let (a, b) = (quick(workload, 1, 1, false), quick(workload, 2, 1, false));
        assert_eq!(names(&a), names(&b));
        assert_ne!(a.virtual_digest, b.virtual_digest);
    }
}

#[test]
fn traced_runs_match_untraced_and_fleet_faults_hit_the_rescue_path() {
    for seed in [1, 2] {
        let plain = quick(Workload::FleetFailover, seed, 1, false);
        // `quick` asserts `correct`: traced, untraced and obs-off passes
        // of the traced run share one virtual digest.
        let traced = quick(Workload::FleetFailover, seed, 1, true);
        assert_eq!(plain.virtual_digest, traced.virtual_digest);
        let m = |name: &str| traced.metric(name).expect("per-layer metric reported");
        assert!(m("federation.reroutes_per_kquery") > 0.0, "seed {seed}");
        assert!(m("catalog.prunes_per_query") > 0.0, "seed {seed}");
        assert!(m("catalog.kept_frac") < 1.0, "seed {seed}");
        assert!(m("remote.ping_calls") > 0.0, "seed {seed}");
    }
    let traced = quick(Workload::OverloadAdmitted, 1, 1, true);
    assert!(traced.metric("admission.enqueue_us").expect("reported") > 0.0);
    assert_eq!(traced.metric("catalog.select_us"), Some(0.0));
}

#[test]
fn generated_statements_keep_their_type_template() {
    let inputs = Inputs::generate(Workload::OverloadAdmitted, 3);
    let world = build_world(
        &inputs,
        &WorldOptions {
            threads: 1,
            obs: false,
            tracer: None,
        },
    );
    let nicknames = world.scenario.federation.nicknames();
    let signature = |sql: &str| {
        qcc_federation::decompose(sql, nicknames)
            .expect("decomposes")
            .template_signature
    };
    let mut rng = Pcg32::seed_from(3);
    for qt in ALL_QUERY_TYPES {
        let sql = template_sql(qt, &mut rng);
        assert_eq!(signature(&sql), signature(&qt.sql(0)), "{qt}");
    }
}
