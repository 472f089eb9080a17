//! Golden equivalence for the admission layer: driving an open-loop
//! Poisson arrival process past saturation — queueing, weighted-fair
//! dequeue, token gating, deadline and queue-full shedding — must leave
//! **byte-identical** qcc-obs metrics and journal snapshots for any
//! worker-pool width.
//!
//! The argument: every admission decision (enqueue, capacity refresh,
//! dequeue, shed) happens on the coordinator thread *between*
//! `submit_batch` calls, against a frozen token snapshot; in-flight
//! queries only read that snapshot, and their own journal emissions ride
//! the `Deferred` buffers applied in task order at the gather barrier.
//! The run must also actually shed — an admission test at an arrival rate
//! the system can drain would prove nothing — and a second scenario must
//! hedge, so the gather's primary/hedge slot resolution is pinned too.

use load_aware_federation::admission::{AdmissionConfig, AdmissionController};
use load_aware_federation::qcc::QccConfig;
use load_aware_federation::workload::{
    poisson_arrivals, run_open_loop, AdmissionMode, Scenario, ScenarioConfig,
};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// One open-loop admission scenario on the tiny world.
struct Case {
    /// Poisson arrival rate (per virtual ms).
    rate_per_ms: f64,
    arrivals: usize,
    max_queue_depth: usize,
}

/// ~4x the tiny scenario's drain rate with a shallow queue: the queue
/// caps out and sheds.
const SATURATED: Case = Case {
    rate_per_ms: 6.0,
    arrivals: 300,
    max_queue_depth: 32,
};

/// ~2x the drain rate with a deep queue: tickets dispatch late in their
/// budget, so fragments come under deadline pressure and hedge.
const HEDGING: Case = Case {
    rate_per_ms: 3.0,
    arrivals: 1500,
    max_queue_depth: 1024,
};

fn run_snapshots(case: &Case, threads: usize) -> (String, String, u64) {
    let mut scenario = Scenario::build_with_qcc(
        QccConfig::default(),
        ScenarioConfig {
            threads,
            ..ScenarioConfig::tiny()
        },
    );
    let admission = Arc::new(AdmissionController::with_obs(
        AdmissionConfig {
            queue_deadline_ms: 40.0,
            exec_deadline_ms: 120.0,
            base_tokens: 4,
            max_queue_depth: case.max_queue_depth,
            ..AdmissionConfig::default()
        },
        scenario.obs.clone(),
    ));
    scenario.federation.set_admission(Arc::clone(&admission));
    let arrivals = poisson_arrivals(case.rate_per_ms, case.arrivals, 0xfeed);
    let report = run_open_loop(&scenario, AdmissionMode::Admitted(&admission), &arrivals);
    assert_eq!(
        report.completed.len() as u64 + report.shed + report.failed,
        arrivals.len() as u64,
        "every arrival is accounted for"
    );
    (
        scenario.obs.metrics_snapshot(),
        scenario.obs.journal_snapshot(),
        report.shed,
    )
}

/// Every thread count must reproduce the sequential reference snapshots.
fn assert_thread_invariant(case: &Case, reference: &(String, String, u64)) {
    let (metrics_ref, journal_ref, shed) = reference;
    for threads in &THREAD_COUNTS[1..] {
        let (metrics, journal, shed_n) = run_snapshots(case, *threads);
        assert_eq!(
            &metrics, metrics_ref,
            "threads={threads}: metrics snapshot diverged from sequential reference"
        );
        assert_eq!(
            &journal, journal_ref,
            "threads={threads}: journal diverged from sequential reference"
        );
        assert_eq!(shed_n, *shed, "threads={threads}: shed count drifted");
    }
}

#[test]
fn admission_snapshots_are_byte_identical_across_thread_counts() {
    let reference = run_snapshots(&SATURATED, THREAD_COUNTS[0]);
    let (metrics_ref, journal_ref, shed) = &reference;
    assert!(
        *shed > 0,
        "the saturation scenario must actually shed queries"
    );
    // The reference journal tells the whole admission story.
    for kind in [
        "\"kind\":\"enqueue\"",
        "\"kind\":\"dequeue\"",
        "\"kind\":\"shed\"",
        "\"kind\":\"token_capacity\"",
    ] {
        assert!(journal_ref.contains(kind), "journal missing {kind}");
    }
    assert!(
        metrics_ref.contains("sheds_total"),
        "metrics missing the shed counter"
    );
    assert!(
        metrics_ref.contains("admission_queue_wait_ms"),
        "metrics missing the time-in-queue histogram"
    );
    assert!(
        metrics_ref.contains("admission_queue_depth"),
        "metrics missing the queue depth gauge"
    );
    assert_thread_invariant(&SATURATED, &reference);
}

#[test]
fn hedged_admission_snapshots_are_byte_identical_across_thread_counts() {
    let reference = run_snapshots(&HEDGING, THREAD_COUNTS[0]);
    let journal_ref = &reference.1;
    // A hedged slot scatters a second replica and suppresses the loser at
    // the merge: both sides of that story must be in the journal.
    for kind in ["\"kind\":\"hedge\"", "\"kind\":\"hedge_result\""] {
        assert!(journal_ref.contains(kind), "journal missing {kind}");
    }
    assert_thread_invariant(&HEDGING, &reference);
}
