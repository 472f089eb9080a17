//! The meta-wrapper plan cache (Figure 5: *"MW can compute the calibrated
//! runtime cost without having to consult the wrapper"*).

use load_aware_federation::common::{
    Column, DataType, FragmentId, QueryId, Result, Row, Schema, ServerId, SimDuration, SimTime,
    Value,
};
use load_aware_federation::engine::PlanNode;
use load_aware_federation::federation::{
    Deferred, Federation, FederationConfig, Middleware, NicknameCatalog,
};
use load_aware_federation::netsim::{Link, LoadProfile, Network, SimClock};
use load_aware_federation::qcc::{Qcc, QccConfig};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::wrapper::{
    FragmentPlan, RelationalWrapper, Wrapper, WrapperKind, WrapperResult, WrapperStream,
};
use std::sync::{Arc, Mutex};

const SQL: &str = "SELECT COUNT(*) FROM t WHERE v > 3";

/// A relational wrapper that keeps every plan it is asked to execute, so
/// tests can check which plan-tree allocation reached the source.
#[derive(Debug)]
struct Recording {
    inner: RelationalWrapper,
    executed: Mutex<Vec<FragmentPlan>>,
}

impl Recording {
    fn note(&self, plan: &FragmentPlan) {
        self.executed
            .lock()
            .expect("no test thread panics holding the lock")
            .push(plan.clone());
    }
}

impl Wrapper for Recording {
    fn server_id(&self) -> &ServerId {
        self.inner.server_id()
    }
    fn kind(&self) -> WrapperKind {
        self.inner.kind()
    }
    fn tables(&self) -> Vec<String> {
        self.inner.tables()
    }
    fn plan(&self, sql: &str, at: SimTime) -> Result<(Vec<FragmentPlan>, SimDuration)> {
        self.inner.plan(sql, at)
    }
    fn execute(&self, plan: &FragmentPlan, at: SimTime) -> Result<WrapperResult> {
        self.note(plan);
        self.inner.execute(plan, at)
    }
    fn execute_stream(
        &self,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        interruptible: bool,
    ) -> Result<WrapperStream> {
        self.note(plan);
        self.inner.execute_stream(plan, at, cursor, interruptible)
    }
    fn ping(&self, at: SimTime) -> Result<SimDuration> {
        self.inner.ping(at)
    }
}

fn world(plan_cache: bool) -> (Federation, Arc<Qcc>) {
    let (fed, qcc, _) = recorded_world(plan_cache, FederationConfig::default());
    (fed, qcc)
}

fn recorded_world(
    plan_cache: bool,
    config: FederationConfig,
) -> (Federation, Arc<Qcc>, Arc<Recording>) {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let mut t = Table::new("t", schema.clone());
    for i in 0..500i64 {
        t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 10)]))
            .unwrap();
    }
    let mut c = Catalog::new();
    c.register(t);
    let server = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), c);
    let mut net = Network::new();
    // A slow link makes the saved EXPLAIN round trip visible.
    net.add_link(
        ServerId::new("S1"),
        Link::new(20.0, 50_000.0, LoadProfile::Constant(0.0)),
    );
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("t", schema);
    nicknames.add_source("t", ServerId::new("S1"), "t").unwrap();
    let qcc = Qcc::new(QccConfig {
        plan_cache,
        ..QccConfig::default()
    });
    let mut fed = Federation::new(nicknames, SimClock::new(), qcc.middleware(), config);
    let recording = Arc::new(Recording {
        inner: RelationalWrapper::new(server, Arc::new(net)),
        executed: Mutex::new(Vec::new()),
    });
    fed.add_wrapper(recording.clone());
    (fed, qcc, recording)
}

#[test]
fn repeated_statement_skips_the_explain_round_trip() {
    let (fed, qcc) = world(true);
    let first = fed.submit(SQL).unwrap();
    let second = fed.submit(SQL).unwrap();
    assert!(
        second.response_ms < first.response_ms - 30.0,
        "cache hit saves the EXPLAIN RTT: {} vs {}",
        first.response_ms,
        second.response_ms
    );
    let (hits, misses) = qcc.plan_cache.stats();
    assert!(hits >= 1, "hits {hits}");
    assert!(misses >= 1, "misses {misses}");
    // Results are identical either way.
    assert_eq!(first.rows, second.rows);
}

#[test]
fn cache_disabled_repays_the_round_trip_every_time() {
    let (fed, qcc) = world(false);
    let first = fed.submit(SQL).unwrap();
    let second = fed.submit(SQL).unwrap();
    assert!(
        (first.response_ms - second.response_ms).abs() < 1.0,
        "no cache: compile cost recurs ({} vs {})",
        first.response_ms,
        second.response_ms
    );
    assert_eq!(qcc.plan_cache.stats(), (0, 0));
}

#[test]
fn cached_plans_are_recalibrated_with_fresh_factors() {
    let (fed, qcc) = world(true);
    fed.submit(SQL).unwrap();
    let factor_before = qcc.calibration.server_factor(&ServerId::new("S1"));
    // Force a very different factor and recompile from cache: the
    // effective cost must reflect the new factor, not the cached one.
    qcc.calibration.reset_server(&ServerId::new("S1"));
    qcc.calibration
        .record_fragment(&ServerId::new("S1"), "ignored", 1.0, 50.0);
    let (_, candidates) = fed.explain_global(SQL).unwrap();
    let effective = candidates[0].fragments[0].effective_cost.total();
    let raw = candidates[0].fragments[0]
        .plan
        .cost
        .map(|c| c.total())
        .unwrap();
    assert!(
        (effective / raw - 50.0).abs() < 1e-6,
        "fresh factor applied to cached plan: {} vs raw {raw} (old factor {factor_before})",
        effective
    );
}

#[test]
fn cache_hits_share_plan_trees_through_streamed_execution() {
    let (fed, qcc, recording) = recorded_world(
        true,
        FederationConfig {
            stall_factor: 4.0,
            ..FederationConfig::default()
        },
    );
    let same_tree = |a: &FragmentPlan, b: &Arc<PlanNode>| {
        a.descriptor.as_ref().is_some_and(|d| Arc::ptr_eq(d, b))
    };

    fed.submit(SQL).unwrap(); // miss: the EXPLAIN response is cached
    fed.submit(SQL).unwrap(); // hit
    let executed = recording
        .executed
        .lock()
        .expect("no test thread panics holding the lock")
        .clone();
    assert_eq!(executed.len(), 2, "one streamed fragment per query");
    let s1 = ServerId::new("S1");
    let fragment_sql = executed[0].sql.clone();
    let cached = qcc.plan_cache.get(&s1, &fragment_sql).expect("cached");

    // A hit hands out candidates whose trees are the cached allocations.
    let (candidates, took) = qcc
        .middleware()
        .plan_fragment(
            &*recording,
            QueryId(0),
            FragmentId::new(QueryId(0), 0),
            &fragment_sql,
            SimTime::ZERO,
            &mut Deferred::new(),
        )
        .unwrap();
    assert_eq!(took, SimDuration::ZERO, "served from the cache");
    assert_eq!(candidates.len(), cached.len());
    for (cand, plan) in candidates.iter().zip(cached.iter()) {
        let tree = plan.descriptor.as_ref().expect("relational plan");
        assert!(
            same_tree(&cand.plan, tree),
            "candidate deep-cloned its plan"
        );
    }

    // Both executions — the miss and the hit — ran the cached tree itself.
    for ran in &executed {
        let tree = ran.descriptor.as_ref().expect("relational plan");
        assert!(
            cached.iter().any(|plan| same_tree(plan, tree)),
            "the source executed a copy, not the cached plan"
        );
    }
}
