//! Outside-in tracing: spans recorded at the program's public seams.
//!
//! The benchmark never edits the program. It times layers by wrapping
//! the public `Middleware` and `Wrapper` traits in decorators, and by
//! timing its own calls into the admission API, `Qcc::refresh_admission`
//! and `Federation::submit_batch*`. Spans nest through a per-thread
//! stack; a span's self time is its duration minus the time of the spans
//! it directly encloses. Traced runs pin the federation to one worker
//! thread, so every span nests on the driver's thread and the self times
//! of all spans plus the driver's own residual add up to the traced wall.

use qcc_common::{
    Cost, FragmentId, QueryId, Result, ServerId, SimDuration, SimTime, WallStopwatch,
};
use qcc_federation::{Deferred, FragmentCandidate, GlobalCandidate, Middleware};
use qcc_wrapper::{FragmentPlan, Wrapper, WrapperKind, WrapperResult, WrapperStream};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<WallStopwatch> = OnceLock::new();
    EPOCH.get_or_init(WallStopwatch::start).elapsed_nanos() as u64
}

/// Aggregate of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanStat {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus directly enclosed spans).
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean duration per call in µs (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    /// Mean self time per call in µs (0 without calls).
    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Everything a traced pass recorded: span aggregates and counters.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Span aggregates by name (`layer.operation`).
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Counters by name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// The aggregate of `name` (zero when never recorded).
    pub fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// The counter `name` (zero when never bumped).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Summed self time of every span whose name starts with `prefix`.
    pub fn self_ns_of(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    /// Summed self time of every span.
    pub fn self_ns_total(&self) -> u64 {
        self.spans.values().map(|s| s.self_ns).sum()
    }

    /// Fold another ledger into this one.
    pub fn absorb(&mut self, other: &Ledger) {
        for (name, s) in &other.spans {
            let e = self.spans.entry(name).or_default();
            e.calls += s.calls;
            e.total_ns += s.total_ns;
            e.self_ns += s.self_ns;
        }
        for (name, n) in &other.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }
}

thread_local! {
    /// Per open span on this thread: time covered by its finished children.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Span and counter sink shared by the decorators and the driver.
#[derive(Default)]
pub struct Tracer {
    ledger: Mutex<Ledger>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Tracer")
    }
}

impl Tracer {
    /// A tracer with an empty ledger.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        OPEN.with(|open| open.borrow_mut().push(0));
        let start = now_ns();
        let out = f();
        let dur = now_ns().saturating_sub(start);
        let children = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let children = open.pop().unwrap_or(0);
            if let Some(parent) = open.last_mut() {
                *parent += dur;
            }
            children
        });
        let mut ledger = self.ledger.lock().expect("ledger lock poisoned by a panic");
        let s = ledger.spans.entry(name).or_default();
        s.calls += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(children);
        out
    }

    /// Add `n` to counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        let mut ledger = self.ledger.lock().expect("ledger lock poisoned by a panic");
        *ledger.counts.entry(name).or_default() += n;
    }

    /// A copy of everything recorded so far.
    pub fn ledger(&self) -> Ledger {
        self.ledger
            .lock()
            .expect("ledger lock poisoned by a panic")
            .clone()
    }
}

/// Run `f` in a span when a tracer is given, else just run it.
pub fn timed<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// A `Middleware` decorator: forwards every method (defaults included,
/// so the inner implementation's overrides still run) inside a `core.*`
/// span.
pub struct TracedMiddleware {
    inner: Arc<dyn Middleware>,
    tracer: Arc<Tracer>,
}

impl TracedMiddleware {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn Middleware>, tracer: Arc<Tracer>) -> Self {
        TracedMiddleware { inner, tracer }
    }
}

impl Middleware for TracedMiddleware {
    fn plan_fragment(
        &self,
        wrapper: &dyn Wrapper,
        query: QueryId,
        fragment: FragmentId,
        sql: &str,
        at: SimTime,
        effects: &mut Deferred,
    ) -> Result<(Vec<FragmentCandidate>, SimDuration)> {
        self.tracer.span("core.plan_fragment", || {
            self.inner
                .plan_fragment(wrapper, query, fragment, sql, at, effects)
        })
    }

    fn execute_fragment(
        &self,
        wrapper: &dyn Wrapper,
        query: QueryId,
        fragment: FragmentId,
        plan: &FragmentPlan,
        at: SimTime,
        effects: &mut Deferred,
    ) -> Result<WrapperResult> {
        self.tracer.span("core.execute_fragment", || {
            self.inner
                .execute_fragment(wrapper, query, fragment, plan, at, effects)
        })
    }

    fn execute_fragment_stream(
        &self,
        wrapper: &dyn Wrapper,
        query: QueryId,
        fragment: FragmentId,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        effects: &mut Deferred,
    ) -> Result<WrapperStream> {
        self.tracer.span("core.execute_fragment", || {
            self.inner
                .execute_fragment_stream(wrapper, query, fragment, plan, at, cursor, effects)
        })
    }

    fn observe_fragment(
        &self,
        query: QueryId,
        fragment: FragmentId,
        plan: &FragmentPlan,
        observed_ms: f64,
        at: SimTime,
        effects: &mut Deferred,
    ) {
        self.tracer.span("core.observe", || {
            self.inner
                .observe_fragment(query, fragment, plan, observed_ms, at, effects)
        })
    }

    fn observe_fragment_cancel(
        &self,
        query: QueryId,
        fragment: FragmentId,
        server: &ServerId,
        at: SimTime,
        effects: &mut Deferred,
    ) {
        self.tracer.span("core.observe", || {
            self.inner
                .observe_fragment_cancel(query, fragment, server, at, effects)
        })
    }

    fn calibrate_integration(&self, cost: Cost) -> Cost {
        self.tracer.span("core.calibrate_integration", || {
            self.inner.calibrate_integration(cost)
        })
    }

    fn choose_global(
        &self,
        query_sig: &str,
        candidates: &[GlobalCandidate],
        effects: &mut Deferred,
    ) -> usize {
        self.tracer
            .count("core.choose_global_candidates", candidates.len() as u64);
        self.tracer.span("core.choose_global", || {
            self.inner.choose_global(query_sig, candidates, effects)
        })
    }

    fn observe_query(
        &self,
        query: QueryId,
        query_sig: &str,
        estimated_total: f64,
        observed_ms: f64,
        effects: &mut Deferred,
    ) {
        self.tracer.span("core.observe", || {
            self.inner
                .observe_query(query, query_sig, estimated_total, observed_ms, effects)
        })
    }
}

/// A `Wrapper` decorator: everything behind it (wrapper, remote engine,
/// network simulation) is the `remote` layer.
pub struct TracedWrapper {
    inner: Arc<dyn Wrapper>,
    tracer: Arc<Tracer>,
}

impl TracedWrapper {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn Wrapper>, tracer: Arc<Tracer>) -> Self {
        TracedWrapper { inner, tracer }
    }

    fn note_error<T>(&self, r: &Result<T>) {
        if r.is_err() {
            self.tracer.count("remote.errors", 1);
        }
    }
}

impl fmt::Debug for TracedWrapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TracedWrapper").field(&self.inner).finish()
    }
}

impl Wrapper for TracedWrapper {
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
        let r = self
            .tracer
            .span("remote.explain", || self.inner.plan(sql, at));
        self.note_error(&r);
        r
    }

    fn execute(&self, plan: &FragmentPlan, at: SimTime) -> Result<WrapperResult> {
        let r = self
            .tracer
            .span("remote.execute", || self.inner.execute(plan, at));
        if let Ok(res) = &r {
            self.tracer.count("remote.bytes", res.bytes);
            self.tracer.count("remote.rows", res.n_rows() as u64);
        }
        self.note_error(&r);
        r
    }

    fn execute_stream(
        &self,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        interruptible: bool,
    ) -> Result<WrapperStream> {
        let r = self.tracer.span("remote.execute", || {
            self.inner.execute_stream(plan, at, cursor, interruptible)
        });
        if let Ok(s) = &r {
            self.tracer.count("remote.bytes", s.bytes);
            let rows: usize = s.chunks.iter().map(|c| c.batch.n_rows()).sum();
            self.tracer.count("remote.rows", rows as u64);
        }
        self.note_error(&r);
        r
    }

    fn ping(&self, at: SimTime) -> Result<SimDuration> {
        let r = self.tracer.span("remote.ping", || self.inner.ping(at));
        self.note_error(&r);
        r
    }
}
