//! The integrator's orchestration: compile, globally optimize, execute
//! remotely, merge locally.

use crate::decompose::{decompose, frag_table, DecomposedQuery, MergeSpec};
use crate::middleware::{Deferred, FragmentCandidate, GlobalCandidate, Middleware};
use crate::nickname::NicknameCatalog;
use crate::patroller::QueryPatroller;
use parking_lot::Mutex;
use qcc_admission::AdmissionController;
use qcc_catalog::ReplicaCatalog;
use qcc_common::{
    scatter_indexed, Cost, FragmentId, Obs, QccError, QueryId, Result, Row, ServerId, SimDuration,
    SimTime,
};
use qcc_engine::Engine;
use qcc_netsim::{slowdown, LoadProfile, ServerLoad, SimClock};
use qcc_storage::{Catalog, ColumnStats, Table, TableStats};
use qcc_wrapper::{
    FragmentPlan, StreamChunk, StreamOutcome, Wrapper, WrapperKind, WrapperResult, WrapperStream,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Integrator CPU speed (work units per virtual ms).
const II_SPEED: f64 = 1.0;

/// Cap on enumerated global plan candidates per query.
const MAX_GLOBAL_CANDIDATES: usize = 64;

/// Virtual-time lag between a mid-stream interrupt and the stall detector
/// noticing it (one probe interval).
pub const REROUTE_PROBE_MS: f64 = 1.0;

/// Replica selection band: a remainder only re-dispatches to an alternate
/// whose calibrated cost is within `REROUTE_BAND ×` the cancelled
/// primary's estimate.
const REROUTE_BAND: f64 = 2.0;

/// Integrator configuration.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// How many times a query is re-routed after a fragment failure before
    /// giving up.
    pub retry_limit: usize,
    /// Worker-pool width for scatter-gather fan-out (compile-time EXPLAIN
    /// dispatch, fragment execution, `submit_batch`). Results are
    /// byte-identical for any value ≥ 1; this only trades wall-clock time
    /// (see DESIGN.md "Threading model").
    pub threads: usize,
    /// The stall detector (DESIGN.md §15). Every fragment executes as a
    /// resumable stream; with a positive value, a fragment still
    /// incomplete after `stall_factor ×` its calibrated estimate (or whose
    /// source dies mid-stream) is cancelled and its *remainder*
    /// re-dispatched to a within-band replica at the cursor. `0.0` — the
    /// default — means no detector: the slow threshold is infinite and a
    /// crash that opens mid-service goes unnoticed until the next
    /// arrival-time liveness check.
    pub stall_factor: f64,
    /// How many remainder re-dispatches one fragment may attempt before
    /// the failure surfaces to the whole-query retry loop.
    pub reroute_limit: usize,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            retry_limit: 2,
            threads: qcc_common::default_threads(),
            stall_factor: 0.0,
            reroute_limit: 1,
        }
    }
}

/// The outcome of a federated query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Patroller-assigned id.
    pub id: QueryId,
    /// Result rows.
    pub rows: Vec<Row>,
    /// End-to-end response time in virtual ms (submit → merged result).
    pub response_ms: f64,
    /// Signature of the executed global plan.
    pub chosen_signature: String,
    /// Servers the executed plan touched.
    pub servers: BTreeSet<ServerId>,
    /// Observed per-fragment response times `(server, ms)`.
    pub fragment_times: Vec<(ServerId, f64)>,
    /// The estimated total cost of the chosen plan (for calibration
    /// inspection in tests and experiments).
    pub estimated_cost: f64,
}

/// A compiled federated query: its decomposition plus the enumerated
/// global candidates, costed and sorted cheapest-first.
pub type CompiledGlobal = (DecomposedQuery, Vec<GlobalCandidate>);

/// Observed `(server, response ms)` pairs, one per executed fragment.
pub type FragmentTimes = Vec<(ServerId, f64)>;

/// The federated information integrator.
pub struct Federation {
    nicknames: NicknameCatalog,
    wrappers: BTreeMap<ServerId, Arc<dyn Wrapper>>,
    middleware: Arc<dyn Middleware>,
    patroller: QueryPatroller,
    clock: SimClock,
    ii_load: ServerLoad,
    config: FederationConfig,
    /// The explain table: query template → winning global plan signature
    /// (the paper stores the selected plan and its estimated costs here).
    explain_table: Mutex<BTreeMap<String, String>>,
    /// Observability handle (disabled unless [`Federation::set_obs`] is
    /// called). Worker-side journal emissions ride the `Deferred` buffers
    /// so snapshots stay thread-count independent.
    obs: Obs,
    /// Admission controller (absent unless [`Federation::set_admission`]
    /// is called). `run` consults its *frozen* per-server token capacities
    /// at plan-selection time — the coordinator refreshes them only
    /// between batches, so every query in a batch gates against the same
    /// snapshot regardless of thread count.
    admission: Option<Arc<AdmissionController>>,
    /// Replica catalog (absent unless [`Federation::set_catalog`] is
    /// called). When attached, `compile` runs source selection against it
    /// *before* the EXPLAIN fan-out, pruning dominated replicas so the
    /// fan-out stays O(relevant replicas) instead of O(servers).
    catalog: Option<Arc<ReplicaCatalog>>,
}

impl Federation {
    /// Build an integrator.
    pub fn new(
        nicknames: NicknameCatalog,
        clock: SimClock,
        middleware: Arc<dyn Middleware>,
        config: FederationConfig,
    ) -> Self {
        Federation {
            nicknames,
            wrappers: BTreeMap::new(),
            middleware,
            patroller: QueryPatroller::new(),
            clock,
            ii_load: ServerLoad::new(LoadProfile::Constant(0.0), 0.02),
            config,
            explain_table: Mutex::new(BTreeMap::new()),
            obs: Obs::off(),
            admission: None,
            catalog: None,
        }
    }

    /// Attach an admission controller; `run` will gate candidate selection
    /// on its token capacities and enforce the execution deadline.
    pub fn set_admission(&mut self, admission: Arc<AdmissionController>) {
        self.admission = Some(admission);
    }

    /// The attached admission controller, if any.
    pub fn admission(&self) -> Option<&Arc<AdmissionController>> {
        self.admission.as_ref()
    }

    /// Attach a replica catalog; `compile` will prune each fragment's
    /// candidate servers through [`ReplicaCatalog::select_sources`] before
    /// dispatching the EXPLAIN fan-out.
    pub fn set_catalog(&mut self, catalog: Arc<ReplicaCatalog>) {
        self.catalog = Some(catalog);
    }

    /// The attached replica catalog, if any.
    pub fn catalog(&self) -> Option<&Arc<ReplicaCatalog>> {
        self.catalog.as_ref()
    }

    /// Mutable access to the routing knobs. Benches and tests use this to
    /// flip individual policies (e.g. `reroute_limit = 0` for a
    /// no-recovery baseline) on an already-assembled federation.
    pub fn config_mut(&mut self) -> &mut FederationConfig {
        &mut self.config
    }

    /// Attach an observability handle; the patroller journals through the
    /// same one.
    pub fn set_obs(&mut self, obs: Obs) {
        self.patroller.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Register a wrapper for a server.
    pub fn add_wrapper(&mut self, wrapper: Arc<dyn Wrapper>) {
        self.wrappers.insert(wrapper.server_id().clone(), wrapper);
    }

    /// The nickname catalog.
    pub fn nicknames(&self) -> &NicknameCatalog {
        &self.nicknames
    }

    /// The query patroller (its log is the QCC's runtime feed).
    pub fn patroller(&self) -> &QueryPatroller {
        &self.patroller
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The integrator configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// The integrator's own load model (§3.2: II load affects merge cost).
    pub fn ii_load(&self) -> &ServerLoad {
        &self.ii_load
    }

    /// The wrapper registered for `server`.
    pub fn wrapper(&self, server: &ServerId) -> Result<&Arc<dyn Wrapper>> {
        self.wrappers
            .get(server)
            .ok_or_else(|| QccError::Config(format!("no wrapper for server {server}")))
    }

    /// Snapshot of the explain table (template → winning plan signature).
    pub fn explain_table(&self) -> BTreeMap<String, String> {
        self.explain_table.lock().clone()
    }

    /// Compile a query: decompose and enumerate global candidates with
    /// (possibly calibrated) costs. Advances the clock by the slowest
    /// EXPLAIN round trip (they are dispatched concurrently). Does not
    /// execute.
    pub fn explain_global(&self, sql: &str) -> Result<CompiledGlobal> {
        let qid = QueryId(u64::MAX); // sentinel: not a logged submission
        let mut effects = Deferred::new();
        let compiled = self.compile(qid, sql, &self.clock, &mut effects);
        effects.apply();
        compiled
    }

    fn compile(
        &self,
        qid: QueryId,
        sql: &str,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<CompiledGlobal> {
        let decomposed = decompose(sql, &self.nicknames)?;

        // Source selection: when a replica catalog is attached, prune each
        // fragment's candidate set *before* the EXPLAIN fan-out — dominated
        // replicas (strictly worse calibrated cost AND reliability band
        // than a surviving sibling) never win the cost race, so consulting
        // them is pure network waste. Selection preserves candidate order
        // and fails open on unregistered fragments, so a world without a
        // catalog (or with an empty one) compiles exactly as before.
        let selected: Vec<Vec<ServerId>> = decomposed
            .fragments
            .iter()
            .map(|frag| match &self.catalog {
                Some(catalog) => catalog.select_sources(&frag.nicknames, &frag.candidate_servers),
                None => frag.candidate_servers.clone(),
            })
            .collect();
        if self.catalog.is_some() {
            let full: usize = decomposed
                .fragments
                .iter()
                .map(|f| f.candidate_servers.len())
                .sum();
            let kept: usize = selected.iter().map(|s| s.len()).sum();
            if kept < full {
                // Commutative counter: safe inline on worker threads (L9).
                self.obs
                    .counter_add("catalog_candidates_pruned_total", &[], (full - kept) as u64);
            }
            if self.obs.is_enabled() {
                let obs = self.obs.clone();
                let at = clock.now();
                effects.defer(move || {
                    // Per-query candidate-set-size distribution (post-prune).
                    obs.observe("catalog_candidate_set_size", &[], kept as f64);
                    if kept < full {
                        let mut fields: Vec<(&'static str, qcc_common::FieldValue)> = Vec::new();
                        if qid.0 != u64::MAX {
                            fields.push(("query", qid.0.into()));
                        }
                        fields.extend([("full", full.into()), ("kept", kept.into())]);
                        obs.event(at, "catalog_prune", fields);
                    }
                });
            }
        }

        // Scatter: every (fragment, candidate server) EXPLAIN is
        // dispatched concurrently at one snapshot — the MW fans the
        // requests out, so virtual time advances by the slowest round
        // trip, not the sum. Results gather in (fragment, server) task
        // order, making the outcome independent of the thread count.
        struct ExplainTask<'a> {
            slot: usize,
            fid: FragmentId,
            wrapper: &'a Arc<dyn Wrapper>,
            frag_sql: String,
        }
        let mut tasks: Vec<ExplainTask<'_>> = Vec::new();
        for (slot, frag) in decomposed.fragments.iter().enumerate() {
            let fid = FragmentId::new(qid, frag.index);
            for server in &selected[slot] {
                let Ok(wrapper) = self.wrapper(server) else {
                    continue;
                };
                tasks.push(ExplainTask {
                    slot,
                    fid,
                    wrapper,
                    frag_sql: frag.sql_for_server(&self.nicknames, server)?,
                });
            }
        }
        let at = clock.now();
        let outcomes = scatter_indexed(tasks.len(), self.config.threads, |i| {
            let t = &tasks[i];
            let mut local = Deferred::new();
            let result = self.middleware.plan_fragment(
                t.wrapper.as_ref(),
                qid,
                t.fid,
                &t.frag_sql,
                at,
                &mut local,
            );
            (result, local)
        });

        // Gather barrier: merge deferred effects and bucket candidates in
        // task order; one clock advance for the whole EXPLAIN fan-out.
        let mut per_fragment: Vec<Vec<FragmentCandidate>> =
            decomposed.fragments.iter().map(|_| Vec::new()).collect();
        let mut slowest = SimDuration::ZERO;
        let mut fatal = None;
        for (task, (result, local)) in tasks.iter().zip(outcomes) {
            effects.merge(local);
            match result {
                Ok((plans, took)) => {
                    slowest = slowest.max(took);
                    per_fragment[task.slot].extend(plans);
                }
                Err(QccError::ServerUnavailable(_)) | Err(QccError::ServerFault { .. }) => {
                    // A down server contributes no candidates; the MW has
                    // recorded the failure.
                }
                Err(e) => {
                    if fatal.is_none() {
                        fatal = Some(e);
                    }
                }
            }
        }
        clock.advance(slowest);
        if let Some(e) = fatal {
            return Err(e);
        }

        for (slot, frag) in decomposed.fragments.iter().enumerate() {
            let candidates = &mut per_fragment[slot];
            if candidates.is_empty() {
                return Err(QccError::NoViablePlan(format!(
                    "no server could plan fragment {} ({})",
                    frag.index, frag.stmt
                )));
            }
            // Drop candidates the calibrator pinned to infinity (downed
            // servers), unless nothing else remains.
            if candidates.iter().any(|c| !c.effective_cost.is_infinite()) {
                candidates.retain(|c| !c.effective_cost.is_infinite());
            }
            // Keep the cheapest plans first so candidate capping keeps the
            // most promising combinations.
            candidates.sort_by(|a, b| {
                a.effective_cost
                    .total()
                    .total_cmp(&b.effective_cost.total())
            });
        }

        // Capped Cartesian product, enumerated as index vectors in
        // lexicographic order (rightmost fragment varies fastest — the
        // same first-`cap` set the old combo-cloning loop produced);
        // only the surviving combinations materialize candidate clones.
        let cap = MAX_GLOBAL_CANDIDATES;
        let mut combos: Vec<Vec<FragmentCandidate>> = Vec::new();
        let mut odometer = vec![0usize; per_fragment.len()];
        'enumerate: while combos.len() < cap {
            combos.push(
                odometer
                    .iter()
                    .zip(&per_fragment)
                    .map(|(&i, cands)| cands[i].clone())
                    .collect(),
            );
            let mut pos = per_fragment.len();
            loop {
                if pos == 0 {
                    break 'enumerate; // every combination enumerated
                }
                pos -= 1;
                odometer[pos] += 1;
                if odometer[pos] < per_fragment[pos].len() {
                    break;
                }
                odometer[pos] = 0;
            }
        }

        let mut candidates: Vec<GlobalCandidate> = combos
            .into_iter()
            .map(|fragments| {
                let integration = self.estimate_integration(&decomposed, &fragments);
                GlobalCandidate {
                    integration_cost: self.middleware.calibrate_integration(integration),
                    fragments,
                }
            })
            .collect();
        candidates.sort_by(|a, b| a.total_cost().total_cmp(&b.total_cost()));

        // Compile span (covers the EXPLAIN fan-out): journaled via the
        // deferred buffer because compile runs on worker threads under
        // `submit_batch`.
        if self.obs.is_enabled() {
            let obs = self.obs.clone();
            let template = decomposed.template_signature.clone();
            let (explain_tasks, n_candidates) = (tasks.len(), candidates.len());
            let end = clock.now();
            effects.defer(move || {
                let mut fields: Vec<(&'static str, qcc_common::FieldValue)> = Vec::new();
                if qid.0 != u64::MAX {
                    fields.push(("query", qid.0.into()));
                }
                fields.extend([
                    ("template", template.into()),
                    ("explain_tasks", explain_tasks.into()),
                    ("candidates", n_candidates.into()),
                ]);
                obs.span("compile", at, end, fields);
            });
        }
        Ok((decomposed, candidates))
    }

    /// Estimated merge cost at the integrator for one fragment-candidate
    /// combination, using a virtual catalog whose table statistics come
    /// from the fragments' estimated cardinalities.
    fn estimate_integration(
        &self,
        decomposed: &DecomposedQuery,
        fragments: &[FragmentCandidate],
    ) -> Cost {
        let MergeSpec::Merge { stmt } = &decomposed.merge else {
            return Cost::ZERO;
        };
        let mut catalog = Catalog::new();
        for (i, frag) in decomposed.fragments.iter().enumerate() {
            let schema = frag.output_schema();
            let card = fragments
                .get(i)
                .map(|f| f.effective_cost.cardinality)
                .unwrap_or(1.0)
                .max(1.0) as u64;
            let columns = schema
                .columns()
                .iter()
                .map(|_| ColumnStats {
                    distinct: (card / 2).max(1),
                    ..ColumnStats::default()
                })
                .collect();
            let stats = TableStats::virtual_table(card, 8.0 * schema.len() as f64, columns);
            catalog.register_virtual(Table::new(frag_table(i), schema), stats);
        }
        let engine = Engine::new(catalog);
        match engine.explain(&stmt.to_string()) {
            Ok(plans) if !plans.is_empty() => plans[0].cost.calibrate(1.0 / II_SPEED),
            _ => Cost::fixed(1.0),
        }
    }

    /// Submit a federated query: compile, choose a global plan, execute
    /// the fragments remotely (in parallel), merge locally, and log it all.
    pub fn submit(&self, sql: &str) -> Result<QueryOutcome> {
        let submitted = self.clock.now();
        let qid = self.patroller.record_submit(sql, submitted);
        let mut effects = Deferred::new();
        let result = self.run(qid, sql, &self.clock, &mut effects, None);
        effects.apply();
        match result {
            Ok(outcome) => {
                self.patroller.record_complete(qid, self.clock.now());
                Ok(outcome)
            }
            Err(e) => {
                self.patroller
                    .record_failure(qid, self.clock.now(), e.to_string());
                Err(e)
            }
        }
    }

    /// Submit a batch of federated queries that logically start at the
    /// same instant, spread across the scatter worker pool.
    ///
    /// Each query runs against a private clock forked from the shared
    /// snapshot ([`SimClock::at`]); the coordinator gathers in
    /// submission-index order, applying each query's deferred side
    /// effects and patroller completion before the next query's, then
    /// advances the shared clock once — to the latest per-query end time.
    /// Every query in the batch therefore routes against the same frozen
    /// adaptive state (load balancer, calibration, reliability):
    /// adaptation happens at batch granularity, and the outcomes are
    /// byte-identical for any `threads` setting, including 1.
    pub fn submit_batch(&self, sqls: &[String]) -> Vec<Result<QueryOutcome>> {
        self.submit_batch_with_budgets(sqls, &[])
    }

    /// [`Federation::submit_batch`] with an optional remaining deadline
    /// budget per query (virtual ms from dispatch, as handed out by the
    /// admission queue). A query's effective execution deadline is the
    /// smaller of the configured `exec_deadline_ms` and its budget, so a
    /// ticket that spent most of its budget queueing gets a proportionally
    /// tighter retry/hedge horizon. `budgets` may be empty (no budgets) or
    /// must match `sqls` in length; `None` entries mean "no budget".
    pub fn submit_batch_with_budgets(
        &self,
        sqls: &[String],
        budgets: &[Option<f64>],
    ) -> Vec<Result<QueryOutcome>> {
        let t0 = self.clock.now();
        let qids: Vec<QueryId> = sqls
            .iter()
            .map(|sql| self.patroller.record_submit(sql, t0))
            .collect();
        let outcomes = scatter_indexed(sqls.len(), self.config.threads, |i| {
            let clock = SimClock::at(t0);
            let mut local = Deferred::new();
            let budget = budgets.get(i).copied().flatten();
            let result = self.run(qids[i], &sqls[i], &clock, &mut local, budget);
            (result, local, clock.now())
        });
        let mut latest = t0;
        let mut out = Vec::with_capacity(sqls.len());
        for (i, (result, local, end)) in outcomes.into_iter().enumerate() {
            local.apply();
            match &result {
                Ok(_) => self.patroller.record_complete(qids[i], end),
                Err(e) => self.patroller.record_failure(qids[i], end, e.to_string()),
            }
            if end > latest {
                latest = end;
            }
            out.push(result);
        }
        self.clock.advance_to(latest);
        out
    }

    fn run(
        &self,
        qid: QueryId,
        sql: &str,
        clock: &SimClock,
        effects: &mut Deferred,
        budget_ms: Option<f64>,
    ) -> Result<QueryOutcome> {
        let submitted = clock.now();
        let (decomposed, mut candidates) = self.compile(qid, sql, clock, effects)?;
        if candidates.is_empty() {
            return Err(QccError::NoViablePlan("no global candidates".into()));
        }
        let mut banned: BTreeSet<ServerId> = BTreeSet::new();
        // Effective execution deadline: the configured per-dispatch limit,
        // tightened by whatever remains of the ticket's arrival-relative
        // budget. A ticket dispatched with (almost) nothing left keeps a
        // hair of budget so the deadline machinery stays armed rather than
        // reading 0.0 as "disabled".
        let configured = self
            .admission
            .as_ref()
            .map(|a| a.config().exec_deadline_ms)
            .unwrap_or(0.0);
        let exec_deadline_ms = match budget_ms {
            Some(budget) => {
                let budget = budget.max(0.001);
                if configured > 0.0 {
                    configured.min(budget)
                } else {
                    budget
                }
            }
            None => configured,
        };

        // The retry *budget*: up to `retry_limit` re-routes, but the
        // execution deadline can forfeit whatever budget remains.
        for attempt in 0..=self.config.retry_limit {
            if attempt > 0 && exec_deadline_ms > 0.0 {
                let elapsed = clock.now().since(submitted).as_millis();
                if elapsed > exec_deadline_ms {
                    self.obs
                        .counter_inc("deadline_exceeded_total", &[("stage", "retry")]);
                    if self.obs.is_enabled() {
                        let obs = self.obs.clone();
                        let at = clock.now();
                        effects.defer(move || {
                            obs.event(
                                at,
                                "deadline_exceeded",
                                vec![
                                    ("query", qid.0.into()),
                                    ("stage", "retry".into()),
                                    ("attempt", (attempt as u64).into()),
                                    ("elapsed_ms", elapsed.into()),
                                    ("deadline_ms", exec_deadline_ms.into()),
                                ],
                            );
                        });
                    }
                    return Err(QccError::DeadlineExceeded(format!(
                        "retry budget forfeited after {elapsed:.3}ms (deadline {exec_deadline_ms}ms)"
                    )));
                }
            }
            // Filter candidates avoiding servers that already failed.
            let viable: Vec<&GlobalCandidate> = candidates
                .iter()
                .filter(|c| c.server_set().is_disjoint(&banned))
                .collect();
            if viable.is_empty() {
                break;
            }
            // Token gate: a plan is admissible only if every server it
            // touches has concurrency tokens in the frozen snapshot. A
            // nonempty blocked set means the router steered around a
            // token-exhausted server (a "token wait" — in virtual time the
            // wait materializes as a reroute, never a sleep).
            let (viable, blocked_count) = match &self.admission {
                Some(admission) => {
                    let (admissible, blocked): (Vec<&GlobalCandidate>, Vec<&GlobalCandidate>) =
                        viable.into_iter().partition(|c| {
                            c.server_set().iter().all(|s| admission.capacity(s) > 0)
                        });
                    (admissible, blocked.len())
                }
                None => (viable, 0),
            };
            if blocked_count > 0 {
                self.obs.counter_inc("token_waits_total", &[]);
                if self.obs.is_enabled() {
                    let obs = self.obs.clone();
                    let at = clock.now();
                    effects.defer(move || {
                        obs.event(
                            at,
                            "token_wait",
                            vec![
                                ("query", qid.0.into()),
                                ("attempt", (attempt as u64).into()),
                                ("blocked_candidates", blocked_count.into()),
                            ],
                        );
                    });
                }
            }
            if viable.is_empty() {
                // Every surviving plan needs a token-exhausted server:
                // shed before any fragment work rather than pile on.
                if let Some(admission) = &self.admission {
                    admission.note_shed("no_tokens");
                }
                return Err(QccError::Shed(
                    "no token-admissible global plan (all candidate servers exhausted)".into(),
                ));
            }
            let viable_owned: Vec<GlobalCandidate> = viable.into_iter().cloned().collect();
            let idx = self
                .middleware
                .choose_global(&decomposed.template_signature, &viable_owned, effects)
                .min(viable_owned.len() - 1);
            let chosen = &viable_owned[idx];
            // Inline (not deferred) by design: within one batch every
            // query sees the same frozen routing state, so same-template
            // queries write the same winner — the table's contents are
            // deterministic even though the write order is not.
            self.explain_table
                .lock()
                .insert(decomposed.template_signature.clone(), chosen.signature());

            // Hedged dispatch: when the remaining deadline budget is
            // nearly exhausted relative to a fragment's calibrated
            // estimate, line up a second within-band replica for that
            // fragment. Both run concurrently; the faster result wins and
            // the loser is suppressed at the merge.
            let hedges = self.plan_hedges(chosen, &candidates, &banned, exec_deadline_ms, {
                clock.now().since(submitted).as_millis()
            });
            for (slot, alt) in &hedges {
                self.obs
                    .counter_inc("hedges_total", &[("server", alt.plan.server.as_str())]);
                if self.obs.is_enabled() {
                    let obs = self.obs.clone();
                    let at = clock.now();
                    let primary = chosen.fragments[*slot].plan.server.to_string();
                    let hedge = alt.plan.server.to_string();
                    let est = chosen.fragments[*slot].effective_cost.total();
                    let slot = *slot;
                    effects.defer(move || {
                        obs.event(
                            at,
                            "hedge",
                            vec![
                                ("query", qid.0.into()),
                                ("fragment", slot.into()),
                                ("primary", primary.into()),
                                ("hedge", hedge.into()),
                                ("est_ms", est.into()),
                            ],
                        );
                    });
                }
            }

            let executed = self.execute_global(
                qid,
                &decomposed,
                chosen,
                &hedges,
                &candidates,
                &banned,
                clock,
                effects,
            );
            match executed {
                Ok((rows, fragment_times)) => {
                    let response_ms = clock.now().since(submitted).as_millis();
                    if exec_deadline_ms > 0.0 && response_ms > exec_deadline_ms {
                        // Completed, but late: the result still counts, the
                        // goodput accounting does not.
                        self.obs.counter_inc("deadline_misses_total", &[]);
                        if self.obs.is_enabled() {
                            let obs = self.obs.clone();
                            let at = clock.now();
                            effects.defer(move || {
                                obs.event(
                                    at,
                                    "deadline_exceeded",
                                    vec![
                                        ("query", qid.0.into()),
                                        ("stage", "completion".into()),
                                        ("elapsed_ms", response_ms.into()),
                                        ("deadline_ms", exec_deadline_ms.into()),
                                    ],
                                );
                            });
                        }
                    }
                    self.middleware.observe_query(
                        qid,
                        &decomposed.template_signature,
                        chosen.total_cost(),
                        response_ms,
                        effects,
                    );
                    // A success after at least one ban is a reroute: the
                    // retry loop found a plan avoiding the failed servers.
                    if self.obs.is_enabled() && !banned.is_empty() {
                        let obs = self.obs.clone();
                        let at = clock.now();
                        let servers = join_servers(&chosen.server_set());
                        effects.defer(move || {
                            obs.event(
                                at,
                                "reroute",
                                vec![
                                    ("query", qid.0.into()),
                                    ("attempt", (attempt as u64).into()),
                                    ("servers", servers.into()),
                                ],
                            );
                        });
                    }
                    return Ok(QueryOutcome {
                        id: qid,
                        rows,
                        response_ms,
                        chosen_signature: chosen.signature(),
                        servers: chosen.server_set(),
                        fragment_times,
                        estimated_cost: chosen.total_cost(),
                    });
                }
                Err(QccError::ServerUnavailable(s))
                | Err(QccError::ServerFault { server: s, .. }) => {
                    // Ban the failed server and re-route. The middleware
                    // has already recorded the failure (reliability input).
                    self.obs.counter_inc("retries_total", &[]);
                    if self.obs.is_enabled() {
                        let obs = self.obs.clone();
                        let at = clock.now();
                        let srv = s.to_string();
                        effects.defer(move || {
                            obs.event(
                                at,
                                "server_banned",
                                vec![
                                    ("query", qid.0.into()),
                                    ("server", srv.into()),
                                    ("attempt", (attempt as u64).into()),
                                ],
                            );
                        });
                    }
                    banned.insert(s);
                    candidates.retain(|c| c.server_set().is_disjoint(&banned));
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(QccError::NoViablePlan(format!(
            "all retries exhausted; unavailable servers: {banned:?}"
        )))
    }

    /// Choose a hedge replica for every pressured fragment of `chosen`:
    /// one whose remaining deadline budget (`exec_deadline_ms` minus
    /// `elapsed_ms`) is below `hedge_slack_factor ×` its calibrated cost.
    /// The replica is the cheapest alternate plan for the same fragment
    /// slot from the enumerated candidate `pool` that sits on a different,
    /// unbanned server with token capacity, within `hedge_band ×` the
    /// primary's cost (ties broken by server id — fully deterministic
    /// against the frozen admission snapshot).
    fn plan_hedges(
        &self,
        chosen: &GlobalCandidate,
        pool: &[GlobalCandidate],
        banned: &BTreeSet<ServerId>,
        exec_deadline_ms: f64,
        elapsed_ms: f64,
    ) -> BTreeMap<usize, FragmentCandidate> {
        let mut hedges = BTreeMap::new();
        let Some(admission) = &self.admission else {
            return hedges;
        };
        let slack = admission.config().hedge_slack_factor;
        if slack <= 0.0 || exec_deadline_ms <= 0.0 {
            return hedges;
        }
        let remaining = exec_deadline_ms - elapsed_ms;
        let band = admission.config().hedge_band.max(1.0);
        for (slot, primary) in chosen.fragments.iter().enumerate() {
            let est = primary.effective_cost.total();
            if est <= 0.0 || remaining >= slack * est {
                continue;
            }
            let limit = est * band;
            let mut best: Option<&FragmentCandidate> = None;
            for cand in pool {
                let Some(alt) = cand.fragments.get(slot) else {
                    continue;
                };
                if alt.plan.server == primary.plan.server
                    || banned.contains(&alt.plan.server)
                    || admission.capacity(&alt.plan.server) == 0
                    || alt.effective_cost.total() > limit
                {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => match alt
                        .effective_cost
                        .total()
                        .total_cmp(&b.effective_cost.total())
                    {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Greater => false,
                        std::cmp::Ordering::Equal => alt.plan.server < b.plan.server,
                    },
                };
                if better {
                    best = Some(alt);
                }
            }
            if let Some(alt) = best {
                hedges.insert(slot, alt.clone());
            }
        }
        hedges
    }

    /// Merge the gathered slot results at the integrator: a single
    /// fragment passes straight through; otherwise the merge statement
    /// runs on the local engine over the fragments' batches, and its work
    /// advances the clock at the integrator's speed and load.
    fn merge_global(
        &self,
        qid: QueryId,
        decomposed: &DecomposedQuery,
        results: Vec<WrapperResult>,
        fragment_times: FragmentTimes,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<(Vec<Row>, FragmentTimes)> {
        match &decomposed.merge {
            MergeSpec::Passthrough => {
                let rows = results
                    .into_iter()
                    .next()
                    .map(|r| r.rows())
                    .unwrap_or_default();
                Ok((rows, fragment_times))
            }
            MergeSpec::Merge { stmt } => {
                // Register the shipped fragment batches as temp tables —
                // adopting the columnar data without copying — and run the
                // merge with the real engine.
                let mut catalog = Catalog::new();
                for (i, (frag, result)) in decomposed.fragments.iter().zip(results).enumerate() {
                    let table =
                        Table::from_batches(frag_table(i), frag.output_schema(), result.batches)
                            .map_err(|e| {
                                QccError::Execution(format!("fragment {i} result mismatch: {e}"))
                            })?;
                    catalog.register(table);
                }
                let engine = Engine::new(catalog);
                let (rows, work) = engine.execute_sql(&stmt.to_string())?;
                let merge_start = clock.now();
                let rho = self.ii_load.utilization(merge_start);
                let merge_ms = work.cpu_units / II_SPEED * slowdown(rho, 1.0);
                clock.advance(SimDuration::from_millis(merge_ms));
                if self.obs.is_enabled() {
                    let obs = self.obs.clone();
                    effects.defer(move || {
                        obs.event(
                            merge_start,
                            "merge",
                            vec![("query", qid.0.into()), ("ms", merge_ms.into())],
                        );
                    });
                }
                Ok((rows, fragment_times))
            }
        }
    }

    /// Execute the fragments of a chosen global plan (DESIGN.md §15), then
    /// merge. The scatter fans out a cursor-0 stream for every fragment
    /// and every hedge replica, all stamped with the same `start`
    /// snapshot; the gather merges the tasks' deferred effects in task
    /// order (primaries, then hedges) and resolves slots in slot order on
    /// the coordinator, so the outcome is the same for any thread count.
    /// The clock advances once, by the slowest winning slot.
    ///
    /// A slot's stream that completed within `stall_factor ×` its
    /// calibrated estimate is clean, and is acknowledged at the gather
    /// barrier in task order, right after its task's effects — whether
    /// it wins its slot, loses a hedge race, or sits next to a slot that
    /// fails the query. Where a hedge ran, the faster clean stream wins
    /// (ties favour the primary), the loser's rows are suppressed at the
    /// merge, and a hedge that succeeds where its primary failed rescues
    /// the query without burning a retry. A slot with no clean stream
    /// goes to the stall detector, which cancels the stream (at the
    /// threshold instant, or one probe interval after a mid-stream
    /// interrupt) and re-dispatches the *remainder* — the cursor
    /// position, not the whole fragment — to a within-band replica. Each
    /// chunk index is merged from exactly one source, so duplicate rows
    /// are impossible by construction.
    ///
    /// With `stall_factor == 0` there is no detector: the threshold is
    /// infinite and the cursor-0 streams are not interruptible, so every
    /// stream that returns is complete and clean.
    #[allow(clippy::too_many_arguments)]
    fn execute_global(
        &self,
        qid: QueryId,
        decomposed: &DecomposedQuery,
        chosen: &GlobalCandidate,
        hedges: &BTreeMap<usize, FragmentCandidate>,
        pool: &[GlobalCandidate],
        banned: &BTreeSet<ServerId>,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<(Vec<Row>, FragmentTimes)> {
        let start = clock.now();
        let detector = self.config.stall_factor > 0.0;
        let n = chosen.fragments.len();
        let hedge_tasks: Vec<(usize, &FragmentCandidate)> =
            hedges.iter().map(|(slot, cand)| (*slot, cand)).collect();
        let task_candidate = |i: usize| -> &FragmentCandidate {
            if i < n {
                &chosen.fragments[i]
            } else {
                hedge_tasks[i - n].1
            }
        };
        let outcomes = scatter_indexed(n + hedge_tasks.len(), self.config.threads, |i| {
            let cand = task_candidate(i);
            let mut local = Deferred::new();
            let result = self.wrapper(&cand.plan.server).and_then(|wrapper| {
                let uninterruptible = Uninterruptible(wrapper.as_ref());
                let wrapper: &dyn Wrapper = if detector {
                    wrapper.as_ref()
                } else {
                    &uninterruptible
                };
                self.middleware.execute_fragment_stream(
                    wrapper,
                    qid,
                    cand.fragment,
                    &cand.plan,
                    start,
                    0,
                    &mut local,
                )
            });
            (result, local)
        });

        // A stream that completed within its slot's threshold is clean.
        let thresholds: Vec<f64> = chosen
            .fragments
            .iter()
            .map(|cand| {
                let est = cand.effective_cost.total();
                if detector && est > 0.0 {
                    self.config.stall_factor * est
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let is_clean = |slot: usize, s: &WrapperStream| {
            s.outcome == StreamOutcome::Complete && s.response_time.as_millis() <= thresholds[slot]
        };

        // Gather barrier, in task order (primaries, then hedges): merge
        // each task's deferred observations, then acknowledge its stream
        // if clean — before any slot is resolved, so a fragment that ran
        // clean is counted and calibrated even when another slot fails.
        let mut primary: Vec<Option<WrapperStream>> = (0..n).map(|_| None).collect();
        let mut hedge: Vec<Option<WrapperStream>> = (0..n).map(|_| None).collect();
        let mut first_err: Option<(usize, QccError)> = None;
        for (i, (result, local)) in outcomes.into_iter().enumerate() {
            effects.merge(local);
            let slot = if i < n { i } else { hedge_tasks[i - n].0 };
            match result {
                Ok(stream) => {
                    if is_clean(slot, &stream) {
                        self.note_complete_stream(qid, task_candidate(i), &stream, start, effects);
                    }
                    if i < n {
                        primary[slot] = Some(stream);
                    } else {
                        hedge[slot] = Some(stream);
                    }
                }
                Err(e) => {
                    // A failed primary may still be rescued by its hedge;
                    // remember the earliest-slot primary error in case not.
                    let rank = if i < n { slot } else { n + slot };
                    if first_err.as_ref().map(|(r, _)| rank < *r).unwrap_or(true) {
                        first_err = Some((rank, e));
                    }
                }
            }
        }

        // Slot resolution runs on the coordinator, in slot order — fully
        // deterministic for any thread count (everything past the barrier
        // is sequential).
        let mut results: Vec<WrapperResult> = Vec::with_capacity(n);
        let mut fragment_times: FragmentTimes = Vec::new();
        let mut slowest = SimDuration::ZERO;
        for slot in 0..n {
            let primary_cand = &chosen.fragments[slot];
            let p = primary[slot].take();
            let h = hedge[slot].take();
            let clean = |s: &WrapperStream| is_clean(slot, s);
            // Classify the slot once: `Ok` carries the clean winner (plus
            // the losing stream and whether the winner was the hedge),
            // `Err` hands both streams to the stall path untouched.
            let picked = match (p, h) {
                (Some(pp), Some(hh)) => match (clean(&pp), clean(&hh)) {
                    // The hedge race: the fastest clean completion wins
                    // its slot, ties favour the primary.
                    (true, true) => {
                        if hh.response_time < pp.response_time {
                            Ok((hh, Some(pp), true))
                        } else {
                            Ok((pp, Some(hh), false))
                        }
                    }
                    (true, false) => Ok((pp, Some(hh), false)),
                    (false, true) => Ok((hh, Some(pp), true)),
                    (false, false) => Err((Some(pp), Some(hh))),
                },
                (Some(pp), None) if clean(&pp) => Ok((pp, None, false)),
                (None, Some(hh)) if clean(&hh) => Ok((hh, None, true)),
                (pp, hh) => Err((pp, hh)),
            };
            match picked {
                Ok((winner, loser, use_hedge)) => {
                    let winner_cand = if use_hedge {
                        &hedges[&slot]
                    } else {
                        primary_cand
                    };
                    if use_hedge {
                        self.obs.counter_inc("hedge_wins_total", &[]);
                    }
                    // A complete loser is a full duplicate: its rows are
                    // suppressed at the merge. A clean one was acknowledged
                    // at the barrier; a slow one still is an honest
                    // whole-fragment sample, acknowledged here.
                    if let Some(loser) = loser.filter(|l| l.outcome == StreamOutcome::Complete) {
                        let loser_cand = if use_hedge {
                            primary_cand
                        } else {
                            &hedges[&slot]
                        };
                        if !clean(&loser) {
                            self.note_complete_stream(qid, loser_cand, &loser, start, effects);
                        }
                        self.defer_suppression(
                            qid,
                            slot,
                            &winner_cand.plan.server,
                            &loser_cand.plan.server,
                            start,
                            effects,
                        );
                    }
                    slowest = slowest.max(winner.response_time);
                    fragment_times.push((
                        winner_cand.plan.server.clone(),
                        winner.response_time.as_millis(),
                    ));
                    results.push(stream_result(winner));
                }
                Err((p, h)) => {
                    // No clean completion: pick the base stream the detector
                    // acts on — a complete-but-slow stream first, then an
                    // interrupted primary, then an interrupted hedge.
                    let is_complete = |s: &Option<WrapperStream>| matches!(s, Some(s) if s.outcome == StreamOutcome::Complete);
                    let p_complete = is_complete(&p);
                    let h_complete = is_complete(&h);
                    let (base_is_hedge, base, other) = match (p, h) {
                        (Some(pp), hh) if p_complete => (false, pp, hh),
                        (pp, Some(hh)) if h_complete => (true, hh, pp),
                        (Some(pp), hh) => (false, pp, hh),
                        (None, Some(hh)) => (true, hh, None),
                        (None, None) => {
                            let (_, e) = first_err.take().unwrap_or((
                                0,
                                QccError::Execution(format!("fragment {slot} produced no result")),
                            ));
                            return Err(e);
                        }
                    };
                    let base_cand = if base_is_hedge {
                        &hedges[&slot]
                    } else {
                        primary_cand
                    };
                    let other_cand = other.as_ref().map(|_| {
                        if base_is_hedge {
                            primary_cand
                        } else {
                            &hedges[&slot]
                        }
                    });
                    let (result, server) = self.resolve_stall(
                        qid,
                        slot,
                        decomposed,
                        primary_cand,
                        base_cand,
                        base,
                        other_cand.map(|c| &c.plan.server),
                        pool,
                        banned,
                        thresholds[slot],
                        start,
                        effects,
                    )?;
                    if let (Some(other), Some(other_cand)) = (&other, other_cand) {
                        if other.outcome == StreamOutcome::Complete {
                            // The unused replica completed in full: it is
                            // acknowledged like any complete loser, and its
                            // rows are suppressed at the merge.
                            self.note_complete_stream(qid, other_cand, other, start, effects);
                            self.defer_suppression(
                                qid,
                                slot,
                                &server,
                                &other_cand.plan.server,
                                start,
                                effects,
                            );
                        }
                    }
                    slowest = slowest.max(result.response_time);
                    fragment_times.push((server, result.response_time.as_millis()));
                    results.push(result);
                }
            }
        }
        clock.advance(slowest);
        self.merge_global(qid, decomposed, results, fragment_times, clock, effects)
    }

    /// Cancel a stalled (or interrupted) base stream and re-dispatch its
    /// remainder — the chunks past the cursor — to within-band replicas,
    /// chaining across further interrupts up to `reroute_limit` attempts.
    /// Returns the stitched slot result and the server that finished it.
    #[allow(clippy::too_many_arguments)]
    fn resolve_stall(
        &self,
        qid: QueryId,
        slot: usize,
        decomposed: &DecomposedQuery,
        primary_cand: &FragmentCandidate,
        base_cand: &FragmentCandidate,
        base: WrapperStream,
        exclude_also: Option<&ServerId>,
        pool: &[GlobalCandidate],
        banned: &BTreeSet<ServerId>,
        threshold_ms: f64,
        start: SimTime,
        effects: &mut Deferred,
    ) -> Result<(WrapperResult, ServerId)> {
        use qcc_common::obs::reroute_events as ev;
        let probe = SimDuration::from_millis(REROUTE_PROBE_MS);
        let base_server = base_cand.plan.server.clone();
        let mut excluded = banned.clone();
        excluded.insert(base_server.clone());
        if let Some(s) = exclude_also {
            excluded.insert(s.clone());
        }

        if base.outcome == StreamOutcome::Complete {
            let cancel_at = start + SimDuration::from_millis(threshold_ms);
            let tail_only = base.chunks.iter().all(|c| c.at <= cancel_at);
            if tail_only
                || self
                    .pick_reroute_replica(slot, decomposed, primary_cand, pool, &excluded)
                    .is_none()
            {
                // Every chunk beat the threshold (only the transfer tail
                // overran), or no within-band replica exists: cancelling
                // gains nothing, so the slow result is kept whole.
                self.obs.counter_inc(
                    "reroute_declined_total",
                    &[("reason", if tail_only { "tail" } else { "no_replica" })],
                );
                self.note_complete_stream(qid, base_cand, &base, start, effects);
                let server = base_cand.plan.server.clone();
                return Ok((stream_result(base), server));
            }
        }

        // The detection instant, the chunks the integrator keeps, and the
        // late chunks it must suppress.
        let (cancel_at, mut reason, kept, suppressed_late, mut fault_ms) = match base.outcome {
            StreamOutcome::Interrupted { at } => {
                // The source died mid-stream; every delivered chunk
                // precedes the transition, and detection costs one probe
                // interval.
                (
                    at + probe,
                    "interrupt",
                    base.chunks,
                    0usize,
                    Some(at.as_millis()),
                )
            }
            StreamOutcome::Complete => {
                let cancel_at = start + SimDuration::from_millis(threshold_ms);
                let (kept, late): (Vec<StreamChunk>, Vec<StreamChunk>) =
                    base.chunks.into_iter().partition(|c| c.at <= cancel_at);
                (cancel_at, "slow", kept, late.len(), None)
            }
        };
        let total_chunks = base.total_chunks;
        self.defer_stall_event(
            qid,
            slot,
            &base_server,
            reason,
            cancel_at,
            start,
            threshold_ms,
            effects,
        );
        if reason == "slow" {
            // A stall-cancel is soft reliability evidence; the interrupt
            // case was already recorded (at the transition instant) by the
            // middleware when the stream came back cut.
            self.middleware.observe_fragment_cancel(
                qid,
                primary_cand.fragment,
                &base_server,
                cancel_at,
                effects,
            );
        }
        if suppressed_late > 0 {
            self.obs.counter_add(
                "reroute_chunks_suppressed_total",
                &[],
                suppressed_late as u64,
            );
        }

        let mut kept = kept;
        let mut sources: Vec<(ServerId, usize, usize)> = Vec::new();
        if !kept.is_empty() {
            sources.push((base_server.clone(), 0, kept.len()));
        }
        let mut cursor = kept.len();
        let mut now = cancel_at;
        let mut last_failed = base_server.clone();
        for _attempt in 0..self.config.reroute_limit {
            let Some(alt) =
                self.pick_reroute_replica(slot, decomposed, primary_cand, pool, &excluded)
            else {
                break;
            };
            let alt_server = alt.plan.server.clone();
            // The remainder rides the slot's admission token — consult the
            // frozen capacity snapshot (inside the picker) but consume
            // nothing, and journal the reuse.
            if let Some(admission) = &self.admission {
                admission.note_reroute_reuse(&alt_server);
            }
            self.obs.counter_inc(
                "fragment_reroutes_total",
                &[("server", alt_server.as_str())],
            );
            if self.obs.is_enabled() {
                let obs = self.obs.clone();
                let (from, to) = (last_failed.to_string(), alt_server.to_string());
                let est = primary_cand.effective_cost.total();
                let frag_start_ms = start.as_millis();
                let fault = fault_ms;
                let finite_threshold = threshold_ms.is_finite().then_some(threshold_ms);
                effects.defer(move || {
                    let mut fields: Vec<(&'static str, qcc_common::FieldValue)> = vec![
                        ("query", qid.0.into()),
                        ("fragment", slot.into()),
                        ("from", from.into()),
                        ("to", to.into()),
                        ("cursor", cursor.into()),
                        ("total_chunks", total_chunks.into()),
                        ("reason", reason.into()),
                        ("est_ms", est.into()),
                        ("frag_start_ms", frag_start_ms.into()),
                    ];
                    if let Some(t) = finite_threshold {
                        fields.push(("threshold_ms", t.into()));
                    }
                    if let Some(f) = fault {
                        fields.push(("fault_ms", f.into()));
                    }
                    obs.event(now, ev::REROUTE_DISPATCH, fields);
                });
            }
            let Ok(wrapper) = self.wrapper(&alt_server) else {
                excluded.insert(alt_server.clone());
                last_failed = alt_server;
                continue;
            };
            match self.middleware.execute_fragment_stream(
                wrapper.as_ref(),
                qid,
                primary_cand.fragment,
                &alt.plan,
                now,
                cursor,
                effects,
            ) {
                Ok(stream) if stream.outcome == StreamOutcome::Complete => {
                    let end = now + stream.response_time;
                    let ms = stream.response_time.as_millis();
                    // Note: no `observe_fragment` for the remainder — a
                    // partial run is not a valid calibration sample for
                    // the whole-fragment estimate.
                    self.note_fragment(qid, &alt.plan, ms, now, effects);
                    self.obs
                        .counter_inc("fragment_resumes_total", &[("server", alt_server.as_str())]);
                    sources.push((alt_server.clone(), cursor, stream.next_cursor()));
                    if self.obs.is_enabled() {
                        let obs = self.obs.clone();
                        let server = alt_server.to_string();
                        let delivered = stream.delivered();
                        let provenance = sources
                            .iter()
                            .map(|(s, a, b)| format!("{s}:{a}..{b}"))
                            .collect::<Vec<_>>()
                            .join("+");
                        let resume_cursor = cursor;
                        effects.defer(move || {
                            obs.event(
                                end,
                                ev::FRAGMENT_RESUME,
                                vec![
                                    ("query", qid.0.into()),
                                    ("fragment", slot.into()),
                                    ("server", server.into()),
                                    ("cursor", resume_cursor.into()),
                                    ("chunks", delivered.into()),
                                    ("ms", ms.into()),
                                ],
                            );
                            obs.event(
                                end,
                                ev::FRAGMENT_STREAM,
                                vec![
                                    ("query", qid.0.into()),
                                    ("fragment", slot.into()),
                                    ("sources", provenance.into()),
                                    ("total_chunks", total_chunks.into()),
                                ],
                            );
                        });
                    }
                    kept.extend(stream.chunks);
                    let response_time = end.since(start);
                    let bytes = kept.iter().map(|c| c.batch.byte_size()).sum();
                    let batches = kept.into_iter().map(|c| c.batch).collect();
                    return Ok((
                        WrapperResult {
                            batches,
                            response_time,
                            bytes,
                        },
                        alt_server,
                    ));
                }
                Ok(stream) => {
                    // The replica died mid-remainder too: keep its chunks,
                    // advance the cursor, and chain the reroute.
                    let StreamOutcome::Interrupted { at } = stream.outcome else {
                        unreachable!("complete streams are handled above");
                    };
                    if stream.delivered() > 0 {
                        sources.push((alt_server.clone(), cursor, stream.next_cursor()));
                    }
                    cursor = stream.next_cursor();
                    kept.extend(stream.chunks);
                    reason = "interrupt";
                    fault_ms = Some(at.as_millis());
                    now = at + probe;
                    self.defer_stall_event(
                        qid,
                        slot,
                        &alt_server,
                        "interrupt",
                        now,
                        start,
                        threshold_ms,
                        effects,
                    );
                    excluded.insert(alt_server.clone());
                    last_failed = alt_server;
                }
                Err(QccError::ServerUnavailable(_)) | Err(QccError::ServerFault { .. }) => {
                    // Dead on arrival (recorded by the middleware): try
                    // the next replica from the detection instant.
                    excluded.insert(alt_server.clone());
                    last_failed = alt_server;
                }
                Err(e) => return Err(e),
            }
        }
        // Out of replicas or attempts: surface the failure to the
        // whole-query retry loop, which bans the server and re-plans.
        self.obs.counter_inc("reroute_exhausted_total", &[]);
        Err(QccError::ServerUnavailable(last_failed))
    }

    /// The replica a cancelled fragment's remainder re-dispatches to: the
    /// cheapest alternate plan for the same slot, on a different unbanned
    /// server with token capacity, with the *same plan signature and SQL*
    /// (so the cursor protocol's chunk schedule lines up), within
    /// `REROUTE_BAND ×` the primary's estimate; when a replica catalog is
    /// attached the alternate must also be a registered sibling on every
    /// nickname the fragment scans (fail open for unregistered fragments,
    /// as compile does). Ties break by server id.
    fn pick_reroute_replica(
        &self,
        slot: usize,
        decomposed: &DecomposedQuery,
        primary: &FragmentCandidate,
        pool: &[GlobalCandidate],
        excluded: &BTreeSet<ServerId>,
    ) -> Option<FragmentCandidate> {
        let est = primary.effective_cost.total();
        let limit = if est > 0.0 {
            est * REROUTE_BAND
        } else {
            f64::INFINITY
        };
        let empty: &[String] = &[];
        let nicknames = decomposed
            .fragments
            .get(slot)
            .map(|f| f.nicknames.as_slice())
            .unwrap_or(empty);
        let mut best: Option<&FragmentCandidate> = None;
        for cand in pool {
            let Some(alt) = cand.fragments.get(slot) else {
                continue;
            };
            if excluded.contains(&alt.plan.server)
                || alt.plan.signature != primary.plan.signature
                || alt.plan.sql != primary.plan.sql
                || alt.effective_cost.total() > limit
            {
                continue;
            }
            if let Some(admission) = &self.admission {
                if admission.capacity(&alt.plan.server) == 0 {
                    continue;
                }
            }
            if let Some(catalog) = &self.catalog {
                let sibling_ok = nicknames.iter().all(|nn| {
                    catalog.replicas(nn).is_empty()
                        || catalog
                            .siblings(nn, &primary.plan.server)
                            .contains(&alt.plan.server)
                });
                if !sibling_ok {
                    continue;
                }
            }
            let better = match best {
                None => true,
                Some(b) => match alt
                    .effective_cost
                    .total()
                    .total_cmp(&b.effective_cost.total())
                {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => alt.plan.server < b.plan.server,
                },
            };
            if better {
                best = Some(alt);
            }
        }
        best.cloned()
    }

    /// Acknowledge a fully-completed stream: count it, journal the
    /// fragment, and report it to the middleware — the only place fragment
    /// successes feed reliability and calibration.
    fn note_complete_stream(
        &self,
        qid: QueryId,
        cand: &FragmentCandidate,
        stream: &WrapperStream,
        start: SimTime,
        effects: &mut Deferred,
    ) {
        let ms = stream.response_time.as_millis();
        self.note_fragment(qid, &cand.plan, ms, start, effects);
        self.middleware
            .observe_fragment(qid, cand.fragment, &cand.plan, ms, start, effects);
    }

    /// Count a fragment execution that delivered its rows and journal its
    /// `fragment` event, stamped `at` (the dispatch instant).
    fn note_fragment(
        &self,
        qid: QueryId,
        plan: &FragmentPlan,
        ms: f64,
        at: SimTime,
        effects: &mut Deferred,
    ) {
        self.obs
            .counter_inc("fragments_total", &[("server", plan.server.as_str())]);
        if self.obs.is_enabled() {
            let obs = self.obs.clone();
            let server = plan.server.to_string();
            let signature = plan.signature.clone();
            effects.defer(move || {
                obs.event(
                    at,
                    "fragment",
                    vec![
                        ("query", qid.0.into()),
                        ("server", server.into()),
                        ("signature", signature.into()),
                        ("ms", ms.into()),
                    ],
                );
            });
        }
    }

    /// Journal a stall-detector cancellation.
    #[allow(clippy::too_many_arguments)]
    fn defer_stall_event(
        &self,
        qid: QueryId,
        slot: usize,
        server: &ServerId,
        reason: &'static str,
        cancel_at: SimTime,
        start: SimTime,
        threshold_ms: f64,
        effects: &mut Deferred,
    ) {
        self.obs.counter_inc(
            "fragment_stalls_total",
            &[("server", server.as_str()), ("reason", reason)],
        );
        if self.obs.is_enabled() {
            let obs = self.obs.clone();
            let server = server.to_string();
            let elapsed_ms = cancel_at.since(start).as_millis();
            let finite_threshold = threshold_ms.is_finite().then_some(threshold_ms);
            effects.defer(move || {
                let mut fields: Vec<(&'static str, qcc_common::FieldValue)> = vec![
                    ("query", qid.0.into()),
                    ("fragment", slot.into()),
                    ("server", server.into()),
                    ("reason", reason.into()),
                    ("elapsed_ms", elapsed_ms.into()),
                ];
                if let Some(t) = finite_threshold {
                    fields.push(("threshold_ms", t.into()));
                }
                obs.event(
                    cancel_at,
                    qcc_common::obs::reroute_events::FRAGMENT_STALL,
                    fields,
                );
            });
        }
    }

    /// Count and journal a suppressed duplicate slot result.
    fn defer_suppression(
        &self,
        qid: QueryId,
        slot: usize,
        winner: &ServerId,
        suppressed: &ServerId,
        start: SimTime,
        effects: &mut Deferred,
    ) {
        self.obs
            .counter_inc("hedge_duplicates_suppressed_total", &[]);
        if self.obs.is_enabled() {
            let obs = self.obs.clone();
            let winner = winner.to_string();
            let suppressed = suppressed.to_string();
            effects.defer(move || {
                obs.event(
                    start,
                    "hedge_result",
                    vec![
                        ("query", qid.0.into()),
                        ("fragment", slot.into()),
                        ("winner", winner.into()),
                        ("suppressed", suppressed.into()),
                    ],
                );
            });
        }
    }
}

/// A completed stream's chunks as one fragment result.
fn stream_result(stream: WrapperStream) -> WrapperResult {
    WrapperResult {
        bytes: stream.bytes,
        response_time: stream.response_time,
        batches: stream.chunks.into_iter().map(|c| c.batch).collect(),
    }
}

/// A wrapper whose cursor streams are never interruptible — the dispatch
/// view without a stall detector, where a crash that opens mid-service
/// goes unnoticed until the next arrival-time liveness check.
#[derive(Debug)]
struct Uninterruptible<'a>(&'a dyn Wrapper);

impl Wrapper for Uninterruptible<'_> {
    fn server_id(&self) -> &ServerId {
        self.0.server_id()
    }

    fn kind(&self) -> WrapperKind {
        self.0.kind()
    }

    fn tables(&self) -> Vec<String> {
        self.0.tables()
    }

    fn plan(&self, sql: &str, at: SimTime) -> Result<(Vec<FragmentPlan>, SimDuration)> {
        self.0.plan(sql, at)
    }

    fn execute(&self, plan: &FragmentPlan, at: SimTime) -> Result<WrapperResult> {
        self.0.execute(plan, at)
    }

    fn execute_stream(
        &self,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        _interruptible: bool,
    ) -> Result<WrapperStream> {
        self.0.execute_stream(plan, at, cursor, false)
    }

    fn ping(&self, at: SimTime) -> Result<SimDuration> {
        self.0.ping(at)
    }
}

/// Comma-joined server names (sets iterate sorted, so this is stable).
fn join_servers(set: &BTreeSet<ServerId>) -> String {
    set.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(",")
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("nicknames", &self.nicknames.names())
            .field("wrappers", &self.wrappers.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::PassthroughMiddleware;
    use qcc_common::{Column, DataType, FieldValue, Schema, SimTime, Value};
    use qcc_netsim::{Link, Network};
    use qcc_remote::{RemoteServer, ServerProfile};
    use qcc_wrapper::RelationalWrapper;

    /// Two servers: S1 hosts accounts+branches, S2 hosts a replica of
    /// branches only.
    fn setup() -> Federation {
        setup_with_servers().0
    }

    /// [`setup`], also handing back the two servers (S1, S2).
    fn setup_with_servers() -> (Federation, [Arc<RemoteServer>; 2]) {
        let accounts_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("balance", DataType::Float),
            Column::new("branch_id", DataType::Int),
        ]);
        let branches_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("city", DataType::Str),
        ]);

        let mut accounts = Table::new("accounts", accounts_schema.clone());
        for i in 0..500i64 {
            accounts
                .insert(Row::new(vec![
                    Value::Int(i),
                    Value::Float((i % 100) as f64),
                    Value::Int(i % 10),
                ]))
                .unwrap();
        }
        let mut branches = Table::new("branches", branches_schema.clone());
        for i in 0..10i64 {
            branches
                .insert(Row::new(vec![
                    Value::Int(i),
                    Value::Str(format!("city{i}")),
                ]))
                .unwrap();
        }

        let mut cat1 = Catalog::new();
        cat1.register(accounts.clone());
        cat1.register(branches.clone());
        let mut cat2 = Catalog::new();
        cat2.register(branches.clone());

        let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
        let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);

        let mut net = Network::new();
        net.add_link(ServerId::new("S1"), Link::lan());
        net.add_link(ServerId::new("S2"), Link::lan());
        let net = Arc::new(net);

        let mut nicknames = NicknameCatalog::new();
        nicknames.define("accounts", accounts_schema);
        nicknames.define("branches", branches_schema);
        nicknames
            .add_source("accounts", ServerId::new("S1"), "accounts")
            .unwrap();
        nicknames
            .add_source("branches", ServerId::new("S1"), "branches")
            .unwrap();
        nicknames
            .add_source("branches", ServerId::new("S2"), "branches")
            .unwrap();

        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            Arc::new(PassthroughMiddleware::default()),
            FederationConfig::default(),
        );
        fed.add_wrapper(Arc::new(RelationalWrapper::new(
            Arc::clone(&s1),
            Arc::clone(&net),
        )));
        fed.add_wrapper(Arc::new(RelationalWrapper::new(Arc::clone(&s2), net)));
        (fed, [s1, s2])
    }

    #[test]
    fn single_source_query_round_trips() {
        let fed = setup();
        let out = fed
            .submit("SELECT COUNT(*) FROM accounts WHERE balance > 50.0")
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(0), &Value::Int(245));
        assert!(out.response_ms > 0.0);
        assert_eq!(fed.patroller().len(), 1);
    }

    #[test]
    fn colocated_join_pushes_to_s1() {
        let fed = setup();
        let out = fed
            .submit(
                "SELECT b.city, COUNT(*) AS n FROM accounts a JOIN branches b \
                 ON a.branch_id = b.id GROUP BY b.city ORDER BY b.city",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 10);
        assert_eq!(out.rows[0].get(1), &Value::Int(50));
        assert!(out.servers.contains(&ServerId::new("S1")));
        assert_eq!(out.servers.len(), 1, "join pushed to the coherent host");
    }

    #[test]
    fn replica_choice_exists_for_replicated_nickname() {
        let fed = setup();
        let (_, candidates) = fed.explain_global("SELECT COUNT(*) FROM branches").unwrap();
        let servers: BTreeSet<String> = candidates
            .iter()
            .map(|c| c.server_set().iter().next().unwrap().to_string())
            .collect();
        assert!(servers.contains("S1") && servers.contains("S2"));
    }

    #[test]
    fn explain_table_records_winner() {
        let fed = setup();
        fed.submit("SELECT COUNT(*) FROM branches").unwrap();
        assert_eq!(fed.explain_table().len(), 1);
    }

    #[test]
    fn failure_reroutes_to_replica() {
        // S1 going down *after compile time* is hard to time here; instead
        // take it down for the whole run — compile skips it, S2 serves.
        let (fed, s1, _) = replica_world(10, 0.0);
        s1.availability()
            .add_outage(SimTime::ZERO, SimTime::from_millis(1e12));
        let out = fed.submit("SELECT COUNT(*) FROM branches").unwrap();
        assert_eq!(out.rows[0].get(0), &Value::Int(10));
        assert!(out.servers.contains(&ServerId::new("S2")));
    }

    /// Two servers, each holding a full replica of a 5000-row `branches`
    /// table (multi-chunk at BATCH_ROWS=1024), journal enabled, stall
    /// detector at the given `stall_factor`. Returns the federation, S1
    /// and S2.
    fn streaming_fixture(stall_factor: f64) -> (Federation, Arc<RemoteServer>, Arc<RemoteServer>) {
        replica_world(5000, stall_factor)
    }

    /// [`streaming_fixture`] with a `rows`-row table.
    fn replica_world(
        rows: i64,
        stall_factor: f64,
    ) -> (Federation, Arc<RemoteServer>, Arc<RemoteServer>) {
        let branches_schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        let mut branches = Table::new("branches", branches_schema.clone());
        for i in 0..rows {
            branches.insert(Row::new(vec![Value::Int(i)])).unwrap();
        }
        let mut cat1 = Catalog::new();
        cat1.register(branches.clone());
        let mut cat2 = Catalog::new();
        cat2.register(branches);
        let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
        let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);
        let mut net = Network::new();
        net.add_link(ServerId::new("S1"), Link::lan());
        net.add_link(ServerId::new("S2"), Link::lan());
        let net = Arc::new(net);
        let mut nicknames = NicknameCatalog::new();
        nicknames.define("branches", branches_schema);
        nicknames
            .add_source("branches", ServerId::new("S1"), "branches")
            .unwrap();
        nicknames
            .add_source("branches", ServerId::new("S2"), "branches")
            .unwrap();
        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            Arc::new(PassthroughMiddleware::default()),
            FederationConfig {
                stall_factor,
                ..FederationConfig::default()
            },
        );
        fed.set_obs(Obs::new());
        fed.add_wrapper(Arc::new(RelationalWrapper::new(
            Arc::clone(&s1),
            Arc::clone(&net),
        )));
        fed.add_wrapper(Arc::new(RelationalWrapper::new(Arc::clone(&s2), net)));
        (fed, s1, s2)
    }

    /// Attach an admission controller whose slack factor is so large that
    /// every fragment of a finite-deadline query counts as pressured, so a
    /// replicated nickname hedges to its second host.
    fn attach_hedging(fed: &mut Federation) {
        let admission = Arc::new(AdmissionController::new(qcc_admission::AdmissionConfig {
            exec_deadline_ms: 50.0,
            hedge_slack_factor: 1_000_000.0,
            hedge_band: 10.0,
            ..Default::default()
        }));
        admission.set_capacity(&ServerId::new("S1"), 2, SimTime::ZERO);
        admission.set_capacity(&ServerId::new("S2"), 2, SimTime::ZERO);
        fed.set_admission(admission);
    }

    /// The `server` field of every `fragment` event journalled for query
    /// `qid`, in journal order.
    fn fragment_servers(fed: &Federation, qid: QueryId) -> Vec<String> {
        fed.obs()
            .events_of("fragment")
            .iter()
            .filter(|e| e.field("query") == Some(&FieldValue::U64(qid.0)))
            .filter_map(|e| e.str_field("server").map(str::to_owned))
            .collect()
    }

    fn sorted_ids(rows: &[Row]) -> Vec<i64> {
        let mut ids: Vec<i64> = rows
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                v => panic!("unexpected value {v:?}"),
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn stall_detector_on_matches_detector_off_on_a_clean_path() {
        // With no stalls and no faults the detector never fires, so a run
        // with it on must reproduce the run without it bit for bit (same
        // rows, same floats).
        let (off, _, _) = streaming_fixture(0.0);
        let (on, _, _) = streaming_fixture(1e6);
        let a = off.submit("SELECT id FROM branches").unwrap();
        let b = on.submit("SELECT id FROM branches").unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.response_ms.to_bits(), b.response_ms.to_bits());
        assert_eq!(a.fragment_times, b.fragment_times);
    }

    /// Submit a full scan on a [`streaming_fixture`] world whose serving
    /// replica S1 crashes 30% of the way into the fragment, timed by a
    /// dry run on a healthy twin (all virtual time, fully deterministic).
    fn crash_mid_fragment(stall_factor: f64) -> (Federation, QueryOutcome) {
        let (dry, _, _) = streaming_fixture(stall_factor);
        dry.submit("SELECT id FROM branches").unwrap();
        let frag = &dry.obs().events_of("fragment")[0];
        let t0 = frag.at.as_millis();
        let Some(FieldValue::F64(ms)) = frag.field("ms") else {
            panic!("fragment event lacks ms");
        };
        let (fed, s1, _) = streaming_fixture(stall_factor);
        s1.availability().add_outage(
            SimTime::from_millis(t0 + 0.3 * ms),
            SimTime::from_millis(1e12),
        );
        let out = fed.submit("SELECT id FROM branches").unwrap();
        (fed, out)
    }

    #[test]
    fn midquery_interrupt_reroutes_remainder_without_duplicates() {
        // The stream is cut mid-service and the remainder must resume on
        // the sibling at the cursor.
        let (fed, out) = crash_mid_fragment(1e6);
        assert_eq!(
            sorted_ids(&out.rows),
            (0..5000).collect::<Vec<_>>(),
            "every row exactly once: no duplicates, no loss"
        );
        let obs = fed.obs();
        assert_eq!(obs.events_of("fragment_stall").len(), 1);
        let stall = &obs.events_of("fragment_stall")[0];
        assert_eq!(stall.str_field("reason"), Some("interrupt"));
        assert_eq!(obs.events_of("reroute_dispatch").len(), 1);
        assert_eq!(obs.events_of("fragment_resume").len(), 1);
        let stream = &obs.events_of("fragment_stream")[0];
        let sources = stream.str_field("sources").unwrap();
        assert!(
            sources.starts_with("S1:0..") && sources.contains("+S2:"),
            "stitched provenance, got {sources}"
        );
        assert_eq!(out.fragment_times[0].0, ServerId::new("S2"));
        assert_eq!(
            obs.counter_value("fragment_reroutes_total", &[("server", "S2")]),
            1
        );
        // The interrupt was detected mid-query, not burned as a whole-query
        // retry.
        assert_eq!(obs.counter_value("retries_total", &[]), 0);
    }

    #[test]
    fn without_detector_a_midquery_crash_goes_unnoticed() {
        // The same outage with no stall detector: the cursor-0 stream is
        // not interruptible, so S1 (up when the request arrived) serves
        // every row and nothing is rerouted.
        let (fed, out) = crash_mid_fragment(0.0);
        assert_eq!(sorted_ids(&out.rows), (0..5000).collect::<Vec<_>>());
        assert_eq!(out.fragment_times[0].0, ServerId::new("S1"));
        let obs = fed.obs();
        assert!(obs.events_of("fragment_stall").is_empty());
        assert!(obs.events_of("reroute_dispatch").is_empty());
    }

    #[test]
    fn suppressed_duplicate_in_a_stalled_slot_is_acknowledged() {
        // Both replicas are crushed by background load, so the primary and
        // its hedge both complete past the stall threshold. The detector
        // keeps the primary whole (no third replica to reroute to) and
        // suppresses the hedge's full duplicate — which, like any complete
        // loser, must still get its `fragment` acknowledgement.
        let (mut fed, s1, s2) = streaming_fixture(3.0);
        attach_hedging(&mut fed);
        s1.load().set_background(LoadProfile::Constant(0.95));
        s2.load().set_background(LoadProfile::Constant(0.95));
        let out = fed.submit("SELECT id FROM branches").unwrap();
        assert_eq!(sorted_ids(&out.rows), (0..5000).collect::<Vec<_>>());
        let obs = fed.obs();
        assert_eq!(obs.events_of("hedge").len(), 1);
        assert_eq!(
            obs.counter_value("reroute_declined_total", &[("reason", "no_replica")]),
            1,
            "the detector kept the slow primary whole"
        );
        let results = obs.events_of("hedge_result");
        assert_eq!(results.len(), 1, "the slow duplicate is suppressed");
        let acknowledged = fragment_servers(&fed, out.id);
        for result in &results {
            let suppressed = result.str_field("suppressed").unwrap();
            assert!(
                acknowledged.iter().any(|s| s == suppressed),
                "suppressed {suppressed} has no fragment event (got {acknowledged:?})"
            );
        }
        assert_eq!(acknowledged.len(), 2, "primary and duplicate, once each");
    }

    #[test]
    fn stalled_fragment_cancels_and_reroutes_to_fast_replica() {
        // S1 is crushed by background load (the estimate is load-blind,
        // so its stream overruns stall_factor × estimate); S2 idles. The
        // detector must cancel S1 at the threshold and finish on S2.
        let (fed, s1, _) = streaming_fixture(3.0);
        s1.load().set_background(LoadProfile::Constant(0.95));
        let out = fed.submit("SELECT id FROM branches").unwrap();
        assert_eq!(sorted_ids(&out.rows), (0..5000).collect::<Vec<_>>());
        let obs = fed.obs();
        let stall = &obs.events_of("fragment_stall")[0];
        assert_eq!(stall.str_field("reason"), Some("slow"));
        assert_eq!(obs.events_of("reroute_dispatch").len(), 1);
        assert_eq!(out.fragment_times[0].0, ServerId::new("S2"));
        // A slow-cancel feeds the reliability penalty hook, not a retry.
        assert_eq!(obs.counter_value("retries_total", &[]), 0);
    }

    #[test]
    fn no_viable_plan_when_all_sources_down() {
        let branches_schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        let mut cat = Catalog::new();
        cat.register(Table::new("branches", branches_schema.clone()));
        let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat);
        s1.availability()
            .add_outage(SimTime::ZERO, SimTime::from_millis(1e12));
        let mut net = Network::new();
        net.add_link(ServerId::new("S1"), Link::lan());
        let mut nicknames = NicknameCatalog::new();
        nicknames.define("branches", branches_schema);
        nicknames
            .add_source("branches", ServerId::new("S1"), "branches")
            .unwrap();
        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            Arc::new(PassthroughMiddleware::default()),
            FederationConfig::default(),
        );
        fed.add_wrapper(Arc::new(RelationalWrapper::new(s1, Arc::new(net))));
        let err = fed.submit("SELECT COUNT(*) FROM branches").unwrap_err();
        assert!(matches!(err, QccError::NoViablePlan(_)), "{err}");
        assert_eq!(
            fed.patroller().log()[0].status,
            crate::patroller::QueryStatus::Failed(err.to_string())
        );
    }

    #[test]
    fn clock_advances_with_execution() {
        let fed = setup();
        let before = fed.clock().now();
        fed.submit("SELECT * FROM accounts WHERE id < 100").unwrap();
        assert!(fed.clock().now() > before);
    }

    #[test]
    fn cross_source_merge_join_correct() {
        // Force a split: accounts only on S1, branches only on S2.
        let accounts_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("branch_id", DataType::Int),
        ]);
        let branches_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("city", DataType::Str),
        ]);
        let mut accounts = Table::new("accounts", accounts_schema.clone());
        for i in 0..100i64 {
            accounts
                .insert(Row::new(vec![Value::Int(i), Value::Int(i % 5)]))
                .unwrap();
        }
        let mut branches = Table::new("branches", branches_schema.clone());
        for i in 0..5i64 {
            branches
                .insert(Row::new(vec![Value::Int(i), Value::Str(format!("c{i}"))]))
                .unwrap();
        }
        let mut cat1 = Catalog::new();
        cat1.register(accounts);
        let mut cat2 = Catalog::new();
        cat2.register(branches);
        let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
        let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);
        let mut net = Network::new();
        net.add_link(ServerId::new("S1"), Link::lan());
        net.add_link(ServerId::new("S2"), Link::lan());
        let net = Arc::new(net);
        let mut nicknames = NicknameCatalog::new();
        nicknames.define("accounts", accounts_schema);
        nicknames.define("branches", branches_schema);
        nicknames
            .add_source("accounts", ServerId::new("S1"), "accounts")
            .unwrap();
        nicknames
            .add_source("branches", ServerId::new("S2"), "branches")
            .unwrap();
        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            Arc::new(PassthroughMiddleware::default()),
            FederationConfig::default(),
        );
        fed.set_obs(Obs::new());
        fed.add_wrapper(Arc::new(RelationalWrapper::new(s1, Arc::clone(&net))));
        fed.add_wrapper(Arc::new(RelationalWrapper::new(s2, net)));

        let out = fed
            .submit(
                "SELECT b.city, COUNT(*) AS n FROM accounts a JOIN branches b \
                 ON a.branch_id = b.id GROUP BY b.city ORDER BY b.city",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 5);
        for r in &out.rows {
            assert_eq!(r.get(1), &Value::Int(20));
        }
        assert_eq!(out.servers.len(), 2, "both sources touched");
        assert_eq!(out.fragment_times.len(), 2);
        // A cross-source split is the one shape that exercises the local
        // merge, so this is where the "merge" journal event is pinned.
        let merges = fed.obs().events_of("merge");
        assert_eq!(merges.len(), 1);
        assert!(merges[0].field("ms").is_some());
        assert_eq!(fed.obs().events_of("fragment").len(), 2);
    }

    #[test]
    fn pressured_fragment_hedges_to_replica_and_suppresses_duplicate() {
        let mut fed = setup();
        fed.set_obs(Obs::new());
        attach_hedging(&mut fed);

        let out = fed.submit("SELECT COUNT(*) FROM branches").unwrap();
        assert_eq!(
            out.rows[0].get(0),
            &Value::Int(10),
            "one merged result; the losing replica's rows are suppressed"
        );
        let hedges = fed.obs().events_of("hedge");
        assert_eq!(hedges.len(), 1, "single-fragment plan hedges exactly once");
        assert!(hedges[0].field("primary").is_some());
        assert_ne!(
            hedges[0].field("primary"),
            hedges[0].field("hedge"),
            "the hedge replica must sit on a different server"
        );
        let results = fed.obs().events_of("hedge_result");
        assert_eq!(results.len(), 1);
        assert!(results[0].field("winner").is_some());
        assert_eq!(
            fed.obs()
                .counter_value("hedge_duplicates_suppressed_total", &[]),
            1,
            "healthy world: both replicas answer, exactly one duplicate suppressed"
        );

        // Second case, same world: crush the primary's server with load so
        // the hedge wins. Both replicas still complete, and both are
        // acknowledged in task order — the primary's `fragment` event
        // precedes the hedge's, whichever won.
        let primary = hedges[0].str_field("primary").unwrap().to_owned();
        let hedge = hedges[0].str_field("hedge").unwrap().to_owned();
        let (mut fed, servers) = setup_with_servers();
        fed.set_obs(Obs::new());
        attach_hedging(&mut fed);
        let loaded = servers.iter().find(|s| s.id().as_str() == primary).unwrap();
        loaded.load().set_background(LoadProfile::Constant(0.95));
        let out = fed.submit("SELECT COUNT(*) FROM branches").unwrap();
        assert_eq!(out.rows[0].get(0), &Value::Int(10));
        let results = fed.obs().events_of("hedge_result");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].str_field("winner"), Some(hedge.as_str()));
        assert_eq!(results[0].str_field("suppressed"), Some(primary.as_str()));
        assert_eq!(out.fragment_times[0].0.as_str(), hedge);
        assert_eq!(fed.obs().counter_value("hedge_wins_total", &[]), 1);
        assert_eq!(fragment_servers(&fed, out.id), vec![primary, hedge]);
    }
}
