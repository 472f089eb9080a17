//! The fragment/replica catalog: replication-aware source selection for
//! federations in the hundreds of servers.
//!
//! The paper's experiments route over three servers, where enumerating
//! every (fragment, server) pair at compile time is free. At 100–500
//! servers the EXPLAIN fan-out itself becomes the bottleneck: a query
//! touching two fully-replicated fragments would dispatch 2 × N EXPLAIN
//! probes before any routing decision. This crate inserts a catalog
//! between decomposition and compilation that knows, for every table
//! fragment, its replica set — `(server, cost hint, freshness epoch)` —
//! and prunes that set *before* the fan-out:
//!
//! 1. **Dominance pruning**: a replica that is strictly worse on both
//!    calibrated cost and reliability band than a surviving sibling can
//!    never be chosen by the cost-based optimizer, so consulting it is
//!    pure waste (the replicated-fragment pruning of Montoya et al.).
//! 2. **Replication-bound capping**: of the survivors, only the best
//!    `bound` replicas per fragment set (ordered by calibrated cost,
//!    then band, then candidate position) are consulted. Because the
//!    ordering is consistent with the federation's own effective-cost
//!    ordering, the eventual winner always survives the cap — pruning
//!    changes how many servers are consulted, never which plan wins.
//!
//! Selection is **fail-open**: candidates the catalog has no registration
//! for are passed through untouched, so a world that never registers
//! fragments behaves exactly as if the catalog were absent.
//!
//! Registration and epoch bumps happen on virtual time and are journaled
//! (`catalog_register`, `catalog_deregister`, `catalog_epoch`); epochs
//! let churn (crash/restore cycles) invalidate only the affected
//! fragments' cached plans instead of a server's whole cache.
//!
//! Determinism: all state lives in ordered maps, selection is a pure
//! function of (registrations, health, candidate order), and every
//! mutation is coordinator-side. The catalog never reads a clock — time
//! is always injected by the caller.

use parking_lot::Mutex;
use qcc_common::{Obs, ServerId, SimTime};
use std::collections::BTreeMap;

/// Reliability band of a healthy, error-free replica.
pub const HEALTHY_BAND: u8 = 0;

/// Reliability band of a replica believed down (worst possible).
pub const DOWN_BAND: u8 = u8::MAX;

/// Routing health of one server, as pushed by the calibration layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Health {
    /// Multiplier on the server's base cost hints (calibration ×
    /// reliability inflation; infinite while the server is down).
    pub cost_factor: f64,
    /// Discrete reliability band: [`HEALTHY_BAND`] for a clean history,
    /// higher as recent errors accumulate, [`DOWN_BAND`] while down.
    pub band: u8,
}

impl Default for Health {
    fn default() -> Self {
        Health {
            cost_factor: 1.0,
            band: HEALTHY_BAND,
        }
    }
}

/// One replica of a fragment, as reported by [`ReplicaCatalog::replicas`].
#[derive(Debug, Clone, PartialEq)]
pub struct Replica {
    /// The hosting server.
    pub server: ServerId,
    /// Base per-fragment cost hint (typically 1 / server speed); scaled
    /// by the server's [`Health::cost_factor`] at selection time.
    pub cost_hint: f64,
    /// Freshness epoch: bumped whenever the host's availability churns,
    /// so consumers can detect that plans compiled against an older
    /// epoch are stale.
    pub epoch: u64,
    /// Virtual time of registration.
    pub registered_at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct ReplicaMeta {
    cost_hint: f64,
    epoch: u64,
    registered_at: SimTime,
}

#[derive(Debug, Default)]
struct State {
    /// fragment (table nickname) → hosting server → replica metadata.
    fragments: BTreeMap<String, BTreeMap<ServerId, ReplicaMeta>>,
    /// Last pushed health per server (absent = healthy default).
    health: BTreeMap<ServerId, Health>,
}

/// The deterministic fragment/replica catalog.
#[derive(Debug)]
pub struct ReplicaCatalog {
    state: Mutex<State>,
    /// Replication bound: the maximum number of replicas consulted per
    /// fragment set (0 = unbounded; dominance pruning still applies).
    bound: usize,
    obs: Obs,
}

impl ReplicaCatalog {
    /// Empty catalog with the given replication bound (0 = unbounded).
    pub fn new(bound: usize) -> Self {
        ReplicaCatalog {
            state: Mutex::new(State::default()),
            bound,
            obs: Obs::off(),
        }
    }

    /// Attach an observability handle (registration/epoch journal events).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The replication bound (0 = unbounded).
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Register a replica of `fragment` on `server` at virtual time `at`.
    /// Re-registering updates the cost hint in place (no duplicate entry,
    /// no second journal event). Coordinator-side only.
    pub fn register(&self, fragment: &str, server: ServerId, cost_hint: f64, at: SimTime) {
        let fragment = fragment.to_ascii_lowercase();
        let fresh = {
            let mut st = self.state.lock();
            let per_fragment = st.fragments.entry(fragment.clone()).or_default();
            match per_fragment.get_mut(&server) {
                Some(meta) => {
                    meta.cost_hint = cost_hint;
                    false
                }
                None => {
                    per_fragment.insert(
                        server.clone(),
                        ReplicaMeta {
                            cost_hint,
                            epoch: 0,
                            registered_at: at,
                        },
                    );
                    true
                }
            }
        };
        if fresh {
            self.obs.counter_inc("catalog_replicas_total", &[]);
            self.obs.event(
                at,
                "catalog_register",
                vec![
                    ("fragment", fragment.into()),
                    ("server", server.as_str().into()),
                    ("cost_hint", cost_hint.into()),
                ],
            );
        }
    }

    /// Remove the replica of `fragment` on `server`. Returns whether a
    /// registration was actually removed. Coordinator-side only.
    pub fn deregister(&self, fragment: &str, server: &ServerId, at: SimTime) -> bool {
        let fragment = fragment.to_ascii_lowercase();
        let removed = {
            let mut st = self.state.lock();
            match st.fragments.get_mut(&fragment) {
                Some(per_fragment) => {
                    let removed = per_fragment.remove(server).is_some();
                    if per_fragment.is_empty() {
                        st.fragments.remove(&fragment);
                    }
                    removed
                }
                None => false,
            }
        };
        if removed {
            self.obs.event(
                at,
                "catalog_deregister",
                vec![
                    ("fragment", fragment.into()),
                    ("server", server.as_str().into()),
                ],
            );
        }
        removed
    }

    /// Push routing health for `server` (calibration × reliability). No
    /// journal event — this is the hot path, refreshed between batches.
    pub fn update_health(&self, server: &ServerId, cost_factor: f64, band: u8) {
        self.state
            .lock()
            .health
            .insert(server.clone(), Health { cost_factor, band });
    }

    /// The last pushed health of `server` (healthy default if never set).
    pub fn health(&self, server: &ServerId) -> Health {
        self.state
            .lock()
            .health
            .get(server)
            .copied()
            .unwrap_or_default()
    }

    /// Bump the freshness epoch of every fragment replicated on `server`
    /// (availability churn: the server crashed or restored). Returns the
    /// affected fragment names, journaling one `catalog_epoch` event.
    /// Coordinator-side only.
    pub fn bump_epoch(&self, server: &ServerId, at: SimTime, reason: &'static str) -> Vec<String> {
        let affected: Vec<String> = {
            let mut st = self.state.lock();
            let mut affected = Vec::new();
            for (fragment, per_fragment) in st.fragments.iter_mut() {
                if let Some(meta) = per_fragment.get_mut(server) {
                    meta.epoch += 1;
                    affected.push(fragment.clone());
                }
            }
            affected
        };
        if !affected.is_empty() {
            self.obs
                .counter_inc("catalog_epoch_bumps_total", &[("server", server.as_str())]);
            self.obs.event(
                at,
                "catalog_epoch",
                vec![
                    ("server", server.as_str().into()),
                    ("reason", reason.into()),
                    ("fragments", affected.len().into()),
                ],
            );
        }
        affected
    }

    /// Fragments hosted on `server`, sorted by name.
    pub fn fragments_on(&self, server: &ServerId) -> Vec<String> {
        let st = self.state.lock();
        st.fragments
            .iter()
            .filter(|(_, per_fragment)| per_fragment.contains_key(server))
            .map(|(fragment, _)| fragment.clone())
            .collect()
    }

    /// The replica set of `fragment`, sorted by server id.
    pub fn replicas(&self, fragment: &str) -> Vec<Replica> {
        let fragment = fragment.to_ascii_lowercase();
        let st = self.state.lock();
        st.fragments
            .get(&fragment)
            .map(|per_fragment| {
                per_fragment
                    .iter()
                    .map(|(server, meta)| Replica {
                        server: server.clone(),
                        cost_hint: meta.cost_hint,
                        epoch: meta.epoch,
                        registered_at: meta.registered_at,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Replica siblings of `fragment` other than `server` (the
    /// alternates a hedge or reroute can target), sorted by server id.
    pub fn siblings(&self, fragment: &str, server: &ServerId) -> Vec<ServerId> {
        self.replicas(fragment)
            .into_iter()
            .map(|r| r.server)
            .filter(|s| s != server)
            .collect()
    }

    /// Current freshness epoch of `fragment` on `server`, if registered.
    pub fn epoch(&self, fragment: &str, server: &ServerId) -> Option<u64> {
        let fragment = fragment.to_ascii_lowercase();
        let st = self.state.lock();
        st.fragments
            .get(&fragment)
            .and_then(|per_fragment| per_fragment.get(server))
            .map(|meta| meta.epoch)
    }

    /// Number of registered fragments.
    pub fn len(&self) -> usize {
        self.state.lock().fragments.len()
    }

    /// True when no fragment is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Source selection: prune `candidates` for a fragment touching all
    /// of `fragments`, preserving the original candidate order.
    ///
    /// A candidate is *scoreable* when every fragment has a registered
    /// replica on it; unscoreable candidates fail open (kept untouched,
    /// exempt from the bound) so partially-registered worlds degrade to
    /// the unpruned behaviour. Scoreable candidates are scored
    /// `(calibrated cost, band)` where cost = Σ fragment hints × the
    /// server's health factor, then:
    ///
    /// 1. a candidate strictly worse than some sibling on *both* cost
    ///    and band is dominated and dropped;
    /// 2. the survivors are capped to the best `bound` by
    ///    `(cost, band, candidate position)` — an ordering consistent
    ///    with the federation's effective-cost ordering, so the cheapest
    ///    replica (the eventual winner) always survives.
    ///
    /// Work is linear in `candidates`: each fragment's replica map is
    /// resolved once, and dominance is one pass over per-band minima.
    pub fn select_sources(&self, fragments: &[String], candidates: &[ServerId]) -> Vec<ServerId> {
        struct Scored {
            index: usize,
            cost: f64,
            band: u8,
        }
        let st = self.state.lock();
        // With no fragments, or one the catalog has never seen, no
        // candidate is scoreable: everything fails open.
        let replica_maps: Option<Vec<&BTreeMap<ServerId, ReplicaMeta>>> = fragments
            .iter()
            .map(|fragment| st.fragments.get(&fragment.to_ascii_lowercase()))
            .collect();
        let replica_maps = match replica_maps {
            Some(maps) if !maps.is_empty() => maps,
            _ => return candidates.to_vec(),
        };
        let mut scored: Vec<Scored> = Vec::with_capacity(candidates.len());
        let mut fail_open: Vec<usize> = Vec::new();
        'candidates: for (index, server) in candidates.iter().enumerate() {
            let mut cost = 0.0;
            for per_fragment in &replica_maps {
                match per_fragment.get(server) {
                    Some(meta) => cost += meta.cost_hint,
                    None => {
                        fail_open.push(index);
                        continue 'candidates;
                    }
                }
            }
            let health = st.health.get(server).copied().unwrap_or_default();
            scored.push(Scored {
                index,
                cost: cost * health.cost_factor,
                band: health.band,
            });
        }
        drop(st);

        // Dominance: strictly worse on BOTH axes than some sibling, i.e.
        // costlier than the cheapest candidate of a strictly lower band.
        // `below` first holds each band's cheapest cost, then, after a
        // running minimum, the cheapest cost over all lower bands.
        // `f64::min` skips NaN just as `<` never holds for it, so NaN
        // costs neither dominate nor are dominated.
        let mut below = [f64::INFINITY; 1 << u8::BITS];
        for c in &scored {
            let slot = &mut below[usize::from(c.band)];
            *slot = slot.min(c.cost);
        }
        let mut running = f64::INFINITY;
        for slot in below.iter_mut() {
            let own = *slot;
            *slot = running;
            running = running.min(own);
        }
        let dominated = |c: &Scored| below[usize::from(c.band)] < c.cost;
        let mut survivors: Vec<&Scored> = scored.iter().filter(|c| !dominated(c)).collect();

        // Cap to the best `bound` by (cost, band, candidate position).
        // Position is the caller's order; for decomposer-built lists that
        // is the nickname's source registration order (S1, S2, …, S10),
        // not server-id order, which would put S10 before S2.
        survivors.sort_by(|a, b| {
            a.cost
                .total_cmp(&b.cost)
                .then(a.band.cmp(&b.band))
                .then(a.index.cmp(&b.index))
        });
        if self.bound > 0 {
            survivors.truncate(self.bound);
        }

        let mut keep: Vec<usize> = fail_open;
        keep.extend(survivors.iter().map(|c| c.index));
        keep.sort_unstable();
        keep.into_iter()
            .map(|index| candidates[index].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(names: &[&str]) -> Vec<ServerId> {
        names.iter().map(ServerId::new).collect()
    }

    fn catalog_of(bound: usize, hints: &[(&str, &str, f64)]) -> ReplicaCatalog {
        let c = ReplicaCatalog::new(bound);
        for (fragment, server, hint) in hints {
            c.register(fragment, ServerId::new(server), *hint, SimTime::ZERO);
        }
        c
    }

    #[test]
    fn register_deregister_roundtrip() {
        let obs = Obs::new();
        let c = ReplicaCatalog::new(3).with_obs(obs.clone());
        let t = SimTime::from_millis(5.0);
        c.register("big_a", ServerId::new("S1"), 1.0, t);
        c.register("big_a", ServerId::new("S2"), 0.5, t);
        c.register("big_a", ServerId::new("S1"), 2.0, t); // update, no dup
        assert_eq!(c.len(), 1);
        let reps = c.replicas("big_a");
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].server, ServerId::new("S1"));
        assert_eq!(reps[0].cost_hint, 2.0);
        assert_eq!(obs.events_of("catalog_register").len(), 2);
        assert_eq!(obs.counter_value("catalog_replicas_total", &[]), 2);

        assert!(c.deregister("big_a", &ServerId::new("S1"), t));
        assert!(!c.deregister("big_a", &ServerId::new("S1"), t));
        assert_eq!(c.replicas("big_a").len(), 1);
        assert_eq!(obs.events_of("catalog_deregister").len(), 1);
    }

    #[test]
    fn selection_caps_to_cheapest_bound() {
        let c = catalog_of(
            2,
            &[
                ("t", "S1", 1.0),
                ("t", "S2", 0.5),
                ("t", "S3", 0.8),
                ("t", "S4", 2.0),
            ],
        );
        let kept = c.select_sources(&["t".into()], &ids(&["S1", "S2", "S3", "S4"]));
        assert_eq!(kept, ids(&["S2", "S3"]), "two cheapest, original order");
    }

    #[test]
    fn dominated_replica_is_pruned_before_the_cap() {
        // S3 is strictly worse than S1 on both cost and band; S2 is
        // cheaper but in a worse band (not dominated, survives).
        let c = catalog_of(0, &[("t", "S1", 1.0), ("t", "S2", 0.5), ("t", "S3", 3.0)]);
        c.update_health(&ServerId::new("S2"), 1.0, 2);
        c.update_health(&ServerId::new("S3"), 1.0, 2);
        let kept = c.select_sources(&["t".into()], &ids(&["S1", "S2", "S3"]));
        assert_eq!(kept, ids(&["S1", "S2"]));
    }

    #[test]
    fn cheapest_replica_always_survives() {
        let c = catalog_of(1, &[("t", "S1", 0.9), ("t", "S2", 0.2), ("t", "S3", 0.4)]);
        let kept = c.select_sources(&["t".into()], &ids(&["S1", "S2", "S3"]));
        assert_eq!(kept, ids(&["S2"]));
    }

    #[test]
    fn health_factor_reorders_selection() {
        let c = catalog_of(1, &[("t", "S1", 1.0), ("t", "S2", 0.5)]);
        // S2 is nominally cheaper, but calibration learned it is 4× slow.
        c.update_health(&ServerId::new("S2"), 4.0, HEALTHY_BAND);
        let kept = c.select_sources(&["t".into()], &ids(&["S1", "S2"]));
        assert_eq!(kept, ids(&["S1"]));
    }

    #[test]
    fn multi_fragment_cost_is_summed() {
        let c = catalog_of(
            1,
            &[
                ("a", "S1", 0.1),
                ("a", "S2", 1.0),
                ("b", "S1", 1.0),
                ("b", "S2", 0.2),
            ],
        );
        // S2 wins on the summed (a + b) hint: 1.2 vs 1.1 for S1 — no,
        // S1 = 1.1 is cheaper. Check the sum actually decides.
        let kept = c.select_sources(&["a".into(), "b".into()], &ids(&["S1", "S2"]));
        assert_eq!(kept, ids(&["S1"]));
    }

    #[test]
    fn unregistered_candidates_fail_open() {
        let c = catalog_of(1, &[("t", "S1", 1.0), ("t", "S2", 0.5)]);
        // S9 hosts nothing the catalog knows of: it must pass through
        // even though the bound is 1.
        let kept = c.select_sources(&["t".into()], &ids(&["S1", "S2", "S9"]));
        assert_eq!(kept, ids(&["S2", "S9"]));
        // Entirely unknown fragment: nothing is scoreable, everything
        // passes through.
        let kept = c.select_sources(&["nope".into()], &ids(&["S1", "S2"]));
        assert_eq!(kept, ids(&["S1", "S2"]));
    }

    #[test]
    fn epoch_bump_touches_only_hosted_fragments() {
        let obs = Obs::new();
        let c = ReplicaCatalog::new(3).with_obs(obs.clone());
        let t = SimTime::from_millis(1.0);
        c.register("a", ServerId::new("S1"), 1.0, t);
        c.register("b", ServerId::new("S1"), 1.0, t);
        c.register("b", ServerId::new("S2"), 1.0, t);
        c.register("c", ServerId::new("S2"), 1.0, t);

        let affected = c.bump_epoch(&ServerId::new("S1"), t, "down");
        assert_eq!(affected, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(c.epoch("a", &ServerId::new("S1")), Some(1));
        assert_eq!(c.epoch("b", &ServerId::new("S1")), Some(1));
        assert_eq!(c.epoch("b", &ServerId::new("S2")), Some(0));
        assert_eq!(c.epoch("c", &ServerId::new("S2")), Some(0));
        let events = obs.events_of("catalog_epoch");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].str_field("reason"), Some("down"));
        // A server hosting nothing bumps nothing and journals nothing.
        assert!(c.bump_epoch(&ServerId::new("S9"), t, "down").is_empty());
        assert_eq!(obs.events_of("catalog_epoch").len(), 1);
    }

    #[test]
    fn fragments_on_and_siblings() {
        let c = catalog_of(0, &[("a", "S1", 1.0), ("b", "S1", 1.0), ("b", "S2", 1.0)]);
        assert_eq!(
            c.fragments_on(&ServerId::new("S1")),
            vec!["a".to_string(), "b".to_string()]
        );
        assert_eq!(c.fragments_on(&ServerId::new("S2")), vec!["b".to_string()]);
        assert_eq!(c.siblings("b", &ServerId::new("S1")), ids(&["S2"]));
        assert!(c.siblings("a", &ServerId::new("S1")).is_empty());
    }

    /// Brute-force reference for [`ReplicaCatalog::select_sources`] over
    /// the test's own model of registrations and health: per-candidate
    /// scoring and an O(n²) pairwise dominance scan.
    fn reference_select(
        bound: usize,
        hints: &[BTreeMap<ServerId, f64>],
        health: &BTreeMap<ServerId, Health>,
        candidates: &[ServerId],
    ) -> Vec<ServerId> {
        let mut scored: Vec<(usize, f64, u8)> = Vec::new();
        let mut keep: Vec<usize> = Vec::new();
        for (index, server) in candidates.iter().enumerate() {
            let hint_sum = hints.iter().try_fold(0.0, |sum, per_fragment| {
                per_fragment.get(server).map(|hint| sum + hint)
            });
            match hint_sum {
                Some(sum) if !hints.is_empty() => {
                    let h = health.get(server).copied().unwrap_or_default();
                    scored.push((index, sum * h.cost_factor, h.band));
                }
                _ => keep.push(index),
            }
        }
        let mut survivors: Vec<(usize, f64, u8)> = scored
            .iter()
            .filter(|(_, cost, band)| {
                !scored
                    .iter()
                    .any(|(_, other_cost, other_band)| other_band < band && other_cost < cost)
            })
            .copied()
            .collect();
        survivors.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
        if bound > 0 {
            survivors.truncate(bound);
        }
        keep.extend(survivors.iter().map(|s| s.0));
        keep.sort_unstable();
        keep.into_iter().map(|i| candidates[i].clone()).collect()
    }

    #[test]
    fn selection_matches_brute_force_reference() {
        use qcc_common::Pcg32;
        const BANDS: [u8; 4] = [0, 1, 2, DOWN_BAND];
        // Few distinct values so cost ties are common; a zero hint times
        // an infinite factor makes NaN costs as well.
        const HINTS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
        const FACTORS: [f64; 4] = [1.0, 0.5, 3.0, f64::INFINITY];
        let pool: Vec<ServerId> = (1..=48).map(|i| ServerId::new(format!("S{i}"))).collect();
        for case in 0..500u64 {
            let mut rng = Pcg32::seed_from(case);
            let bound = *rng.choose(&[0usize, 1, 3]);
            let catalog = ReplicaCatalog::new(bound);
            // Candidates: a random subset of the pool, in registration
            // order (S1, S2, …, S10 — not id order).
            let n = rng.range_u64(0, 41) as usize;
            let mut candidates = pool.clone();
            for i in 0..candidates.len() {
                let j = rng.range_u64(i as u64, candidates.len() as u64) as usize;
                candidates.swap(i, j);
            }
            candidates.truncate(n);
            candidates.sort_by_key(|s| s.as_str()[1..].parse::<u32>().unwrap());

            let n_fragments = rng.range_u64(1, 4) as usize;
            let fragments: Vec<String> = (0..n_fragments).map(|f| format!("Frag{f}")).collect();
            let mut hints: Vec<BTreeMap<ServerId, f64>> = vec![BTreeMap::new(); n_fragments];
            for (fragment, model) in fragments.iter().zip(hints.iter_mut()) {
                // Occasionally a fragment the catalog has never seen.
                if rng.next_f64() < 0.05 {
                    continue;
                }
                for server in &pool {
                    // Some candidates stay unregistered: they fail open.
                    if rng.next_f64() < 0.1 {
                        continue;
                    }
                    let hint = if rng.next_f64() < 0.5 {
                        *rng.choose(&HINTS)
                    } else {
                        rng.range_f64(0.1, 3.0)
                    };
                    catalog.register(fragment, server.clone(), hint, SimTime::ZERO);
                    model.insert(server.clone(), hint);
                }
            }
            let mut health: BTreeMap<ServerId, Health> = BTreeMap::new();
            for server in &pool {
                if rng.next_f64() < 0.3 {
                    continue; // healthy default
                }
                let h = Health {
                    cost_factor: *rng.choose(&FACTORS),
                    band: *rng.choose(&BANDS),
                };
                catalog.update_health(server, h.cost_factor, h.band);
                health.insert(server.clone(), h);
            }

            let got = catalog.select_sources(&fragments, &candidates);
            let want = reference_select(bound, &hints, &health, &candidates);
            assert_eq!(
                got, want,
                "case {case}: bound {bound}, candidates {candidates:?}"
            );
        }
    }

    #[test]
    fn nickname_lookup_is_case_insensitive() {
        let c = catalog_of(0, &[("Big_A", "S1", 1.0)]);
        assert_eq!(c.replicas("BIG_A").len(), 1);
        assert_eq!(
            c.select_sources(&["big_a".into()], &ids(&["S1"])),
            ids(&["S1"])
        );
    }
}
