//! Period-keyed memoization of diagnosis steps.
//!
//! Microscope's own observation (§6.3) makes per-victim recomputation pure
//! waste: victims cluster inside bursts, so thousands of victims at one NF
//! share the *same* queuing period — and therefore the same §4.1 period
//! extraction, §4.2 PreSet attribution and §4.3 recursion anchors. This
//! module caches one [`DiagnosisStep`] per distinct `(nf, anchor_ts)` so that
//! work happens once per period instead of once per victim.
//!
//! ## Why this preserves bit-identical output
//!
//! Every field of a step is a *pure function of its key* for a fixed
//! reconstruction and configuration: `queuing_period` is a
//! deterministic index lookup, and `preset_flows` / `attribute_upstream`
//! are deterministic folds over the period's arrivals (both already
//! canonically ordered to be independent of `HashMap` iteration order).
//! Victim-dependent state — the blame `weight`, depth pruning and the
//! per-victim `visited` cycle list — stays *outside* the cache in the
//! recursion driver. Consequently a hit returns exactly the value a miss
//! would have computed. The map is only ever looked up by key, never
//! iterated, so its hash order cannot reach any output either.

use crate::local::LocalScores;
use crate::propagation::UpstreamShare;
use msc_trace::QueuingPeriod;
use nf_types::{FiveTuple, Nanos, NfId};
use std::cell::OnceCell;
use std::collections::hash_map::{Entry, HashMap};
use std::rc::Rc;

/// Cache key: `(nf, anchor timestamp)`. Anchors — not period starts — key
/// the cache because `queuing_period(t)` is resolved *by* the lookup;
/// batched upstream sends give many victims the same anchor, and §4.3
/// recursion anchors (an upstream period's last PreSet arrival) collide
/// across victims of the same burst by construction.
pub type StepKey = (NfId, Nanos);

/// The memoized per-period work of one §4.3 recursion step.
///
/// `qp`, `scores` and `preset_flows` are computed when the entry is built;
/// `shares` stays lazy (most steps never need §4.2 — the input share is
/// pruned or the period is empty) and is filled at most once per *period*
/// rather than once per victim.
#[derive(Debug)]
pub struct DiagnosisStep {
    /// The §4.1 queuing period at the key's anchor.
    pub qp: QueuingPeriod,
    /// Local `Si`/`Sp` scores of that period.
    pub scores: LocalScores,
    /// Flows of the PreSet packets (culprit flows for local blame).
    pub preset_flows: Vec<(FiveTuple, f64)>,
    /// Lazy §4.2 upstream attribution of the period's PreSet.
    pub shares: OnceCell<Vec<UpstreamShare>>,
}

impl DiagnosisStep {
    /// The upstream shares, computing them on first use.
    pub fn shares_or_init(&self, make: impl FnOnce() -> Vec<UpstreamShare>) -> &[UpstreamShare] {
        self.shares.get_or_init(make)
    }
}

/// Cache statistics for one diagnosis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Step lookups answered from the cache.
    pub hits: u64,
    /// Step lookups that computed a fresh entry.
    pub misses: u64,
    /// Distinct entries resident at the end of the run.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The step cache of one diagnosis run: a plain map from [`StepKey`] to
/// its [`DiagnosisStep`], owned by [`crate::Microscope::diagnose_all_stats`]
/// and dropped with it.
///
/// Entries are `Rc`ed so the recursion driver can hold a step while it
/// inserts the steps of upstream periods.
#[derive(Default)]
pub struct DiagnosisCache {
    steps: HashMap<StepKey, Rc<DiagnosisStep>>,
    hits: u64,
    misses: u64,
}

impl DiagnosisCache {
    /// The step for `key`, computing it with `make` on a miss.
    pub fn step(
        &mut self,
        key: StepKey,
        make: impl FnOnce() -> DiagnosisStep,
    ) -> Rc<DiagnosisStep> {
        match self.steps.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                Rc::clone(e.get())
            }
            Entry::Vacant(e) => {
                self.misses += 1;
                Rc::clone(e.insert(Rc::new(make())))
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.steps.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::Interval;

    fn dummy_step(n: u64) -> DiagnosisStep {
        DiagnosisStep {
            qp: QueuingPeriod {
                interval: Interval::new(0, n),
                preset: 0..0,
                n_arrived: n,
                n_processed: 0,
            },
            scores: LocalScores { si: 0.0, sp: 0.0 },
            preset_flows: Vec::new(),
            shares: OnceCell::new(),
        }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_entry() {
        let mut cache = DiagnosisCache::default();
        let key = (NfId(3), 1_000);
        let a = cache.step(key, || dummy_step(7));
        let b = cache.step(key, || panic!("must not recompute on a hit"));
        assert!(Rc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        // Keys differing in one field each: NF, anchor.
        let mut cache = DiagnosisCache::default();
        let keys = [(NfId(1), 10), (NfId(2), 10), (NfId(1), 20)];
        for (n, &key) in keys.iter().enumerate() {
            cache.step(key, || dummy_step(n as u64));
        }
        for (n, &key) in keys.iter().enumerate() {
            let step = cache.step(key, || panic!("must not recompute on a hit"));
            assert_eq!(step.qp.n_arrived, n as u64, "value under the wrong key");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (3, 3, 3));
    }

    #[test]
    fn shares_init_once() {
        let step = dummy_step(1);
        let first = step.shares_or_init(Vec::new).len();
        assert_eq!(first, 0);
        let again = step.shares_or_init(|| {
            vec![UpstreamShare {
                node: nf_types::NodeId::Source,
                fraction: 1.0,
                first_arrival: None,
                last_arrival: None,
            }]
        });
        assert!(again.is_empty(), "the first value must be kept");
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(DiagnosisCache::default().stats().hit_rate(), 0.0);
    }
}
