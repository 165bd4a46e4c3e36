//! The pre-rewrite one-dimensional HHH, moved verbatim out of
//! `autofocus::hierarchy`: a `HashMap` of weights, a `BTreeMap` of depth
//! levels and one `depth()` walk per key.

use std::collections::HashMap;
use std::hash::Hash;

/// Computes one-dimensional hierarchical heavy hitters.
///
/// * `items` — weighted exact values (duplicates allowed; weights add up).
/// * `parent` — one generalisation step; `None` at the root.
/// * `threshold` — absolute weight needed to report a node.
///
/// Returns `(value, residual_weight)` pairs, most specific first. The root
/// is always reported last with whatever weight remains unclaimed, so the
/// output always accounts for the full input weight.
pub fn hhh_1d<K, I, P>(items: I, parent: P, threshold: f64) -> Vec<(K, f64)>
where
    K: Eq + Hash + Ord + Clone,
    I: IntoIterator<Item = (K, f64)>,
    P: Fn(&K) -> Option<K>,
{
    // Accumulate exact weights.
    let mut weights: HashMap<K, f64> = HashMap::new();
    for (k, w) in items {
        // float: canonical-order(per-key accumulation follows the caller's iteration order)
        *weights.entry(k).or_insert(0.0) += w;
    }
    if weights.is_empty() {
        return Vec::new();
    }

    // Depth of each key = number of generalisation steps to the root.
    let depth = |k: &K| -> usize {
        let mut d = 0;
        let mut cur = k.clone();
        while let Some(p) = parent(&cur) {
            d += 1;
            cur = p;
        }
        d
    };

    // Bucket keys by depth so every node is processed strictly before its
    // parent (parent depth = child depth − 1).
    let mut levels: std::collections::BTreeMap<usize, Vec<K>> = std::collections::BTreeMap::new();
    // lint: order-insensitive(keys are bucketed into the BTreeMap above and every level is sorted before use below)
    for k in weights.keys() {
        levels.entry(depth(k)).or_default().push(k.clone());
    }

    let mut out: Vec<(K, f64)> = Vec::new();
    while let Some((&d, _)) = levels.iter().next_back() {
        let mut keys = levels.remove(&d).expect("level exists");
        // The level was populated from HashMap iteration (and roll-up
        // insertion) order; sort so the output order and the float roll-up
        // accumulation are identical on every run.
        keys.sort_unstable();
        for k in keys {
            let w = weights[&k];
            match parent(&k) {
                Some(_) if w >= threshold => out.push((k, w)),
                Some(p) => {
                    // Roll the unreported weight up one level.
                    if !weights.contains_key(&p) {
                        levels.entry(d - 1).or_default().push(p.clone());
                        weights.insert(p.clone(), 0.0);
                    }
                    // float: canonical-order(children were sorted above, so each parent accumulates in canonical child order)
                    *weights.get_mut(&p).expect("just ensured") += w;
                }
                None => {
                    // Root: report the remainder (even below threshold) so
                    // weights are conserved.
                    if w > 0.0 {
                        out.push((k, w));
                    }
                }
            }
        }
    }
    out
}
