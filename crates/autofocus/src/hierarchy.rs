//! Exact one-dimensional hierarchical heavy hitters.
//!
//! Every dimension is a tree: each value has at most one parent, reached by
//! one generalisation step. The HHH of a weighted multiset of leaves are the
//! nodes whose weight — after *excluding* the weight already reported at
//! more specific descendants — reaches the threshold. Because each dimension
//! is a tree (not a lattice), a leaf-to-root roll-up computes this exactly:
//! sort the nodes of a level, scan them, push what stays unreported onto the
//! level above.

/// Computes one-dimensional hierarchical heavy hitters.
///
/// * `items` — weighted exact values (duplicates allowed; weights add up).
/// * `parent` — one generalisation step; `None` at the root.
/// * `threshold` — absolute weight needed to report a node.
///
/// Returns `(value, residual_weight)` pairs, most specific first (deepest
/// level first, keys ascending within a level). The root is always
/// reported last with whatever weight remains unclaimed, so the output
/// always accounts for the full input weight.
pub fn hhh_1d<K, I, P>(items: I, parent: P, threshold: f64) -> Vec<(K, f64)>
where
    K: Ord + Clone,
    I: IntoIterator<Item = (K, f64)>,
    P: Fn(&K) -> Option<K>,
{
    // Distinct input keys as `(depth, key, weight)`: a stable sort by key
    // leaves equal keys in the caller's order, so one scan sums each.
    let mut items: Vec<(K, f64)> = items.into_iter().collect();
    items.sort_by(|a, b| a.0.cmp(&b.0));
    let mut nodes: Vec<(usize, K, f64)> = Vec::new();
    for (k, w) in items {
        match nodes.last_mut() {
            // float: canonical-order(the stable sort keeps equal keys in the caller's iteration order)
            Some(n) if n.1 == k => n.2 += w,
            _ => {
                let depth = std::iter::successors(parent(&k), &parent).count();
                // Every sum starts from +0.0 (a lone -0.0 comes out +0.0).
                nodes.push((depth, k, 0.0 + w));
            }
        }
    }
    // Deepest level first, so every node is settled before its parent
    // (parent depth = child depth − 1).
    nodes.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut nodes = nodes.into_iter().peekable();
    let Some(mut depth) = nodes.peek().map(|n| n.0) else {
        return Vec::new();
    };

    let mut out: Vec<(K, f64)> = Vec::new();
    // Unreported weight on its way up, as `(parent key, weight)` in the
    // order the children were visited.
    let mut rolled: Vec<(K, f64)> = Vec::new();
    loop {
        // This level: the input keys of this depth, then what the level
        // below rolled up. The stable sort puts a key's own weight first
        // and its children after it in ascending child order.
        let mut level: Vec<(K, f64)> = Vec::new();
        while let Some(n) = nodes.next_if(|n| n.0 == depth) {
            level.push((n.1, n.2));
        }
        level.append(&mut rolled);
        level.sort_by(|a, b| a.0.cmp(&b.0));
        let mut level = level.into_iter().peekable();
        while let Some((k, mut w)) = level.next() {
            while let Some(child) = level.next_if(|n| n.0 == k) {
                // float: canonical-order(own weight first, then children in ascending key order — see the sort above)
                w += child.1;
            }
            match parent(&k) {
                Some(_) if w >= threshold => out.push((k, w)),
                // Roll the unreported weight up one level.
                Some(p) => rolled.push((p, w)),
                // Root: report the remainder (even below threshold) so
                // weights are conserved.
                None if w > 0.0 => out.push((k, w)),
                None => {}
            }
        }
        depth = if !rolled.is_empty() {
            depth.saturating_sub(1)
        } else if let Some(n) = nodes.peek() {
            n.0
        } else {
            return out;
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy hierarchy: integers, parent = n/10, root = 0.
    fn parent(n: &u32) -> Option<u32> {
        if *n == 0 {
            None
        } else {
            Some(n / 10)
        }
    }

    #[test]
    fn significant_leaf_reported_directly() {
        let out = hhh_1d(vec![(123u32, 10.0), (124, 0.5)], parent, 5.0);
        assert!(out.contains(&(123, 10.0)));
        // 124's weight rolls up to 12, then 1, then 0 (root).
        let root_w = out.iter().find(|(k, _)| *k == 0).map(|(_, w)| *w);
        assert_eq!(root_w, Some(0.5));
    }

    #[test]
    fn siblings_combine_at_parent() {
        // Three siblings of 2.0 each — none significant alone, parent 12 is.
        let out = hhh_1d(vec![(121u32, 2.0), (122, 2.0), (123, 2.0)], parent, 5.0);
        assert_eq!(out, vec![(12, 6.0)]);
    }

    #[test]
    fn descendant_exclusion() {
        // 121 significant alone; 122+123 only significant combined at 12.
        let out = hhh_1d(vec![(121u32, 7.0), (122, 3.0), (123, 3.0)], parent, 5.0);
        assert!(out.contains(&(121, 7.0)));
        // Parent reports only the residual 6.0, not 13.0.
        assert!(out.contains(&(12, 6.0)));
    }

    #[test]
    fn weights_are_conserved() {
        let items: Vec<(u32, f64)> = (100..200).map(|k| (k, 0.37)).collect();
        let total: f64 = items.iter().map(|(_, w)| w).sum();
        let out = hhh_1d(items, parent, 3.0);
        let reported: f64 = out.iter().map(|(_, w)| w).sum();
        assert!((reported - total).abs() < 1e-9, "{reported} vs {total}");
    }

    #[test]
    fn root_catches_scraps() {
        let out = hhh_1d(vec![(5u32, 0.1)], parent, 100.0);
        assert_eq!(out, vec![(0, 0.1)]);
    }

    #[test]
    fn empty_input() {
        let out = hhh_1d(Vec::<(u32, f64)>::new(), parent, 1.0);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_keys_merge() {
        let out = hhh_1d(vec![(7u32, 3.0), (7, 4.0)], parent, 5.0);
        assert!(out.contains(&(7, 7.0)));
    }
}

#[cfg(test)]
mod prefix_tests {
    use super::*;
    use nf_types::{parse_ip, Prefix};

    #[test]
    fn ipv4_prefix_hierarchy_rolls_up_32_levels() {
        // Two /32 hosts under one /31; weight splits below threshold and
        // meets it exactly at the /31.
        let a = Prefix::host(parse_ip("10.0.0.2").unwrap());
        let b = Prefix::host(parse_ip("10.0.0.3").unwrap());
        let out = hhh_1d(vec![(a, 3.0), (b, 3.0)], |p: &Prefix| p.parent(), 5.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Prefix::new(parse_ip("10.0.0.2").unwrap(), 31));
        assert!((out[0].1 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn distant_hosts_meet_high_in_the_tree() {
        let a = Prefix::host(parse_ip("10.0.0.1").unwrap());
        let b = Prefix::host(parse_ip("10.128.0.1").unwrap());
        let out = hhh_1d(vec![(a, 3.0), (b, 3.0)], |p: &Prefix| p.parent(), 5.0);
        assert_eq!(out.len(), 1);
        // First common ancestor of 10.0.0.1 and 10.128.0.1 is 10.0.0.0/8.
        assert_eq!(out[0].0, Prefix::new(parse_ip("10.0.0.0").unwrap(), 8));
    }

    #[test]
    fn port_hierarchy_is_two_level() {
        use nf_types::PortRange;
        // 4 exact high ports of 2.0 each; threshold 5 → the HIGH range.
        let items: Vec<(PortRange, f64)> =
            (0..4).map(|i| (PortRange::exact(2000 + i), 2.0)).collect();
        let out = hhh_1d(items, |p: &PortRange| p.static_parent(), 5.0);
        assert_eq!(out, vec![(PortRange::HIGH, 8.0)]);
    }
}
