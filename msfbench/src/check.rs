//! The independent output check.
//!
//! Every reference answer is computed here, from the raw input triples, by
//! a few lines of Kruskal with their own union-find. The check therefore
//! depends on none of the layers the benchmark times: not `GraphBuilder`,
//! not `serial_kruskal`, not `ecl_dsu`. The minimum spanning forest is
//! unique under the workspace's total order `(w, min(u,v), max(u,v))`, so
//! a forest is correct exactly when its [`Digest`] equals the reference's.

use ecl_graph::CsrGraph;
use ecl_mst::MstResult;

/// An undirected weighted edge `(u, v, w)`, in either endpoint order.
pub type Triple = (u32, u32, u32);

/// Fingerprint of a forest: edge count, total weight, and a hash of its
/// sorted canonical `(min(u,v), max(u,v), w)` triples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Forest edges.
    pub edges: u64,
    /// Sum of forest edge weights.
    pub weight: u64,
    /// FNV-1a over the sorted canonical triples.
    pub hash: u64,
}

impl Digest {
    /// Digest of a forest given as triples in any order and orientation.
    pub fn of_forest(mut forest: Vec<Triple>) -> Digest {
        for t in &mut forest {
            *t = (t.0.min(t.1), t.0.max(t.1), t.2);
        }
        forest.sort_unstable();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut weight = 0u64;
        for &(u, v, w) in &forest {
            weight += u64::from(w);
            for word in [u, v, w] {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        Digest {
            edges: forest.len() as u64,
            weight,
            hash,
        }
    }
}

/// The reference minimum spanning forest of the multigraph `triples` on
/// `n` vertices: self-loops dropped, parallel edges resolved by the total
/// order (the lightest wins, exactly the builder's keep-lightest rule).
pub fn reference_forest(n: usize, triples: impl IntoIterator<Item = Triple>) -> Vec<Triple> {
    let mut keyed: Vec<(u32, u32, u32)> = triples
        .into_iter()
        .filter(|&(u, v, _)| u != v)
        .map(|(u, v, w)| (w, u.min(v), u.max(v)))
        .collect();
    keyed.sort_unstable();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut size = vec![1u32; n];
    let mut forest = Vec::with_capacity(n.saturating_sub(1));
    for (w, u, v) in keyed {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        if a == b {
            continue;
        }
        let (big, small) = if size[a as usize] >= size[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        parent[small as usize] = big;
        size[big as usize] += size[small as usize];
        forest.push((u, v, w));
        if forest.len() + 1 == n {
            break;
        }
    }
    forest
}

/// Union-find root with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// [`Digest`] of [`reference_forest`].
pub fn reference_digest(n: usize, triples: impl IntoIterator<Item = Triple>) -> Digest {
    Digest::of_forest(reference_forest(n, triples))
}

/// Whether `forest` is the forest `expected` fingerprints.
pub fn forest_matches(forest: Vec<Triple>, expected: &Digest) -> bool {
    Digest::of_forest(forest) == *expected
}

/// The edges an [`MstResult`] selected from `g`, as triples.
pub fn forest_of(g: &CsrGraph, r: &MstResult) -> Vec<Triple> {
    g.edges()
        .filter(|e| r.in_mst.get(e.id as usize).copied().unwrap_or(false))
        .map(|e| (e.src, e.dst, e.weight))
        .collect()
}

/// Operations attempted and failed; an operation fails when any check of
/// its output fails.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
}

impl Tally {
    /// Records `ops` operations whose outputs passed (`ok`) or failed.
    pub fn record(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }

    /// Checks one forest against its reference and records the outcome.
    pub fn check_forest(&mut self, forest: Vec<Triple>, expected: &Digest) -> bool {
        let ok = forest_matches(forest, expected);
        self.record(1, ok);
        ok
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_keeps_lightest_parallel_and_drops_loops() {
        let f = reference_forest(3, [(1, 0, 9), (0, 1, 2), (2, 2, 1), (1, 2, 5), (0, 2, 7)]);
        assert_eq!(f, vec![(0, 1, 2), (1, 2, 5)]);
    }

    #[test]
    fn digest_ignores_order_and_orientation() {
        let a = Digest::of_forest(vec![(0, 1, 2), (2, 1, 5)]);
        let b = Digest::of_forest(vec![(1, 2, 5), (1, 0, 2)]);
        assert_eq!(a, b);
        assert_ne!(a, Digest::of_forest(vec![(0, 1, 2), (0, 2, 5)]));
    }
}
