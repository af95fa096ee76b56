//! Transition sampling for the biased walks over a [`CsrGraph`] snapshot
//! (Alg. 4's random walks with the node2vec second-order bias and the
//! edge-type weights that plug into the embedding generator). The
//! uniform walk needs no helper here: the generator picks a uniformly
//! random neighbor slice element itself.

use rand::seq::IndexedRandom;
use rand::{Rng, RngExt};

use crate::csr::{CsrGraph, EdgeTypeCum};
use crate::edge::EdgeTypeWeights;
use crate::node::NodeId;

/// Samples an index from unnormalized non-negative `weights` by cumulative
/// sum. Returns `None` when all weights are zero (or the slice is empty).
///
/// The selection rule is "first index whose running prefix sum exceeds
/// `r · total`", with the prefix accumulated by sequential `f32` addition.
/// [`sample_cumulative`] applies the same rule to a *precomputed* prefix
/// table and draws from the RNG the same way, so the two pick the same
/// index under the same RNG stream.
fn sample_weighted<R: Rng + ?Sized>(weights: &[f32], rng: &mut R) -> Option<usize> {
    let mut total = 0.0f32;
    for &w in weights {
        total += w;
    }
    if total <= 0.0 || total.is_nan() {
        return None;
    }
    // Reborrow: `Rng::random` needs `Self: Sized`, and `&mut R` is.
    let target = (*rng).random::<f32>() * total;
    let mut running = 0.0f32;
    for (i, &w) in weights.iter().enumerate() {
        running += w;
        if running > target {
            return Some(i);
        }
    }
    // Float round-off can leave the prefix at ~target; fall back to the
    // last positive-weight index.
    weights.iter().rposition(|&w| w > 0.0)
}

/// [`sample_weighted`] over a precomputed prefix-sum table: binary search
/// for the first entry exceeding `r · total` (O(log n) instead of O(n)).
/// `positive` reports whether the weight at an index is positive, for the
/// round-off fallback. Draws from `rng` exactly like [`sample_weighted`].
fn sample_cumulative<R: Rng + ?Sized>(
    cum: &[f32],
    positive: impl Fn(usize) -> bool,
    rng: &mut R,
) -> Option<usize> {
    let total = *cum.last()?;
    if total <= 0.0 || total.is_nan() {
        return None;
    }
    let target = (*rng).random::<f32>() * total;
    let idx = cum.partition_point(|&c| c <= target);
    if idx < cum.len() {
        return Some(idx);
    }
    (0..cum.len()).rev().find(|&i| positive(i))
}

/// One edge-type-weighted walk over a CSR snapshot using a precomputed
/// cumulative weight table ([`CsrGraph::edge_type_cum`]): each transition
/// samples by binary search over the node's prefix sums, O(log degree).
/// Edges whose kind has weight `0.0` are never crossed; the walk stops
/// early if no crossable edge remains.
pub fn random_walk_edge_typed_csr_into<R: Rng + ?Sized>(
    g: &CsrGraph,
    start: NodeId,
    len: usize,
    weights: &EdgeTypeWeights,
    cum: &EdgeTypeCum,
    rng: &mut R,
    out: &mut Vec<u32>,
) {
    out.push(start.0);
    let mut cur = start;
    for _ in 0..len {
        let neighbors = g.neighbors(cur);
        if neighbors.is_empty() {
            break;
        }
        let kinds = g.neighbor_kinds(cur);
        let slice = g.cum_slice(cum, cur);
        match sample_cumulative(slice, |i| weights.get(kinds[i]) > 0.0, rng) {
            Some(i) => {
                cur = neighbors[i];
                out.push(cur.0);
            }
            None => break,
        }
    }
}

/// One node2vec second-order walk over a CSR snapshot (Grover &
/// Leskovec, KDD'16 — cited by the paper as an alternative embedding
/// generator, §IV-A).
///
/// Given the previous node `t` and current node `v`, the unnormalized
/// probability of stepping to neighbor `x` is:
///
/// * `1/p` when `x == t` (return),
/// * `1`   when `x` is a neighbor of `t` (stay close),
/// * `1/q` otherwise (explore).
///
/// `p` is the *return* parameter, `q` the *in-out* parameter; `p = q = 1`
/// reduces to the paper's uniform walk. Both must be positive. The
/// `prev`-neighbor probe uses the snapshot's binary-search [`has_edge`],
/// so each step costs O(degree · log degree); `buf` is caller-provided
/// scratch reused across walks.
///
/// [`has_edge`]: CsrGraph::has_edge
#[allow(clippy::too_many_arguments)] // mirrors the walk-primitive family's flat signatures
pub fn random_walk_node2vec_csr_into<R: Rng + ?Sized>(
    g: &CsrGraph,
    start: NodeId,
    len: usize,
    p: f32,
    q: f32,
    rng: &mut R,
    buf: &mut Vec<f32>,
    out: &mut Vec<u32>,
) {
    debug_assert!(p > 0.0 && q > 0.0, "node2vec parameters must be positive");
    out.push(start.0);
    // First step has no history: uniform.
    let Some(&first) = g.neighbors(start).choose(rng) else {
        return;
    };
    out.push(first.0);
    let (mut prev, mut cur) = (start, first);
    let (inv_p, inv_q) = (1.0 / p, 1.0 / q);
    for _ in 1..len {
        let neighbors = g.neighbors(cur);
        if neighbors.is_empty() {
            break;
        }
        buf.clear();
        buf.extend(neighbors.iter().map(|&x| {
            if x == prev {
                inv_p
            } else if g.has_edge(prev, x) {
                1.0
            } else {
                inv_q
            }
        }));
        match sample_weighted(buf, rng) {
            Some(i) => {
                prev = cur;
                cur = neighbors[i];
                out.push(cur.0);
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeKind;
    use crate::graph::Graph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn weighted_sampler_respects_zero_and_point_masses() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(sample_weighted(&[], &mut rng), None);
        assert_eq!(sample_weighted(&[0.0, 0.0], &mut rng), None);
        for _ in 0..20 {
            assert_eq!(sample_weighted(&[0.0, 1.0, 0.0], &mut rng), Some(1));
        }
    }

    #[test]
    fn cumulative_sampler_draws_like_the_linear_one() {
        let weights = [0.0, 2.5, 0.0, 0.5, 1.0, 0.0, 3.25];
        let mut running = 0.0f32;
        let cum: Vec<f32> = weights
            .iter()
            .map(|&w| {
                running += w;
                running
            })
            .collect();
        for seed in 0..200 {
            let linear = sample_weighted(&weights, &mut SmallRng::seed_from_u64(seed));
            let binary =
                sample_cumulative(&cum, |i| weights[i] > 0.0, &mut SmallRng::seed_from_u64(seed));
            assert_eq!(linear, binary, "seed {seed}");
        }
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(sample_cumulative(&[], |_| true, &mut rng), None);
        assert_eq!(sample_cumulative(&[0.0, 0.0], |_| false, &mut rng), None);
    }

    #[test]
    fn csr_zero_weight_edges_strand_walkers() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        g.add_edge_typed(a, b, EdgeKind::Generic);
        let weights = EdgeTypeWeights::uniform().with(EdgeKind::Generic, 0.0);
        let csr = CsrGraph::from_graph(&g);
        let cum = csr.edge_type_cum(&weights);
        let mut out = Vec::new();
        random_walk_edge_typed_csr_into(
            &csr,
            a,
            5,
            &weights,
            &cum,
            &mut SmallRng::seed_from_u64(1),
            &mut out,
        );
        assert_eq!(out, vec![a.0]);
    }

    #[test]
    fn biased_walks_from_an_isolated_node_are_singletons() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let csr = CsrGraph::from_graph(&g);
        let weights = EdgeTypeWeights::uniform();
        let cum = csr.edge_type_cum(&weights);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        random_walk_node2vec_csr_into(&csr, a, 5, 1.0, 1.0, &mut rng, &mut Vec::new(), &mut out);
        assert_eq!(out, vec![a.0]);
        out.clear();
        random_walk_edge_typed_csr_into(&csr, a, 5, &weights, &cum, &mut rng, &mut out);
        assert_eq!(out, vec![a.0]);
    }
}
