//! Property tests for the flat similarity engine: the pre-normalized
//! [`ScoreMatrix`] + bounded [`TopK`] batch path must rank exactly like
//! the naive cosine + full-sort oracle (indices and tie-breaks; scores
//! within 1e-5).

use proptest::prelude::*;

use tdmatch_embed::score::{
    batch_top_k_seq, dot_unrolled, dot_unrolled4, naive_rank, select_top_k, ScoreMatrix,
};

/// SplitMix64 — deterministic vector material from a proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform f32 in [-1, 1).
fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// Optional rows: ~1/5 missing, ~1/7 all-zero (valid but degenerate).
fn gen_rows(n: usize, dim: usize, state: &mut u64) -> Vec<Option<Vec<f32>>> {
    (0..n)
        .map(|_| {
            let marker = splitmix(state) % 35;
            if marker % 5 == 4 {
                None
            } else if marker % 7 == 3 {
                Some(vec![0.0; dim])
            } else {
                Some((0..dim).map(|_| unit(state)).collect())
            }
        })
        .collect()
}

/// IEEE edge values: −0.0, ±inf, NaN, subnormals, a product that
/// overflows.
const EDGES: [f32; 7] = [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0e-45, -1.1e-38, 3.0e38];

/// A `dim`-long vector in which `edges_in_8` of every 8 elements, in
/// expectation, are [`EDGES`]; the rest are ordinary.
fn edge_vector(dim: usize, edges_in_8: u64, state: &mut u64) -> Vec<f32> {
    (0..dim)
        .map(|_| {
            let r = splitmix(state);
            if r % 8 < edges_in_8 {
                EDGES[(r >> 8) as usize % EDGES.len()]
            } else {
                unit(state) * 4.0
            }
        })
        .collect()
}

/// `to_bits`, with every NaN held to one value: Rust leaves the sign and
/// payload of an arithmetic NaN unspecified, and LLVM may commute a
/// multiply or an add, which picks a different operand's NaN (this suite
/// saw `0x7fc00000` against `0xffc00000`). Every other value keeps its
/// bits, so −0.0 against +0.0 still differs.
fn bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bounded heap ranks exactly like sort-desc / tie-idx-asc /
    /// truncate — exercised on a coarse score grid so exact ties are
    /// common.
    #[test]
    fn topk_equals_sort_truncate(
        grid in prop::collection::vec(0i32..6, 0..48),
        k in 0usize..14,
    ) {
        let scored: Vec<(usize, f32)> = grid
            .iter()
            .enumerate()
            .map(|(i, &g)| (i, g as f32 / 4.0 - 0.5))
            .collect();
        let mut oracle = scored.clone();
        oracle.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap()
                .then_with(|| a.0.cmp(&b.0))
        });
        oracle.truncate(k);
        prop_assert_eq!(select_top_k(scored, k), oracle);
    }

    /// The unrolled kernel agrees with a scalar dot product.
    #[test]
    fn dot_unrolled_matches_scalar(
        a in prop::collection::vec(-4.0f32..4.0, 0..40),
        b in prop::collection::vec(-4.0f32..4.0, 0..40),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let scalar: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let fast = dot_unrolled(a, b);
        let tol = 1e-4 * (1.0 + scalar.abs());
        prop_assert!((scalar - fast).abs() < tol, "{scalar} vs {fast}");
    }

    /// The four-row kernel is four `dot_unrolled` calls, bit for bit, at
    /// every dim from 0 to 130 (every lane remainder) and on IEEE edge
    /// values (−0.0, ±inf, NaN, subnormals, products that overflow). A
    /// NaN result is held to being NaN (see [`bits`]).
    #[test]
    fn dot_unrolled4_is_four_dot_unrolled(
        edges_in_8 in 0u64..4,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed;
        for dim in 0..=130 {
            let a = edge_vector(dim, edges_in_8, &mut state);
            let rows: [Vec<f32>; 4] =
                std::array::from_fn(|_| edge_vector(dim, edges_in_8, &mut state));
            let got = dot_unrolled4(&a, [&rows[0], &rows[1], &rows[2], &rows[3]]);
            for (r, (row, g)) in rows.iter().zip(got).enumerate() {
                let want = dot_unrolled(&a, row);
                prop_assert_eq!(bits(g), bits(want), "dim {} row {}: {} vs {}", dim, r, g, want);
            }
        }
    }

    /// `dot_unrolled(a, b)` and `dot_unrolled(b, a)` are the same bits,
    /// on the same dims and edge values: each product commutes and each
    /// lane sums in the same order. The HNSW build relies on it — an edge
    /// keeps the distance computed from its other end.
    #[test]
    fn dot_unrolled_is_symmetric(
        edges_in_8 in 0u64..4,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed;
        for dim in 0..=130 {
            let a = edge_vector(dim, edges_in_8, &mut state);
            let b = edge_vector(dim, edges_in_8, &mut state);
            let (ab, ba) = (dot_unrolled(&a, &b), dot_unrolled(&b, &a));
            prop_assert_eq!(bits(ab), bits(ba), "dim {}: {} vs {}", dim, ab, ba);
        }
    }

    /// Matrix rows are unit-norm (or zero), and validity mirrors `Some`.
    #[test]
    fn matrix_rows_are_normalized(
        n in 0usize..70,
        dim in 0usize..10,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed;
        let rows = gen_rows(n, dim, &mut state);
        let m = ScoreMatrix::from_options_dim(&rows, dim);
        prop_assert_eq!((m.rows(), m.dim()), (n, dim));
        prop_assert_eq!(m.valid_rows(), rows.iter().filter(|r| r.is_some()).count());
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(m.is_valid(i), r.is_some());
            let norm = dot_unrolled(m.row(i), m.row(i)).sqrt();
            prop_assert!(
                norm == 0.0 || (norm - 1.0).abs() < 1e-4,
                "row {i} norm {norm}"
            );
        }
    }

    /// The batch path equals the naive cosine + sort oracle per query:
    /// identical indices and tie-breaks, scores within 1e-5 — across
    /// random dims, missing rows, and k above/below the target count.
    #[test]
    fn batch_matches_naive_oracle(
        dim in 1usize..12,
        n_queries in 0usize..10,
        n_targets in 0usize..20,
        k in 0usize..26,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0xABCD;
        let queries = gen_rows(n_queries, dim, &mut state);
        let targets = gen_rows(n_targets, dim, &mut state);
        let qm = ScoreMatrix::from_options_dim(&queries, dim);
        let tm = ScoreMatrix::from_options_dim(&targets, dim);
        let got = batch_top_k_seq(&qm, &tm, k, None, None);
        prop_assert_eq!(got.len(), n_queries);
        for (q, ranked) in got.iter().enumerate() {
            match &queries[q] {
                None => prop_assert!(ranked.is_empty(), "missing query {q} ranked"),
                Some(qv) => {
                    let want = naive_rank(qv, &targets, k);
                    let got_idx: Vec<usize> = ranked.iter().map(|&(t, _)| t).collect();
                    let want_idx: Vec<usize> = want.iter().map(|&(t, _)| t).collect();
                    prop_assert_eq!(&got_idx, &want_idx, "q={} k={}", q, k);
                    for (g, w) in ranked.iter().zip(&want) {
                        prop_assert!((g.1 - w.1).abs() < 1e-5, "q={} {:?} vs {:?}", q, g, w);
                    }
                }
            }
        }
    }

    /// A matrix round-trips through `TDZ1` container sections losslessly
    /// — borrowed (zero-copy) and owned loads are both bit-identical to
    /// the original, and rankings computed from the loaded matrices are
    /// exactly the in-memory rankings.
    #[test]
    fn matrix_container_roundtrip_is_lossless(
        dim in 0usize..10,
        n_queries in 0usize..14,
        n_targets in 0usize..24,
        k in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        use tdmatch_graph::container::{ContainerWriter, Storage};

        let mut state = seed ^ 0xC0FFEE;
        let queries = gen_rows(n_queries, dim, &mut state);
        let targets = gen_rows(n_targets, dim, &mut state);
        let qm = ScoreMatrix::from_options_dim(&queries, dim);
        let tm = ScoreMatrix::from_options_dim(&targets, dim);

        let mut w = ContainerWriter::new();
        qm.write_sections(0, &mut w);
        tm.write_sections(1, &mut w);
        let storage = Storage::from_bytes(&w.finish());
        let container = storage.container().unwrap();

        let qb = ScoreMatrix::from_sections(&storage, &container, 0).unwrap();
        let tb = ScoreMatrix::from_sections(&storage, &container, 1).unwrap();
        prop_assert!(qb.is_zero_copy() && tb.is_zero_copy());
        prop_assert_eq!(&qm, &qb);
        prop_assert_eq!(&tm, &tb);

        let qo = qb.clone().into_owned();
        let to = tb.clone().into_owned();
        prop_assert!(!qo.is_zero_copy());
        prop_assert_eq!(&qm, &qo);
        prop_assert_eq!(&tm, &to);

        let want = batch_top_k_seq(&qm, &tm, k, None, None);
        prop_assert_eq!(&want, &batch_top_k_seq(&qb, &tb, k, None, None));
        prop_assert_eq!(&want, &batch_top_k_seq(&qo, &to, k, None, None));
    }
}
