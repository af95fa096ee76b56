//! Property tests for the flat similarity engine: the pre-normalized
//! [`ScoreMatrix`] + bounded [`TopK`] batch path must rank exactly like
//! the naive cosine + full-sort oracle (indices and tie-breaks; scores
//! within 1e-5).

use proptest::prelude::*;

use tdmatch_embed::score::{
    batch_top_k_seq, dot_unrolled, dot_unrolled4, naive_rank, select_top_k, QueryBlock,
    ScoreMatrix, QUERY_BLOCK,
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

/// Target rows in one tile of the exact scan at `dim`: `score.rs`'s
/// `target_block_len`, 32 KiB of rows clamped to 16..=1024.
fn tile_rows(dim: usize) -> usize {
    (32 * 1024 / (dim.max(1) * 4)).clamp(16, 1024)
}

/// `n` target rows for the gated-feed properties: ~1/6 missing, ~1/4 a
/// copy of the row before (runs of equal scores, which straddle tile
/// ends and four-row groups), ~1/12 all-zero, the rest uniform.
fn gen_scan_rows(n: usize, dim: usize, state: &mut u64) -> Vec<Option<Vec<f32>>> {
    let mut rows: Vec<Option<Vec<f32>>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = match splitmix(state) % 12 {
            0 | 1 => None,
            2..=4 if i > 0 => rows[i - 1].clone(),
            5 => Some(vec![0.0; dim]),
            _ => Some((0..dim).map(|_| unit(state)).collect()),
        };
        rows.push(row);
    }
    rows
}

/// The `k` the gated-feed properties run at, by index: none, one, the
/// served 20, every row, and more than every row.
fn scan_k(pick: usize, rows: usize) -> usize {
    [0, 1, 20, rows, rows + 5][pick]
}

/// Every target offered to the plain heap one at a time, in index
/// order, through the one-row dot, as `(index, score bits)` (a NaN held
/// to one value, see [`bits`]): what the gated feed must give.
fn pushed_one_by_one(qrow: &[f32], targets: &ScoreMatrix, k: usize) -> Vec<(usize, u32)> {
    let scores = (0..targets.rows()).map(|t| {
        let valid = targets.is_valid(t);
        (t, if valid { dot_unrolled(qrow, targets.row(t)) } else { -1.0 })
    });
    select_top_k(scores, k).into_iter().map(|(t, s)| (t, bits(s))).collect()
}

fn as_bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(t, s)| (t, bits(s))).collect()
}

/// `got` ranks like the naive cosine oracle `want`: the same length,
/// scores within 1e-5 place by place, distinct indices, and where an
/// index differs the two targets' oracle scores are within 1e-5 (a near
/// tie the two roundings order differently). Exact ties are held to
/// their index order by [`pushed_one_by_one`].
fn assert_ranks_like_naive(
    got: &[(usize, f32)],
    want: &[(usize, f32)],
    query: &[f32],
    targets: &[Option<Vec<f32>>],
    what: &str,
) {
    assert_eq!(got.len(), want.len(), "{what}");
    let mut seen = std::collections::HashSet::new();
    for (g, w) in got.iter().zip(want) {
        assert!(seen.insert(g.0), "{what}: {} ranked twice", g.0);
        assert!((g.1 - w.1).abs() < 1e-5, "{what}: {g:?} vs {w:?}");
        if g.0 != w.0 {
            let oracle = targets[g.0].as_ref().map_or(-1.0, |t| tdmatch_embed::cosine(query, t));
            assert!((oracle - w.1).abs() < 1e-5, "{what}: {g:?} in place of {w:?}");
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exact scan, gated top-k feed included, ranks like the naive
    /// cosine oracle and, bit for bit, like offering every score to the
    /// heap in turn: at dims drawn from 0 to 130, over up to two tiles
    /// and a half of rows, with missing rows, runs of equal rows,
    /// missing query rows, more queries than one block, and k of 0, 1,
    /// 20, every row and more.
    #[test]
    fn gated_scan_matches_naive_rank(
        dim in 0usize..=130,
        tiles_x4 in 0usize..10,
        extra in 0usize..8,
        pick in 0usize..5,
        n_queries in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0x5CA9;
        let n = tile_rows(dim) * tiles_x4 / 4 + extra;
        let k = scan_k(pick, n);
        let targets = gen_scan_rows(n, dim, &mut state);
        let queries = gen_rows(n_queries, dim, &mut state);
        let tm = ScoreMatrix::from_options_dim(&targets, dim);
        let qm = ScoreMatrix::from_options_dim(&queries, dim);
        let got = batch_top_k_seq(&qm, &tm, k, None, None);
        prop_assert_eq!(got.len(), n_queries);
        for (q, ranked) in got.iter().enumerate() {
            let Some(qv) = &queries[q] else {
                prop_assert!(ranked.is_empty(), "missing query {} ranked", q);
                continue;
            };
            let what = format!("dim {dim}, {n} rows, k {k}, query {q}");
            assert_ranks_like_naive(ranked, &naive_rank(qv, &targets, k), qv, &targets, &what);
            prop_assert_eq!(as_bits(ranked), pushed_one_by_one(qm.row(q), &tm, k), "{}", what);
        }
    }

    /// The same through a [`QueryBlock`], the daemon's batch: raw and
    /// missing slots mixed, unused slots left over; and against an
    /// all-missing target matrix, whose inferred dim is 0, every query
    /// ranks every target at −1.0 by index.
    #[test]
    fn gated_scan_over_a_query_block(
        dim in 1usize..=130,
        tiles_x4 in 0usize..10,
        pick in 0usize..5,
        slots in prop::collection::vec(0u8..3, 0..=QUERY_BLOCK),
        all_missing in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0xB10C;
        let n = tile_rows(dim) * tiles_x4 / 4 + 3;
        let k = scan_k(pick, n);
        let targets = if all_missing == 0 {
            vec![None; n]
        } else {
            gen_scan_rows(n, dim, &mut state)
        };
        let tm = ScoreMatrix::from_options(&targets);
        let mut block = QueryBlock::new(dim);
        let mut pushed = Vec::new();
        for &slot in &slots {
            if slot == 0 {
                block.push_missing();
                pushed.push(None);
            } else {
                let v: Vec<f32> = (0..dim).map(|_| unit(&mut state)).collect();
                block.push_raw(&v);
                pushed.push(Some(v));
            }
        }
        let got = batch_top_k_seq(block.matrix(), &tm, k, None, None);
        prop_assert_eq!(got.len(), QUERY_BLOCK);
        for (q, ranked) in got.iter().enumerate() {
            let Some(Some(qv)) = pushed.get(q) else {
                prop_assert!(ranked.is_empty(), "missing or unused slot {} ranked", q);
                continue;
            };
            let what = format!("dim {dim}, {n} rows, k {k}, slot {q}");
            assert_ranks_like_naive(ranked, &naive_rank(qv, &targets, k), qv, &targets, &what);
            let want = pushed_one_by_one(block.matrix().row(q), &tm, k);
            prop_assert_eq!(as_bits(ranked), want, "{}", what);
            if all_missing == 0 {
                let want: Vec<(usize, f32)> = (0..n.min(k)).map(|t| (t, -1.0)).collect();
                prop_assert_eq!(ranked, &want);
            }
        }
    }

    /// Non-finite stored rows and zero scores: a row holding a NaN scores
    /// NaN, which ranks above every number; a row holding ±inf normalizes
    /// to NaNs of the other sign, which rank below −1.0; zero rows and
    /// rows of −0.0 score exactly 0. The gated feed keeps each where
    /// pushing every score in turn does, across tile ends.
    #[test]
    fn gated_scan_keeps_non_finite_rows_in_place(
        dim in 1usize..=130,
        tiles_x4 in 4usize..12,
        pick in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0x1AF;
        let n = tile_rows(dim) * tiles_x4 / 4 + 1;
        let k = scan_k(pick, n);
        let mut targets = gen_scan_rows(n, dim, &mut state);
        for row in targets.iter_mut() {
            let at = splitmix(&mut state) as usize % dim;
            let with_edge = |edge: f32, rest: f32| {
                let mut v = vec![rest; dim];
                v[at] = edge;
                Some(v)
            };
            match splitmix(&mut state) % 40 {
                0 => *row = with_edge(f32::NAN, 0.5),
                1 => *row = with_edge(f32::INFINITY, 0.5),
                2 => *row = with_edge(f32::NEG_INFINITY, -0.5),
                3 | 4 => *row = Some(vec![-0.0; dim]),
                _ => {}
            }
        }
        let tm = ScoreMatrix::from_options_dim(&targets, dim);
        let queries = gen_rows(QUERY_BLOCK + 2, dim, &mut state);
        let qm = ScoreMatrix::from_options_dim(&queries, dim);
        let got = batch_top_k_seq(&qm, &tm, k, None, None);
        for (q, ranked) in got.iter().enumerate() {
            if !qm.is_valid(q) {
                prop_assert!(ranked.is_empty());
                continue;
            }
            prop_assert_eq!(
                as_bits(ranked),
                pushed_one_by_one(qm.row(q), &tm, k),
                "dim {}, {} rows, k {}, query {}", dim, n, k, q
            );
        }
    }
}
