//! Property tests pinning the engine-backed matcher to the seed
//! implementation: [`top_k_matches_matrix`] must produce exactly the
//! same rankings — indices and tie-breaks — as the legacy
//! nested-`Option` cosine + full-sort path ([`top_k_matches_naive`]),
//! with scores within 1e-5, across random dims, missing rows, k
//! above/below the target count, blocking, and extra-score combination.

use proptest::prelude::*;

use tdmatch_core::matcher::{top_k_matches_matrix, top_k_matches_naive};
use tdmatch_embed::score::ScoreMatrix;

/// SplitMix64 — deterministic vector material from a proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// Optional rows: ~1/5 missing, ~1/7 all-zero, rest random in [-1, 1).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine ≡ seed path under either packing, for every combination of
    /// blocking / extra-score.
    #[test]
    fn matcher_is_pinned_to_the_seed_path(
        dim in 1usize..12,
        n_queries in 0usize..9,
        n_targets in 0usize..16,
        k in 0usize..20,
        seed in 0u64..1_000_000,
        use_extra in 0u8..2,
        blocking in 0u8..3,
    ) {
        let mut state = seed ^ 0xF00D;
        let queries = gen_rows(n_queries, dim, &mut state);
        let targets = gen_rows(n_targets, dim, &mut state);

        let extra_fn = |q: usize, t: usize| ((q * 29 + t * 13) % 17) as f32 / 17.0 - 0.4;
        // blocking == 1: a deterministic subset (sometimes empty);
        // blocking == 2: subset with duplicated candidates.
        let cand_fn = move |q: usize| {
            let mut c: Vec<usize> = (0..n_targets)
                .filter(|t| !(t * 7 + q * 3 + 1).is_multiple_of(3))
                .collect();
            if blocking == 2 {
                let dups: Vec<usize> =
                    c.iter().copied().filter(|t| t % 5 == 0).collect();
                c.extend(dups);
            }
            c
        };
        let extra: Option<&dyn Fn(usize, usize) -> f32> =
            if use_extra == 1 { Some(&extra_fn) } else { None };
        let cand: Option<&dyn Fn(usize) -> Vec<usize>> =
            if blocking > 0 { Some(&cand_fn) } else { None };

        let naive = top_k_matches_naive(&queries, &targets, k, extra, cand);
        // Dimension-inferring packing: an all-`None` side packs to dim 0.
        let (qi, ti) = (ScoreMatrix::from_options(&queries), ScoreMatrix::from_options(&targets));
        let engine = top_k_matches_matrix(&qi, &ti, k, extra, cand);

        prop_assert_eq!(naive.len(), engine.len());
        for (n, e) in naive.iter().zip(&engine) {
            prop_assert_eq!(n.query, e.query);
            prop_assert_eq!(
                &n.target_indices(), &e.target_indices(),
                "q={} k={} extra={} blocking={}", n.query, k, use_extra, blocking
            );
            for (a, b) in n.ranked.iter().zip(&e.ranked) {
                prop_assert!(
                    (a.1 - b.1).abs() < 1e-5,
                    "q={} score {:?} vs {:?}", n.query, a, b
                );
            }
        }

        // Packing with the dimension given agrees bit-for-bit with the
        // inferred one.
        let qm = ScoreMatrix::from_options_dim(&queries, dim);
        let tm = ScoreMatrix::from_options_dim(&targets, dim);
        prop_assert_eq!(&engine, &top_k_matches_matrix(&qm, &tm, k, extra, cand));
    }
}
