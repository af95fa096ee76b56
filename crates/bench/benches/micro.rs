//! Criterion micro-benchmarks for the hot components: preprocessing,
//! graph construction, traversal, random walks, Word2Vec epochs, cosine
//! top-k, and MSP compression — plus hand-timed GB/s for the checksum
//! and for the exact scan against the host's read roofline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

use tdmatch_compress::{msp_compress, MspConfig};
use tdmatch_core::builder::build_graph;
use tdmatch_core::config::TdConfig;
use tdmatch_datasets::{imdb, Scale};
use tdmatch_embed::neg_table::NegativeTable;
use tdmatch_embed::score::{batch_top_k_seq, dot_unrolled, dot_unrolled4, QueryBlock, ScoreMatrix};
use tdmatch_embed::walks::{generate_walk_corpus, WalkConfig, WalkStrategy};
use tdmatch_embed::word2vec::{train_corpus, Word2VecConfig};
use tdmatch_graph::codec::crc32;
use tdmatch_graph::traverse::{all_shortest_paths, bfs_distances};
use tdmatch_graph::{CorpusSide, CsrGraph, EdgeTypeWeights, Graph};
use tdmatch_text::Preprocessor;

fn tiny_graph() -> Graph {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    build_graph(
        &scenario.first,
        &scenario.second,
        &TdConfig::for_tests(),
        None,
    )
    .graph
}

fn bench_preprocess(c: &mut Criterion) {
    let pre = Preprocessor::default();
    let text = "The Sixth Sense delivers a brilliant thriller full of suspense \
                and mystery with Bruce Willis giving a subtle performance";
    c.bench_function("preprocess/terms", |b| {
        b.iter(|| black_box(pre.terms(black_box(text))))
    });
}

fn bench_graph_build(c: &mut Criterion) {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let config = TdConfig::for_tests();
    c.bench_function("graph/build_imdb_tiny", |b| {
        b.iter(|| {
            black_box(build_graph(
                &scenario.first,
                &scenario.second,
                &config,
                None,
            ))
        })
    });
}

fn bench_traversal(c: &mut Criterion) {
    let g = tiny_graph();
    let meta = g.matchable_nodes(CorpusSide::First);
    let queries = g.matchable_nodes(CorpusSide::Second);
    c.bench_function("graph/bfs_distances", |b| {
        b.iter(|| black_box(bfs_distances(&g, meta[0])))
    });
    c.bench_function("graph/all_shortest_paths", |b| {
        b.iter(|| black_box(all_shortest_paths(&g, queries[0], meta[0], 16)))
    });
}

/// Walk generation over the CSR snapshot for each strategy, the
/// snapshot freeze, corpus iteration and counting, and one Word2Vec
/// epoch over the walked corpus.
fn bench_walks_and_train(c: &mut Criterion) {
    let g = tiny_graph();
    let csr = CsrGraph::from_graph(&g);
    for (tag, strategy) in [
        ("uniform", WalkStrategy::Uniform),
        ("node2vec", WalkStrategy::Node2Vec { p: 0.5, q: 2.0 }),
        ("edge_typed", WalkStrategy::EdgeTyped(EdgeTypeWeights::uniform())),
    ] {
        let cfg = WalkConfig {
            walks_per_node: 5,
            walk_len: 10,
            seed: 1,
            strategy,
        };
        c.bench_function(&format!("walks/{tag}/flat_csr"), |b| {
            b.iter(|| black_box(generate_walk_corpus(&csr, &cfg)))
        });
    }

    c.bench_function("graph/csr_snapshot_build", |b| {
        b.iter(|| black_box(CsrGraph::from_graph(&g)))
    });

    let cfg = WalkConfig {
        walks_per_node: 5,
        walk_len: 10,
        seed: 1,
        strategy: WalkStrategy::Uniform,
    };
    let flat = generate_walk_corpus(&csr, &cfg);
    c.bench_function("corpus/iterate_flat", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for sent in flat.sentences() {
                for &tok in sent {
                    acc = acc.wrapping_add(tok as u64);
                }
            }
            black_box(acc)
        })
    });
    c.bench_function("corpus/counts_flat", |b| {
        b.iter(|| black_box(flat.token_counts(g.id_bound(), false)))
    });

    let counts = flat.token_counts(g.id_bound(), false);
    let w2v = Word2VecConfig {
        dim: 32,
        epochs: 1,
        ..Default::default()
    };
    c.bench_function("embed/w2v_epoch_flat", |b| {
        b.iter(|| black_box(train_corpus(&flat, &counts, &w2v)))
    });
}

fn bench_topk(c: &mut Criterion) {
    let dim = 64;
    let vectors: Vec<Vec<f32>> = (0..1000)
        .map(|i| (0..dim).map(|d| ((i * d) % 97) as f32 / 97.0).collect())
        .collect();
    let refs: Vec<&[f32]> = vectors.iter().map(|v| v.as_slice()).collect();
    let query: Vec<f32> = (0..dim).map(|d| d as f32 / dim as f32).collect();
    // One-off matrix build vs the normalize-once / dot-many steady state.
    let tm = ScoreMatrix::from_rows(refs.iter().copied(), dim);
    let qm = ScoreMatrix::from_rows(std::iter::once(query.as_slice()), dim);
    c.bench_function("match/score_matrix_build_1000", |b| {
        b.iter(|| black_box(ScoreMatrix::from_rows(refs.iter().copied(), dim)))
    });
    c.bench_function("match/engine_top_k_1000", |b| {
        b.iter(|| black_box(batch_top_k_seq(&qm, &tm, 20, None, None)))
    });
}

/// One negative draw — a range draw mapped through the sampler's index —
/// at the `fit-table` vocabulary and table size. This times the lookup
/// alone: a tight loop keeps *any* table cache-resident, the 4 MiB one
/// this index replaced included, so it cannot show what the index is
/// for. The evidence for that is `word2vec.train_s` in the repository
/// benchmark, where draws interleave with the weight rows they evicted.
fn bench_neg_table(c: &mut Criterion) {
    let counts: Vec<u64> = (0..2792u64).map(|w| 1 + 20_000 / (w + 1)).collect();
    let table = NegativeTable::new(&counts, 1 << 20);
    let mut rng = SmallRng::seed_from_u64(7);
    c.bench_function("neg_table/sample_v2792_1m", |b| {
        b.iter(|| black_box(table.sample(&mut rng)))
    });
}

fn bench_compression(c: &mut Criterion) {
    let g = tiny_graph();
    c.bench_function("compress/msp_beta_0.25", |b| {
        b.iter_batched(
            || g.clone(),
            |g| {
                black_box(msp_compress(
                    &g,
                    &MspConfig {
                        beta: 0.25,
                        ..Default::default()
                    },
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

/// Best-of-12 wall time of `run`, in seconds: the hand-timed benches
/// below report GB/s, which the criterion harness cannot.
fn best_of_12(mut run: impl FnMut()) -> f64 {
    (0..12)
        .map(|_| {
            let t = std::time::Instant::now();
            run();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The one-byte-per-step CRC-32 loop `codec::crc32` used before the
/// slice-by-16 kernel: the baseline the kernel's GB/s is read against.
fn crc32_reference(data: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
        *entry = c;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Checksum throughput at the two artifact sizes the repository
/// benchmark writes: 424 KB (`ingest`, fits L2) and 12 MB (`serve-scan`,
/// streams from memory). Timed here rather than through `bench_function`
/// because the figure of merit is GB/s — the checksum as a fraction of
/// what the machine can read — and the harness reports only time.
fn bench_crc32(_: &mut Criterion) {
    type Checksum = fn(&[u8]) -> u32;
    let impls: [(&str, Checksum); 2] = [("reference", crc32_reference), ("kernel", crc32)];
    for (label, len) in [("424KB", 424 << 10), ("12MB", 12 << 20)] {
        let buf: Vec<u8> = (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        assert_eq!(crc32(&buf), crc32_reference(&buf));
        for (name, checksum) in impls {
            let best = best_of_12(|| {
                black_box(checksum(black_box(&buf)));
            });
            println!(
                "{:<40} min {:>9.3} ms  {:>6.2} GB/s",
                format!("crc32/{name}/{label}"),
                best * 1e3,
                len as f64 / best / 1e9
            );
        }
    }
}

/// A streaming read with 32 independent accumulator lanes (eight `xmm`
/// registers): enough adds in flight that memory, not the add chain,
/// bounds it.
fn stream_sum(data: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 32];
    let mut chunks = data.chunks_exact(32);
    for c in &mut chunks {
        for l in 0..32 {
            lanes[l] += c[l];
        }
    }
    black_box(lanes).iter().chain(chunks.remainder()).sum()
}

/// The exact scan against this host's read roofline, at `serve-scan`'s
/// size: a 32,768 × 96 matrix, 12.6 MB against a 4 MiB L2. The
/// roofline is [`stream_sum`] over the same bytes; the scan is one query
/// dotted with every row, per row through `dot_unrolled` and four rows
/// at a time through `dot_unrolled4` (the kernel alone), and then the
/// scan a request runs: `batch_top_k_seq` over a [`QueryBlock`] holding
/// one query, at k = 20, tiles, top-k feed and dispatch included. Timed
/// by hand like the checksum, because the figure of merit is GB/s and
/// the scan's share of the roofline.
fn bench_scan_roofline(_: &mut Criterion) {
    let (rows, dim) = (32_768, 96);
    let matrix: Vec<f32> = (0..(rows * dim) as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 8) as f32 / (1 << 24) as f32 - 0.5)
        .collect();
    let query = matrix[..dim].to_vec();
    let bytes = (rows * dim * 4) as f64;
    let mut scores = vec![0.0f32; rows];

    let roofline = best_of_12(|| {
        black_box(stream_sum(black_box(&matrix)));
    });
    let per_row = best_of_12(|| {
        for (s, row) in scores.iter_mut().zip(matrix.chunks_exact(dim)) {
            *s = dot_unrolled(&query, row);
        }
        black_box(&scores);
    });
    let want = scores.clone();
    let four_row = best_of_12(|| {
        for (s, four) in scores.chunks_exact_mut(4).zip(matrix.chunks_exact(4 * dim)) {
            let (r0, rest) = four.split_at(dim);
            let (r1, rest) = rest.split_at(dim);
            let (r2, r3) = rest.split_at(dim);
            s.copy_from_slice(&dot_unrolled4(&query, [r0, r1, r2, r3]));
        }
        black_box(&scores);
    });
    assert_eq!(scores, want, "the four-row kernel must match the per-row kernel");
    let targets = ScoreMatrix::from_rows(matrix.chunks_exact(dim), dim);
    let mut block = QueryBlock::new(dim);
    block.push_raw(&query);
    let served = best_of_12(|| {
        black_box(batch_top_k_seq(block.matrix(), &targets, 20, None, None));
    });

    for (name, secs) in [
        ("score/read_roofline_12mb", roofline),
        ("score/scan_32k_x96/per_row", per_row),
        ("score/scan_32k_x96/four_row", four_row),
        ("score/scan_32k_x96/served_k20", served),
    ] {
        println!(
            "{name:<40} min {:>9.3} ms  {:>6.2} GB/s  {:>5.1}% of roofline",
            secs * 1e3,
            bytes / secs / 1e9,
            100.0 * roofline / secs
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_preprocess, bench_graph_build, bench_traversal,
              bench_walks_and_train, bench_topk,
              bench_neg_table, bench_compression, bench_crc32,
              bench_scan_roofline
}
criterion_main!(benches);
