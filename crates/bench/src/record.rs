//! What the two perf recorders (`bench_ann`, `bench_persist`) share: the
//! planted-cluster corpus generator, best-of-N timing, and the JSON file
//! each writes at the repository root through the serving codec's
//! streaming [`Writer`], headed by the host it was recorded on.

use std::time::Instant;

pub use tdmatch_serve::json::Writer;

/// SplitMix64: a small seedable stream, the same on every host.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [-1, 1).
fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// Cluster centers, entries in [-1, 1).
pub fn gen_centers(count: usize, dim: usize, state: &mut u64) -> Vec<Vec<f32>> {
    (0..count)
        .map(|_| (0..dim).map(|_| unit(state)).collect())
        .collect()
}

/// Synthetic embeddings with planted cluster structure — the shape
/// fitted score matrices take (documents about one entity embed near
/// each other), and the standard ANN-benchmark workload. Each row is a
/// shared center plus ±0.3 per-dim noise (≈17° angular spread after
/// normalization); ~2% of rows are missing. Uniform random vectors would
/// instead concentrate all pairwise distances — a workload where *no*
/// metric index can beat a linear scan and which no real embedding
/// matrix resembles.
pub fn gen_side(
    n: usize,
    dim: usize,
    centers: &[Vec<f32>],
    state: &mut u64,
) -> Vec<Option<Vec<f32>>> {
    (0..n)
        .map(|_| {
            if splitmix(state).is_multiple_of(50) {
                None
            } else {
                let c = &centers[(splitmix(state) % centers.len() as u64) as usize];
                Some((0..dim).map(|j| c[j] + 0.3 * unit(state)).collect())
            }
        })
        .collect()
}

/// Runs `f` `reps` times (at least once); returns the first result and
/// the best wall time in seconds.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    let mut secs = t.elapsed().as_secs_f64();
    for _ in 1..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        secs = secs.min(t.elapsed().as_secs_f64());
    }
    (out, secs)
}

/// `x` rounded to `digits` decimals, so a recorded figure carries no
/// more precision than the timer gives it.
pub fn round(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

/// The CPU model `/proc/cpuinfo` names first, if it names one.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(key, _)| key.trim() == "model name")
        .map(|(_, value)| value.trim().to_string())
}

/// Writes `BENCH_<name>.json` at the repository root: one object whose
/// `bench` member is `bench`, whose `host` member names the CPU model and
/// the available parallelism, and whose remaining members `members`
/// writes — in ascending key order after `host`, as [`Writer`] requires.
pub fn write_bench_json(name: &str, bench: &str, members: impl FnOnce(&mut Writer)) {
    let mut json = String::new();
    Writer::new(&mut json).obj(|w| {
        w.key("bench").str(bench);
        w.key("host").obj(|w| {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            w.key("available_parallelism").num(threads as f64);
            match cpu_model() {
                Some(model) => w.key("cpu").str(&model),
                None => w.key("cpu").null(),
            }
        });
        members(w);
    });
    json.push('\n');
    let out = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
