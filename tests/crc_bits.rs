//! Root-level contract: the workspace checksum and the files written
//! with it are pinned, bit for bit.
//!
//! Every TDZ1/TDM1/TDG1 file ever written carries CRC-32 values from
//! `tdmatch::graph::codec::crc32`; a kernel change that moved one bit of
//! any checksum would turn every stored file into `Corrupt`, and one
//! that moved a written byte would break `cmp`-level interchange between
//! builds. The crate-level tests compare the kernel with a bytewise
//! reference inside one build; this test pins the *absolute* values so
//! tier-1 cannot go green while both move together.
//!
//! The expected values were recorded on the parent commit (23983ce, the
//! one-byte-per-step table loop), *before* the kernel was touched — the
//! way `train_bits.rs` pinned training. Prefix lengths 0..=48 cover the
//! bytewise tail alone (< 16), one to three 16-byte steps, and every
//! tail length after them; the 1 MiB buffer covers the steady state.
//! Two hashes recorded on 9d5caa6 (slice-by-16), before the folding
//! kernel, pin every length up to 1 KiB at every start offset mod 16 —
//! across the fold's 64-byte threshold and every tail after it — and
//! the running `Crc32` fed in seeded random pieces.

use tdmatch::core::artifact::MatchArtifact;
use tdmatch::embed::ann::HnswParams;
use tdmatch::graph::codec::{crc32, Crc32};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// FNV-1a over raw bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `crc32(&buf[..n])` for `n` in `0..=48`, recorded on 23983ce.
#[rustfmt::skip]
const PREFIX_CRCS: [u32; 49] = [
    0x0000_0000, 0x1663_A535, 0x271B_487F, 0xCF92_E4A1, 0xB77D_A4AF, 0x590B_2AC3,
    0xE583_DF57, 0x3232_854C, 0xFC84_D089, 0x4D41_8FF8, 0x95FD_617D, 0x46F3_2968,
    0x0549_CE4A, 0x8202_D77F, 0x6750_226B, 0x696E_F8AC, 0x1B67_A1F3, 0x9DC6_7A7E,
    0xBB99_EB09, 0x11B5_F8C7, 0x411A_A5E8, 0x6125_8F06, 0xE30D_44ED, 0xDB57_AEE2,
    0x91B0_5149, 0x7B2F_F18F, 0x9ACB_F637, 0x9C9C_A72F, 0x8FF6_6828, 0x9D52_EBB7,
    0x234B_5F24, 0x37F4_1ADF, 0xF75A_C937, 0x3CFB_D468, 0xCDE4_9737, 0x401D_8581,
    0x144E_2BBA, 0x051B_7348, 0x4C63_615D, 0xF221_095F, 0x0B26_9458, 0x98D6_6C58,
    0x684A_0FE4, 0xE304_2B6D, 0xB53C_A16A, 0x300F_A938, 0xE35C_6ECB, 0xBF3C_5708,
    0xB9D6_822E,
];

/// `crc32` of the whole seeded 1 MiB buffer, recorded on 23983ce.
const MIB_CRC: u32 = 0x7122_96A1;

/// FNV-1a of the file `fixed_artifact().save` writes, recorded on 23983ce.
const ARTIFACT_FILE_HASH: u64 = 0x6F2F_752C_DF2C_0ABF;
const ARTIFACT_FILE_LEN: usize = 22_336;

/// FNV-1a over the little-endian `crc32(&buf[off..off + len])` for every
/// `off` in `0..=15` (outer) and `len` in `0..=1024` (inner), recorded on
/// 9d5caa6 (the slice-by-16 table loop) before the folding kernel: every
/// length across the fold threshold and every tail after it.
const WINDOW_CRCS_HASH: u64 = 0xD216_0338_2EBE_DAA2;

/// FNV-1a over the little-endian checksums of 64 seeded buffers, each fed
/// to `Crc32` in seeded random pieces, recorded on 9d5caa6.
const SPLIT_CRCS_HASH: u64 = 0x7F51_5CE8_0FE4_29E3;

#[test]
fn checksums_of_a_seeded_buffer_are_pinned() {
    let buf = seeded_bytes(1 << 20, 0xC4C3_2B17);
    let prefixes: Vec<u32> = (0..=48).map(|n| crc32(&buf[..n])).collect();
    assert_eq!(prefixes, PREFIX_CRCS, "prefix checksums 0..=48");
    assert_eq!(crc32(&buf), MIB_CRC, "1 MiB checksum");
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "CRC-32/ISO-HDLC check value");
}

#[test]
fn checksums_at_every_length_and_offset_to_1_kib_are_pinned() {
    let buf = seeded_bytes(1024 + 15, 0x0FF5_E7C4);
    let mut crcs = Vec::with_capacity(16 * 1025 * 4);
    for off in 0..=15 {
        for len in 0..=1024 {
            crcs.extend_from_slice(&crc32(&buf[off..off + len]).to_le_bytes());
        }
    }
    assert_eq!(fnv1a(&crcs), WINDOW_CRCS_HASH, "{:#018X}", fnv1a(&crcs));
}

#[test]
fn running_checksums_over_seeded_splits_are_pinned() {
    let mut state = 0x5B17_C0DEu64;
    let mut crcs = Vec::with_capacity(64 * 4);
    for round in 0..64 {
        let len = (splitmix64(&mut state) % 6000) as usize;
        let buf = seeded_bytes(len, round);
        let mut crc = Crc32::new();
        let mut at = 0;
        while at < len {
            let r = splitmix64(&mut state);
            // Short tails, pieces around the 64-byte fold block, and long runs.
            let piece = match r % 4 {
                0 => (r >> 8) % 16,
                1 => 40 + (r >> 8) % 48,
                2 => (r >> 8) % 300,
                _ => (r >> 8) % 3000,
            } as usize;
            let end = (at + piece).min(len);
            crc.update(&buf[at..end]);
            at = end;
        }
        let sum = crc.finish();
        assert_eq!(sum, crc32(&buf), "round {round}: split ≡ one pass");
        crcs.extend_from_slice(&sum.to_le_bytes());
    }
    assert_eq!(fnv1a(&crcs), SPLIT_CRCS_HASH, "{:#018X}", fnv1a(&crcs));
}

fn vector(state: &mut u64, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| (splitmix64(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect()
}

/// A small artifact with every section kind a served file has: terms,
/// both document matrices (with missing rows, so the validity bitmaps
/// are not all-ones) and an HNSW index over the first corpus.
fn fixed_artifact() -> MatchArtifact {
    const DIM: usize = 12;
    let mut state = 0xA271_FAC7u64;
    let terms = (0..40)
        .map(|i| (format!("term{i:02}"), vector(&mut state, DIM)))
        .collect();
    let mut docs = |n: usize, missing_every: usize| -> Vec<Option<Vec<f32>>> {
        (0..n)
            .map(|i| (i % missing_every != missing_every - 1).then(|| vector(&mut state, DIM)))
            .collect()
    };
    let first = docs(150, 13);
    let second = docs(20, 7);
    let mut artifact = MatchArtifact::new(DIM, terms, first, second);
    artifact.build_ann(&HnswParams {
        m: 8,
        ef_construction: 40,
        seed: 11,
    });
    artifact
}

#[test]
fn saved_artifact_bytes_are_pinned() {
    let artifact = fixed_artifact();
    let path = std::env::temp_dir().join(format!("tdmatch-crc-bits-{}.tdm", std::process::id()));
    artifact.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let loaded = MatchArtifact::load(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (ARTIFACT_FILE_LEN, ARTIFACT_FILE_HASH),
        "bytes written by MatchArtifact::save"
    );
    assert_eq!(loaded.unwrap(), artifact, "the pinned file loads back equal");
}
