//! Low-level binary codec under the workspace's one persisted format,
//! the `TDZ1` zero-copy container.
//!
//! The one CRC-32 implementation, the little-endian integer writers, and
//! the bounds-checked [`ByteReader`] live here; [`crate::container`]
//! builds the section-table format on top.

use std::io;

/// Errors raised when encoding or decoding persisted state.
#[derive(Debug)]
pub enum DecodeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Wrong magic bytes — not this format.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion {
        /// Version found in the input.
        found: u32,
    },
    /// Checksum mismatch or truncation.
    Corrupt,
    /// Structurally invalid content (bad enum tag, non-UTF-8 label,
    /// out-of-range reference, implausible header field).
    Invalid(&'static str),
}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Io(e)
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "I/O error: {e}"),
            DecodeError::BadMagic => write!(f, "bad magic (not a TDZ1 container)"),
            DecodeError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            DecodeError::Corrupt => write!(f, "checksum mismatch or truncated input"),
            DecodeError::Invalid(what) => write!(f, "invalid content: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Reflected IEEE 802.3 generator polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables. `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[k][b]` is the CRC state left by byte `b` followed
/// by `k` zero bytes, so sixteen input bytes fold into the state with
/// sixteen independent loads instead of a sixteen-deep dependent chain.
/// Built at compile time: 16 KiB of rodata, nothing to initialise.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Running CRC-32 state: `new` → any number of `update`s → `finish`
/// equals [`crc32`] over the concatenation of the updated slices.
pub struct Crc32(u32);

impl Crc32 {
    /// The state before any byte.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `data` into the state.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if folds(data.len()) {
            // SAFETY: `fold_pclmul` only enables PCLMULQDQ, which this CPU has.
            self.0 = unsafe { fold_pclmul(self.0, data) };
            return;
        }
        self.0 = slice_by_16(self.0, data);
    }

    /// The checksum of every byte updated so far.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// The portable kernel and the reference for the fold: sixteen bytes per
/// step through [`CRC_TABLES`], a bytewise step for the under-16-byte
/// tail. Takes and returns the raw register (no init or xorout).
fn slice_by_16(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let word = |at: usize| {
            u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
        };
        let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][(d & 0xFF) as usize]
            ^ t[2][((d >> 8) & 0xFF) as usize]
            ^ t[1][((d >> 16) & 0xFF) as usize]
            ^ t[0][(d >> 24) as usize];
    }
    for &byte in blocks.remainder() {
        crc = t[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The shortest input [`Crc32::update`] folds: one 64-byte block, the
/// four accumulators' first load.
#[cfg(any(test, target_arch = "x86_64"))]
const FOLD_MIN: usize = 64;

/// True when [`Crc32::update`] hands `len` bytes to [`fold_pclmul`]
/// rather than [`slice_by_16`]: on an `x86_64` CPU with PCLMULQDQ, for
/// inputs of at least [`FOLD_MIN`] bytes.
#[cfg(any(test, target_arch = "x86_64"))]
fn folds(len: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    return len >= FOLD_MIN && std::arch::is_x86_feature_detected!("pclmulqdq");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// CRC-32 by carry-less multiplication, after Gopal et al., *Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ* (Intel, 2009),
/// with their constants for the reflected `0x04C11DB7`. Four 128-bit
/// accumulators fold 64-byte blocks, reduce to one, fold the remaining
/// 16-byte blocks, and a Barrett reduction leaves 32 bits;
/// [`slice_by_16`] takes the under-16-byte tail. The same function of
/// the input as [`slice_by_16`], so the same checksums. Takes and returns
/// the raw register; `data` holds at least [`FOLD_MIN`] bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
fn fold_pclmul(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    // Fold multipliers x^(512±32) and x^(128±32) mod P, and x^64 mod P.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    // P′ and μ = ⌊x^64 / P⌋ for the Barrett step, bit-reflected.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    let lane = |b: &[u8]| {
        let half = |at: usize| i64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(half(8), half(0))
    };
    // `acc` carried 128 bits forward by `k`'s two halves, onto `next`.
    let fold = |acc: __m128i, next: __m128i, k: __m128i| {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    };
    let low32 = _mm_set_epi32(0, 0, 0, -1);

    let mut blocks = data.chunks_exact(64);
    let first = blocks.next().expect("at least FOLD_MIN bytes");
    let mut acc: [__m128i; 4] = std::array::from_fn(|i| lane(&first[16 * i..]));
    acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    for block in &mut blocks {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = fold(*a, lane(&block[16 * i..]), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(fold(fold(acc[0], acc[1], k3k4), acc[2], k3k4), acc[3], k3k4);
    let mut rest = blocks.remainder().chunks_exact(16);
    for block in &mut rest {
        x = fold(x, lane(block), k3k4);
    }

    // 128 → 96 → 64 bits.
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett: 64 → 32 bits, left in the second dword (reflected).
    let pu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    let crc = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
    slice_by_16(crc, rest.remainder())
}

/// CRC-32/ISO-HDLC — the zlib/PNG/Ethernet checksum: polynomial
/// `0x04C11DB7` reflected (`0xEDB88320`), init and xorout `0xFFFFFFFF`,
/// check value `crc32(b"123456789") == 0xCBF43926`. The one checksum of
/// every persisted file in the workspace.
///
/// Two kernels compute it, picked per [`Crc32::update`] call. On an
/// `x86_64` CPU with PCLMULQDQ, an input of 64 bytes or more folds by
/// carry-less multiplication: 22–25 GB/s on the reference host (a
/// 2-CPU Xeon, pinned), 0.04 ms per MB. Shorter inputs and other CPUs
/// take the slice-by-16 table loop: about 2 GB/s, 0.5 ms per MB. See the
/// `micro` bench's `crc32/kernel/*`, beside a bytewise
/// `crc32/reference/*` at 0.4 GB/s.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string — what
/// [`ByteReader::string`] reads back.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a byte slice; any overrun yields
/// [`DecodeError::Corrupt`].
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading `buf` at `pos`.
    pub fn new(buf: &'a [u8], pos: usize) -> Self {
        Self { buf, pos }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Corrupt)?;
        if end > self.buf.len() {
            return Err(DecodeError::Corrupt);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed from the buffer.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?)
            .map_err(|_| DecodeError::Invalid("non-UTF-8 label"))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        self.str().map(str::to_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step table loop the slice-by-16 kernel replaced,
    /// kept as the reference it is checked against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
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

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// `len` pseudo-random bytes from `seed`.
    fn lcg_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// The table path alone, called directly so it stays tested on a
    /// host whose `Crc32::update` folds.
    fn crc32_table(data: &[u8]) -> u32 {
        slice_by_16(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Every tail length after zero to twelve 16-byte steps — across the
    /// fold threshold and every tail after it — at every alignment of the
    /// slice start: the dispatched kernel ≡ slice-by-16 ≡ bytewise.
    #[test]
    fn kernel_equals_bytewise_reference_at_every_length_and_offset() {
        let buf = lcg_bytes(16 + 208, 0x5EED_C0DE);
        for offset in 0..16 {
            for len in 0..=208 {
                let slice = &buf[offset..offset + len];
                let want = crc32_bytewise(slice);
                assert_eq!(crc32(slice), want, "offset {offset}, len {len}");
                let table = crc32_table(slice);
                assert_eq!(table, want, "table, offset {offset}, len {len}");
            }
        }
    }

    /// On an `x86_64` CPU with PCLMULQDQ, an input of one fold block or
    /// more takes the fold, a shorter one the table.
    #[test]
    fn a_pclmulqdq_host_folds_from_one_block() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            assert!(!folds(FOLD_MIN - 1), "under one block takes the table");
            assert!(folds(FOLD_MIN) && folds(424 << 10), "the fold must run");
            return;
        }
        eprintln!("no PCLMULQDQ on this CPU: every input takes the table");
        assert!(!folds(1 << 20));
    }

    proptest! {
        /// Checksumming a buffer in two pieces through the running-state
        /// form equals one pass, which equals the bytewise reference.
        #[test]
        fn running_state_composes_across_any_split(
            data in prop::collection::vec(0u8..=255, 0..600),
            cut in 0usize..=600,
        ) {
            let cut = cut.min(data.len());
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            let split = crc.finish();
            prop_assert_eq!(split, crc32(&data));
            prop_assert_eq!(split, crc32_bytewise(&data));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The fold ≡ slice-by-16 ≡ bytewise over random lengths, slice
        /// offsets and split points. Pieces are a tail alone (< 16), within
        /// 8 bytes of the fold threshold either way, or anything up to
        /// 2 KB; the state after each piece is held to the table path's.
        #[test]
        fn fold_equals_slice_by_16_equals_bytewise(
            seed in 0u64..u64::MAX,
            len in 0usize..4000,
            offset in 0usize..16,
            pieces in prop::collection::vec((0u8..3, 0usize..2048), 0..6),
        ) {
            let buf = lcg_bytes(offset + len, seed);
            let data = &buf[offset..];
            let mut crc = Crc32::new();
            let mut table = 0xFFFF_FFFFu32;
            let mut at = 0;
            for (kind, raw) in pieces {
                let piece = match kind {
                    0 => raw % 16,
                    1 => FOLD_MIN - 8 + raw % 17,
                    _ => raw,
                };
                let end = (at + piece).min(len);
                crc.update(&data[at..end]);
                table = slice_by_16(table, &data[at..end]);
                prop_assert_eq!(crc.0, table, "state after {}..{}", at, end);
                at = end;
            }
            crc.update(&data[at..]);
            let want = crc32_bytewise(data);
            prop_assert_eq!(crc.finish(), want);
            prop_assert_eq!(crc32(data), want);
            prop_assert_eq!(crc32_table(data), want);
        }
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX);
        let mut r = ByteReader::new(&buf, 0);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(matches!(r.bytes(1), Err(DecodeError::Corrupt)));
    }
}
