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
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
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
        self.0 = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// CRC-32/ISO-HDLC — the zlib/PNG/Ethernet checksum: polynomial
/// `0x04C11DB7` reflected (`0xEDB88320`), init and xorout `0xFFFFFFFF`,
/// check value `crc32(b"123456789") == 0xCBF43926`. The one checksum of
/// every persisted file in the workspace.
///
/// Slice-by-16: sixteen bytes per step, a bytewise step for the
/// under-16-byte tail. About 2 GB/s on the reference host — 0.5 ms per
/// MB; the `micro` bench's `crc32/kernel/*`, beside a bytewise
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

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|_| DecodeError::Invalid("non-UTF-8 label"))
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

    /// Every tail length after zero to five 16-byte steps, at every
    /// alignment of the slice start.
    #[test]
    fn kernel_equals_bytewise_reference_at_every_length_and_offset() {
        let mut state = 0x5EED_C0DEu64;
        let buf: Vec<u8> = (0..96)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..16 {
            for len in 0..=80 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
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
