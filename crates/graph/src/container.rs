//! `TDZ1` — the versioned zero-copy artifact container.
//!
//! The pipeline is fit-once / match-many: graph build, walks, and
//! training happen once, while matching (and walk-restarts) happen per
//! request. Warm starts therefore want persisted state that can be
//! *mapped* back, not re-deserialized. This module provides the shared
//! on-disk container every flat structure in the workspace serializes
//! into: saved graphs ([`CsrGraph`](crate::CsrGraph) sections plus
//! labels), `tdmatch_embed`'s `ScoreMatrix`, and `tdmatch_core`'s
//! `MatchArtifact`.
//!
//! # Layout
//!
//! The full byte-level specification lives in `docs/FORMAT.md` at the
//! repository root. In short — all integers are little-endian; section
//! payloads start at 64-byte aligned offsets from the start of the
//! container:
//!
//! ```text
//! 0..4    magic   b"TDZ1"
//! 4..8    version u32 (currently 1)
//! 8..12   section count u32
//! 12..16  header crc32 over bytes 0..12 ++ the section table
//! 16..    section table: count × 24-byte entries
//!           tag     [u8; 4]
//!           crc32   u32 over the payload bytes
//!           offset  u64 from container start, 64-byte aligned
//!           len     u64 payload bytes (unpadded)
//! …       zero padding to the first 64-byte boundary
//! …       payloads, each zero-padded to the next 64-byte boundary
//! ```
//!
//! Every byte is covered: the header CRC seals the table, per-section
//! CRCs seal the payloads, and parsing rejects non-zero padding and
//! trailing garbage — a flipped bit anywhere is an error, never silent
//! corruption.
//!
//! # Zero-copy loading and cross-process sharing
//!
//! [`Storage`] holds the whole container in one shared, reference-counted
//! buffer. Two backings exist behind the same API:
//!
//! * **heap** ([`Storage::from_bytes`] / [`Storage::read_file`]) — an
//!   8-byte-aligned private buffer ([`AlignedBytes`]), read in one pass;
//! * **mapped** ([`Storage::open`]) — a read-only OS memory map of the
//!   file ([`crate::mmap::MmapRegion`], 64-bit unix targets). Every process that opens the same snapshot
//!   shares **one** physical copy of its pages through the OS page
//!   cache; opening falls back to the heap read when mapping is
//!   unavailable (non-unix, empty file, mmap-refusing filesystem).
//!
//! Loaded structures do not copy their payloads out: they hold
//! [`FlatBuf`]s — either owned `Vec`s (freshly built state) or borrowed
//! views into the shared storage (kept alive by the storage handle, so a
//! loaded `CsrGraph` or `ScoreMatrix` is `'static`, `Send + Sync`, and
//! materializes without copying any payload). Typed views
//! ([`SectionView::as_u32s`] etc.) check alignment and element size
//! before casting; the 64-byte section alignment plus the backing
//! alignment (8-byte heap, page-aligned map) guarantee the checks pass
//! for buffers loaded through [`Storage`].
//!
//! # Verification
//!
//! [`Container::parse`] checks every CRC: the header CRC, then each
//! payload's CRC in one linear pass over the buffer — about 0.04 ms per
//! MB on an `x86_64` CPU with PCLMULQDQ and 0.5 ms per MB elsewhere
//! ([`crc32`]). Readers ignore unknown tags, but their CRCs still count:
//! a corrupt byte in a section no reader knows fails the parse.
//! [`Storage`] only holds bytes; [`Storage::container`] runs that one
//! verifying parse, and every loader calls it once and then reads its
//! sections, so section access never checks anything again.
//!
//! Opening stays O(1): [`Storage::open`] maps the file without touching
//! its pages, and the checksum runs in the load that follows. A mapped
//! file mutated in place *after* that parse is outside the CRC's
//! protection (see [`crate::mmap`] — treat published snapshots as
//! immutable, rename-into-place on update).
//!
//! # Example: save → map → read back
//!
//! ```
//! use tdmatch_graph::container::{ContainerWriter, Storage};
//!
//! // Write a container with one typed section…
//! let mut w = ContainerWriter::new();
//! w.add_pod(*b"DEMO", &[1u32, 2, 3]);
//! let path = std::env::temp_dir().join("tdmatch-doc-container.tdz");
//! w.write_to(&mut std::fs::File::create(&path)?)?;
//!
//! // …and map it back: O(1) in the payload size, shared page-cache
//! // pages across processes; `container()` checks every CRC.
//! let storage = Storage::open(&path)?;
//! let container = storage.container()?;
//! let section = container.require(*b"DEMO")?;
//! assert_eq!(section.as_u32s()?, &[1, 2, 3]);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), tdmatch_graph::DecodeError>(())
//! ```

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::codec::{crc32, put_u32, put_u64, ByteReader, Crc32, DecodeError};

// The zero-copy typed views reinterpret little-endian payload bytes
// in place; a big-endian host would read garbage.
#[cfg(target_endian = "big")]
compile_error!("the TDZ1 zero-copy container requires a little-endian host");

/// Container format version.
pub const CONTAINER_VERSION: u32 = 1;

/// Container magic bytes.
pub const CONTAINER_MAGIC: [u8; 4] = *b"TDZ1";

/// Payload alignment: every section offset is a multiple of this.
pub const SECTION_ALIGN: usize = 64;

/// Hard cap on the section count — far above any real container, small
/// enough that a hostile header cannot request a huge table allocation.
pub const MAX_SECTIONS: usize = 4096;

const HEADER_LEN: usize = 16;
const ENTRY_LEN: usize = 24;

/// A four-byte section identifier (FourCC-style).
pub type SectionTag = [u8; 4];

/// Element types that may be viewed zero-copy inside a section: plain
/// old data whose in-memory layout *is* the on-disk little-endian layout.
///
/// # Safety
///
/// Implementors must be `#[repr(transparent)]` over (or identical to) a
/// fixed-width little-endian-safe primitive, with no invalid bit
/// patterns.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f32 {}
// NodeId is #[repr(transparent)] over u32 (see node.rs).
unsafe impl Pod for crate::node::NodeId {}

/// An 8-byte-aligned byte buffer (backed by `Vec<u64>`), so typed views
/// over 64-byte-aligned section offsets are always correctly aligned.
#[derive(Debug)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// A zeroed aligned buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Copies `bytes` into a fresh aligned buffer.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut out = Self::zeroed(bytes.len());
        out.as_mut_slice().copy_from_slice(bytes);
        out
    }

    /// Mutable access, for filling the buffer before sharing it.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // Safety: the Vec<u64> allocation covers `len` bytes, and u64 →
        // u8 weakens alignment.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }

    /// The buffer contents.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // Safety: the Vec<u64> allocation covers `len` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    /// Buffer length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for AlignedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// The bytes behind a [`Storage`]: a private heap buffer or a shared
/// read-only file mapping.
#[derive(Debug)]
enum Backing {
    Heap(AlignedBytes),
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(crate::mmap::MmapRegion),
}

impl Backing {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Backing::Heap(b) => b.as_slice(),
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(m) => m.as_slice(),
        }
    }
}

/// Reference-counted container storage: one shared buffer (heap or
/// memory-mapped) behind every structure loaded from it. Cloning is an
/// `Arc` bump. Storage only holds bytes; [`container`](Storage::container)
/// verifies them.
///
/// | constructor | backing |
/// |---|---|
/// | [`from_bytes`](Storage::from_bytes) | heap copy |
/// | [`read_file`](Storage::read_file) | heap read |
/// | [`open`](Storage::open) | mmap, heap fallback |
#[derive(Debug, Clone)]
pub struct Storage {
    backing: Arc<Backing>,
}

impl Storage {
    /// Wraps a byte slice (copied once into aligned heap storage).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self {
            backing: Arc::new(Backing::Heap(AlignedBytes::from_bytes(bytes))),
        }
    }

    /// Reads a container file into a private heap buffer — straight into
    /// the aligned buffer (sized from file metadata), with no
    /// intermediate copy. Prefer [`open`](Storage::open) for serving: it
    /// shares one physical copy across processes.
    pub fn read_file<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let mut f = std::fs::File::open(path)?;
        let len = usize::try_from(f.metadata()?.len())
            .map_err(|_| std::io::Error::other("file too large for memory"))?;
        let mut bytes = AlignedBytes::zeroed(len);
        f.read_exact(bytes.as_mut_slice())?;
        Ok(Self {
            backing: Arc::new(Backing::Heap(bytes)),
        })
    }

    /// Opens a container file for serving: memory-mapped read-only where
    /// the platform supports it (64-bit unix; heap read elsewhere or
    /// when mapping fails). Opening maps without reading — O(1) in the
    /// payload size — and N processes opening the same file share one
    /// physical copy of its pages. Nothing is verified here: a file that
    /// is not a container at all fails at [`container`](Storage::container).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, DecodeError> {
        let path = path.as_ref();
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Ok(f) = std::fs::File::open(path) {
            if let Ok(region) = crate::mmap::MmapRegion::map_file(&f) {
                return Ok(Self {
                    backing: Arc::new(Backing::Mapped(region)),
                });
            }
        }
        // Fallback: empty files, mmap-refusing filesystems, non-unix
        // targets — and genuine open errors, which surface here.
        Ok(Self::read_file(path)?)
    }

    /// True when the storage is an OS memory mapping (shared page-cache
    /// pages) rather than a private heap buffer.
    pub fn is_mapped(&self) -> bool {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            matches!(*self.backing, Backing::Mapped(_))
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            false
        }
    }

    /// The raw container bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.backing.as_slice()
    }

    /// Parses the container held in this storage with
    /// [`Container::parse`], which checks every CRC. Loaders call this
    /// once per load.
    pub fn container(&self) -> Result<Container<'_>, DecodeError> {
        Container::parse(self.as_bytes())
    }

    /// True when `slice` lies inside this storage's buffer.
    fn contains(&self, slice: &[u8]) -> bool {
        let base = self.as_bytes().as_ptr() as usize;
        let ptr = slice.as_ptr() as usize;
        ptr >= base && ptr + slice.len() <= base + self.as_bytes().len()
    }
}

/// One section of a parsed [`Container`]: a borrowed payload whose CRC
/// the parse already checked.
#[derive(Debug, Clone, Copy)]
pub struct SectionView<'a> {
    tag: SectionTag,
    bytes: &'a [u8],
}

impl<'a> SectionView<'a> {
    /// The section's tag.
    #[inline]
    pub fn tag(&self) -> SectionTag {
        self.tag
    }

    /// The payload.
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// A [`ByteReader`] over the payload, for variable-length encodings
    /// (length-prefixed labels etc.).
    pub fn reader(&self) -> ByteReader<'a> {
        ByteReader::new(self.bytes, 0)
    }

    /// Zero-copy typed view over the payload. Errors when the payload
    /// length is not a multiple of the element size or the base pointer
    /// is misaligned (can only happen for buffers not loaded through
    /// [`Storage`]).
    pub fn as_pod<T: Pod>(&self) -> Result<&'a [T], DecodeError> {
        let size = std::mem::size_of::<T>();
        if size == 0 || !self.bytes.len().is_multiple_of(size) {
            return Err(DecodeError::Invalid("section length not a multiple of element size"));
        }
        if !(self.bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(DecodeError::Invalid("misaligned section payload"));
        }
        // Safety: length and alignment checked; T is Pod (no invalid bit
        // patterns, LE layout asserted at compile time for this module).
        Ok(unsafe {
            std::slice::from_raw_parts(self.bytes.as_ptr() as *const T, self.bytes.len() / size)
        })
    }

    /// Typed view as `&[u32]`.
    pub fn as_u32s(&self) -> Result<&'a [u32], DecodeError> {
        self.as_pod()
    }

    /// Typed view as `&[u64]`.
    pub fn as_u64s(&self) -> Result<&'a [u64], DecodeError> {
        self.as_pod()
    }

    /// Typed view as `&[f32]`.
    pub fn as_f32s(&self) -> Result<&'a [f32], DecodeError> {
        self.as_pod()
    }
}

/// Table-entry metadata for one parsed section.
#[derive(Debug, Clone, Copy)]
struct SectionMeta {
    tag: SectionTag,
    offset: usize,
    len: usize,
}

/// A parsed `TDZ1` container: the section table over a borrowed buffer.
///
/// [`parse`](Container::parse) validates everything up front — magic,
/// version, header CRC, section bounds, every payload CRC (unknown tags
/// included), zero padding, and exact total length — so section access
/// is infallible afterwards.
#[derive(Debug)]
pub struct Container<'a> {
    buf: &'a [u8],
    sections: Vec<SectionMeta>,
}

impl<'a> Container<'a> {
    /// Parses and fully verifies a container (every payload CRC checked
    /// here, in one linear pass).
    pub fn parse(buf: &'a [u8]) -> Result<Self, DecodeError> {
        if buf.len() < HEADER_LEN || buf[..4] != CONTAINER_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let mut r = ByteReader::new(buf, 4);
        let version = r.u32()?;
        if version != CONTAINER_VERSION {
            return Err(DecodeError::UnsupportedVersion { found: version });
        }
        let count = r.u32()? as usize;
        if count > MAX_SECTIONS {
            return Err(DecodeError::Invalid("implausible section count"));
        }
        let stored_header_crc = r.u32()?;
        let table_end = HEADER_LEN
            .checked_add(count.checked_mul(ENTRY_LEN).ok_or(DecodeError::Corrupt)?)
            .ok_or(DecodeError::Corrupt)?;
        if table_end > buf.len() {
            return Err(DecodeError::Corrupt);
        }
        if header_crc(&buf[..12], &buf[HEADER_LEN..table_end]) != stored_header_crc {
            return Err(DecodeError::Corrupt);
        }

        let mut sections = Vec::with_capacity(count);
        let mut expected_offset = align_up(table_end);
        for _ in 0..count {
            let mut tag = [0u8; 4];
            tag.copy_from_slice(r.bytes(4)?);
            let stored_crc = r.u32()?;
            let offset = r.u64()? as usize;
            let len = r.u64()? as usize;
            // Sections must be laid out exactly the way the writer emits
            // them: in table order, each at the next aligned offset. This
            // leaves no slack bytes for corruption to hide in.
            if offset != expected_offset {
                return Err(DecodeError::Invalid("section offset out of order or misaligned"));
            }
            let end = offset.checked_add(len).ok_or(DecodeError::Corrupt)?;
            if end > buf.len() {
                return Err(DecodeError::Corrupt);
            }
            if crc32(&buf[offset..end]) != stored_crc {
                return Err(DecodeError::Corrupt);
            }
            sections.push(SectionMeta { tag, offset, len });
            expected_offset = align_up(end);
        }

        // The container ends exactly at the last section's aligned end
        // (or the aligned table end when empty): no trailing bytes, and
        // every padding zone is zero.
        let content_end = sections.last().map_or(table_end, |m| m.offset + m.len);
        if buf.len() != align_up(content_end) {
            return Err(DecodeError::Corrupt);
        }
        let mut prev_end = table_end;
        for m in &sections {
            if buf[prev_end..m.offset].iter().any(|&b| b != 0) {
                return Err(DecodeError::Corrupt);
            }
            prev_end = m.offset + m.len;
        }
        if buf[prev_end..].iter().any(|&b| b != 0) {
            return Err(DecodeError::Corrupt);
        }

        Ok(Self { buf, sections })
    }

    /// Number of sections.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// All section tags, in table order.
    pub fn tags(&self) -> impl Iterator<Item = SectionTag> + '_ {
        self.sections.iter().map(|m| m.tag)
    }

    /// The first section with `tag`, if present.
    pub fn section(&self, tag: SectionTag) -> Option<SectionView<'a>> {
        self.sections
            .iter()
            .find(|m| m.tag == tag)
            .map(|m| SectionView {
                tag: m.tag,
                bytes: &self.buf[m.offset..m.offset + m.len],
            })
    }

    /// The first section with `tag`, or a decode error naming it absent.
    pub fn require(&self, tag: SectionTag) -> Result<SectionView<'a>, DecodeError> {
        self.section(tag)
            .ok_or(DecodeError::Invalid("missing container section"))
    }
}

#[inline]
fn align_up(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// The header CRC: header bytes 0..12 followed by the section table —
/// everything before the payloads except the CRC field itself.
fn header_crc(head: &[u8], table: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(head);
    crc.update(table);
    crc.finish()
}

/// Accumulates sections, then emits one checksummed `TDZ1` byte stream.
///
/// POD payloads added via [`add_pod`](ContainerWriter::add_pod) are
/// *borrowed* (`Cow`), and [`write_to`](ContainerWriter::write_to)
/// streams header, table, and payloads directly to the writer — saving a
/// structure never buffers a second copy of its large arrays.
///
/// ```
/// use tdmatch_graph::container::{Container, ContainerWriter};
///
/// let big = vec![0.5f32; 1024];
/// let mut w = ContainerWriter::new();
/// w.add_pod(*b"ROWS", &big); // borrowed, not copied
/// w.add(*b"NOTE", b"freeform bytes".to_vec());
/// let bytes = w.finish();
/// let parsed = Container::parse(&bytes)?;
/// assert_eq!(parsed.require(*b"ROWS")?.as_f32s()?.len(), 1024);
/// # Ok::<(), tdmatch_graph::DecodeError>(())
/// ```
#[derive(Debug, Default)]
pub struct ContainerWriter<'a> {
    sections: Vec<(SectionTag, std::borrow::Cow<'a, [u8]>)>,
}

impl<'a> ContainerWriter<'a> {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section with raw payload bytes (owned or borrowed).
    pub fn add(&mut self, tag: SectionTag, bytes: impl Into<std::borrow::Cow<'a, [u8]>>) {
        assert!(
            self.sections.len() < MAX_SECTIONS,
            "container section count exceeds MAX_SECTIONS"
        );
        self.sections.push((tag, bytes.into()));
    }

    /// Appends a section whose payload is a borrowed POD slice
    /// (little-endian, matching the zero-copy read layout).
    pub fn add_pod<T: Pod>(&mut self, tag: SectionTag, values: &'a [T]) {
        // Safety: T is Pod; this module is compile-gated to LE hosts, so
        // the in-memory bytes are the on-disk layout.
        let bytes: &'a [u8] = unsafe {
            std::slice::from_raw_parts(
                values.as_ptr() as *const u8,
                std::mem::size_of_val(values),
            )
        };
        self.add(tag, bytes);
    }

    /// Assembles the container in memory.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("Vec write cannot fail");
        out
    }

    /// Streams the container to `w`: header + table first, then each
    /// payload followed by its zero padding — no assembled copy.
    pub fn write_to<W: Write>(self, w: &mut W) -> Result<(), DecodeError> {
        let table_end = HEADER_LEN + self.sections.len() * ENTRY_LEN;
        let mut head = [0u8; 12];
        head[..4].copy_from_slice(&CONTAINER_MAGIC);
        head[4..8].copy_from_slice(&CONTAINER_VERSION.to_le_bytes());
        head[8..12].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());

        let mut table: Vec<u8> = Vec::with_capacity(table_end - HEADER_LEN);
        let mut offset = align_up(table_end);
        for (tag, bytes) in &self.sections {
            table.extend_from_slice(tag);
            put_u32(&mut table, crc32(bytes));
            put_u64(&mut table, offset as u64);
            put_u64(&mut table, bytes.len() as u64);
            offset = align_up(offset + bytes.len());
        }
        let header_crc = header_crc(&head, &table);

        const ZEROS: [u8; SECTION_ALIGN] = [0u8; SECTION_ALIGN];
        w.write_all(&head)?;
        w.write_all(&header_crc.to_le_bytes())?;
        w.write_all(&table)?;
        let mut pos = table_end;
        for (_, bytes) in &self.sections {
            w.write_all(&ZEROS[..align_up(pos) - pos])?;
            w.write_all(bytes)?;
            pos = align_up(pos) + bytes.len();
        }
        w.write_all(&ZEROS[..align_up(pos) - pos])?;
        Ok(())
    }
}

/// Copies a POD slice into owned little-endian payload bytes — for
/// sections built from temporaries (small headers), where borrowing into
/// the writer is not possible.
pub fn pod_bytes<T: Pod>(values: &[T]) -> Vec<u8> {
    // Safety: T is Pod; LE host asserted at compile time above.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr() as *const u8, std::mem::size_of_val(values))
    }
    .to_vec()
}

/// A flat typed buffer that is either owned (freshly built) or a
/// zero-copy view into shared container [`Storage`].
///
/// Dereferences to `&[T]` either way, so data structures keep one field
/// type for both lifecycles. The shared variant keeps the storage alive
/// (heap buffer or file mapping — the map is not unmapped until the last
/// `FlatBuf` into it drops), making loaded structures `'static`.
///
/// ```
/// use tdmatch_graph::container::{ContainerWriter, FlatBuf, Storage};
///
/// let mut w = ContainerWriter::new();
/// w.add_pod(*b"DATA", &[1u32, 2, 3]);
/// let storage = Storage::from_bytes(&w.finish());
/// let container = storage.container()?;
/// let mut buf = FlatBuf::<u32>::from_section(&storage, container.require(*b"DATA")?)?;
/// assert!(buf.is_shared());          // borrowed view, no copy
/// assert_eq!(&*buf, &[1, 2, 3]);
/// buf.make_mut()[0] = 9;             // copy-on-write detaches it
/// assert!(!buf.is_shared());
/// # Ok::<(), tdmatch_graph::DecodeError>(())
/// ```
pub struct FlatBuf<T> {
    repr: Repr<T>,
}

enum Repr<T> {
    Owned(Vec<T>),
    Shared {
        _storage: Storage,
        ptr: *const T,
        len: usize,
    },
}

// Safety: the shared variant is an immutable view into a storage-kept
// buffer; it is exactly as thread-safe as `&[T]`.
unsafe impl<T: Send + Sync> Send for FlatBuf<T> {}
unsafe impl<T: Send + Sync> Sync for FlatBuf<T> {}

impl<T> FlatBuf<T> {
    /// An empty owned buffer.
    pub fn new() -> Self {
        Vec::new().into()
    }

    /// True when this buffer borrows shared container storage.
    pub fn is_shared(&self) -> bool {
        matches!(self.repr, Repr::Shared { .. })
    }

    /// The elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            // Safety: ptr/len were validated against the storage buffer
            // at construction and the storage handle keeps it alive.
            Repr::Shared { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// Wraps raw parts pointing into `storage`.
    ///
    /// # Safety
    ///
    /// `ptr..ptr+len` must be a valid, aligned `[T]` inside `storage`'s
    /// buffer, and every bit pattern in it must be a valid `T`.
    pub(crate) unsafe fn from_raw_shared(storage: Storage, ptr: *const T, len: usize) -> Self {
        Self {
            repr: Repr::Shared {
                _storage: storage,
                ptr,
                len,
            },
        }
    }
}

impl<T: Pod> FlatBuf<T> {
    /// A zero-copy view of `view`'s payload, kept alive by `storage`.
    /// `view` must have been obtained from `storage.container()`.
    pub fn from_section(storage: &Storage, view: SectionView<'_>) -> Result<Self, DecodeError> {
        if !storage.contains(view.bytes()) {
            return Err(DecodeError::Invalid("section view does not belong to this storage"));
        }
        let typed = view.as_pod::<T>()?;
        // Safety: as_pod checked alignment/size; containment checked
        // above; the storage clone keeps the buffer alive.
        Ok(unsafe { Self::from_raw_shared(storage.clone(), typed.as_ptr(), typed.len()) })
    }
}

impl<T: Clone> FlatBuf<T> {
    /// Mutable access; a shared buffer is first copied out into an owned
    /// `Vec` (copy-on-write).
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        if let Repr::Shared { .. } = self.repr {
            self.repr = Repr::Owned(self.as_slice().to_vec());
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::Shared { .. } => unreachable!(),
        }
    }
}

impl<T> Default for FlatBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> From<Vec<T>> for FlatBuf<T> {
    fn from(v: Vec<T>) -> Self {
        Self {
            repr: Repr::Owned(v),
        }
    }
}

impl<T> std::ops::Deref for FlatBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Clone> Clone for FlatBuf<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => v.clone().into(),
            Repr::Shared {
                _storage,
                ptr,
                len,
            } => Self {
                repr: Repr::Shared {
                    _storage: _storage.clone(),
                    ptr: *ptr,
                    len: *len,
                },
            },
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for FlatBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for FlatBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(s: &[u8; 4]) -> SectionTag {
        *s
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = ContainerWriter::new().finish();
        assert_eq!(bytes.len(), SECTION_ALIGN);
        let c = Container::parse(&bytes).unwrap();
        assert_eq!(c.section_count(), 0);
        assert!(c.section(tag(b"NONE")).is_none());
        assert!(matches!(
            c.require(tag(b"NONE")),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn sections_are_aligned_and_typed_views_work() {
        let mut w = ContainerWriter::new();
        w.add_pod(tag(b"U32S"), &[1u32, 2, 3]);
        w.add_pod(tag(b"F32S"), &[0.5f32, -1.5]);
        w.add_pod(tag(b"U64S"), &[u64::MAX]);
        w.add(tag(b"RAWB"), vec![9, 8, 7]);
        let bytes = w.finish();
        let storage = Storage::from_bytes(&bytes);
        let c = storage.container().unwrap();
        assert_eq!(c.section_count(), 4);
        for t in c.tags() {
            let view = c.section(t).unwrap();
            let base = storage.as_bytes().as_ptr() as usize;
            let off = view.bytes().as_ptr() as usize - base;
            assert_eq!(off % SECTION_ALIGN, 0, "section {t:?} misaligned");
        }
        assert_eq!(c.section(tag(b"U32S")).unwrap().as_u32s().unwrap(), &[1, 2, 3]);
        assert_eq!(c.section(tag(b"F32S")).unwrap().as_f32s().unwrap(), &[0.5, -1.5]);
        assert_eq!(c.section(tag(b"U64S")).unwrap().as_u64s().unwrap(), &[u64::MAX]);
        assert_eq!(c.section(tag(b"RAWB")).unwrap().bytes(), &[9, 8, 7]);
        // Wrong element size is rejected.
        assert!(c.section(tag(b"RAWB")).unwrap().as_u32s().is_err());
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let mut w = ContainerWriter::new();
        w.add_pod(tag(b"AAAA"), &[7u32, 11, 13]);
        w.add(tag(b"BBBB"), vec![1, 2, 3, 4, 5]);
        let clean = w.finish();
        assert!(Container::parse(&clean).is_ok());
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x20;
            assert!(
                Container::parse(&bad).is_err(),
                "bit flip at byte {pos} parsed silently"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_detected() {
        let mut w = ContainerWriter::new();
        w.add_pod(tag(b"AAAA"), &[1u32, 2]);
        let clean = w.finish();
        for cut in [0, 3, 15, 16, 40, clean.len() - 1] {
            assert!(Container::parse(&clean[..cut]).is_err(), "truncation {cut}");
        }
        let mut long = clean.clone();
        long.extend_from_slice(&[0u8; 64]);
        assert!(Container::parse(&long).is_err(), "trailing garbage accepted");
    }

    #[test]
    fn unsupported_version_is_reported() {
        let mut bytes = ContainerWriter::new().finish();
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            Container::parse(&bytes),
            Err(DecodeError::UnsupportedVersion { found: 9 })
        ));
    }

    #[test]
    fn flatbuf_shared_views_and_cow() {
        let mut w = ContainerWriter::new();
        w.add_pod(tag(b"DATA"), &[1.0f32, 2.0, 3.0]);
        let storage = Storage::from_bytes(&w.finish());
        let c = storage.container().unwrap();
        let view = c.section(tag(b"DATA")).unwrap();
        let mut buf: FlatBuf<f32> = FlatBuf::from_section(&storage, view).unwrap();
        assert!(buf.is_shared());
        assert_eq!(&*buf, &[1.0, 2.0, 3.0]);
        let cloned = buf.clone();
        assert!(cloned.is_shared());
        buf.make_mut()[0] = 9.0;
        assert!(!buf.is_shared());
        assert_eq!(&*buf, &[9.0, 2.0, 3.0]);
        assert_eq!(&*cloned, &[1.0, 2.0, 3.0]); // untouched view
        // Foreign views are rejected.
        let other = Storage::from_bytes(storage.as_bytes());
        assert!(FlatBuf::<f32>::from_section(&other, view).is_err());
    }

    #[test]
    fn storage_reads_a_file_onto_the_heap() {
        let mut w = ContainerWriter::new();
        w.add_pod(tag(b"DATA"), &[42u64]);
        let bytes = w.finish();
        let path = std::env::temp_dir().join("tdmatch-container-test.tdz");
        std::fs::write(&path, &bytes).unwrap();
        let storage = Storage::read_file(&path).unwrap();
        assert!(!storage.is_mapped());
        let c = storage.container().unwrap();
        assert_eq!(c.section(tag(b"DATA")).unwrap().as_u64s().unwrap(), &[42]);
        std::fs::remove_file(&path).ok();
    }

    fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn open_maps_and_reads_sections() {
        let mut w = ContainerWriter::new();
        w.add_pod(tag(b"GOOD"), &[1u32, 2, 3]);
        w.add_pod(tag(b"ALSO"), &[4u64]);
        let path = write_temp("tdmatch-container-open.tdz", &w.finish());
        let storage = Storage::open(&path).unwrap();
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(storage.is_mapped());
        let c = storage.container().unwrap();
        assert_eq!(c.section(tag(b"GOOD")).unwrap().as_u32s().unwrap(), &[1, 2, 3]);
        assert_eq!(c.section(tag(b"ALSO")).unwrap().as_u64s().unwrap(), &[4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_and_heap_storage_are_bit_identical() {
        let mut w = ContainerWriter::new();
        w.add_pod(tag(b"U32S"), &[3u32, 1, 4, 1, 5]);
        w.add_pod(tag(b"F32S"), &[-0.0f32, f32::MIN_POSITIVE, 2.5]);
        let bytes = w.finish();
        let path = write_temp("tdmatch-container-equiv.tdz", &bytes);
        let mapped = Storage::open(&path).unwrap();
        let heap = Storage::read_file(&path).unwrap();
        assert_eq!(mapped.as_bytes(), heap.as_bytes());
        assert_eq!(mapped.as_bytes(), &bytes[..]);
        let (cm, ch) = (mapped.container().unwrap(), heap.container().unwrap());
        for t in [tag(b"U32S"), tag(b"F32S")] {
            assert_eq!(cm.require(t).unwrap().bytes(), ch.require(t).unwrap().bytes());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = Storage::open("/nonexistent/tdmatch/container.tdz").unwrap_err();
        assert!(matches!(err, DecodeError::Io(_)));
    }

    #[test]
    fn open_accepts_any_file_and_container_rejects_non_containers() {
        let mut w = ContainerWriter::new();
        w.add_pod(tag(b"DATA"), &[1u32]);
        let path = write_temp("tdmatch-container-verified.tdz", &w.finish());
        Storage::open(&path).unwrap().container().unwrap();
        std::fs::remove_file(&path).ok();
        // Anything that is not a TDZ1 container — the retired TDM1 and
        // TDG1 magics and the empty file included — opens (opening only
        // maps or reads) and fails at the parse.
        for bytes in [&b"TDM1 something else"[..], b"TDG1 something else", b""] {
            let path = write_temp("tdmatch-container-retired.bin", bytes);
            let storage = Storage::open(&path).unwrap();
            assert!(matches!(storage.container(), Err(DecodeError::BadMagic)));
            std::fs::remove_file(&path).ok();
        }
    }
}
