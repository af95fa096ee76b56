//! Minimal read-only memory mapping for container files.
//!
//! [`Storage`](crate::container::Storage) wants a file's bytes without a
//! private heap copy: when N serving processes open the same snapshot,
//! the OS page cache should hold **one** physical copy and every process
//! should map it. This module provides exactly that — a read-only,
//! whole-file [`MmapRegion`] that unmaps on drop — and nothing more (no
//! writable maps, no partial maps, no `mlock`).
//!
//! # No `libc` dependency
//!
//! The build environment is offline, so the wrapper declares the two
//! symbols it needs (`mmap`, `munmap`) directly: on every unix target the
//! Rust standard library already links the platform C runtime, which
//! exports both. The module is compiled only on 64-bit unix
//! (`cfg(all(unix, target_pointer_width = "64"))`) where `off_t` is
//! unambiguously 64-bit; on other targets callers fall back to a heap
//! read ([`Storage::open`](crate::container::Storage::open) does this
//! automatically, as it does when mapping fails at runtime — e.g. for
//! empty files or filesystems without mmap support).
//!
//! # Concurrent-modification caveat
//!
//! A mapping observes the file *live*: another process truncating the
//! mapped file makes reads past the new end fault (`SIGBUS`), and
//! rewriting it in place changes mapped bytes under the reader. Treat
//! published snapshot files as immutable — write to a temp path and
//! `rename(2)` into place, never rewrite in place. (The CRC layer above
//! detects an in-place rewrite that happens *before* a load parses the
//! container, but cannot protect reads after that parse.)

#![cfg(all(unix, target_pointer_width = "64"))]

use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

/// Raw bindings to the platform's `mmap`/`munmap`. The constants are
/// identical across the unix targets this module compiles on (Linux,
/// macOS, and the BSDs all use `PROT_READ = 1`, `MAP_SHARED = 1`).
mod sys {
    use core::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
}

/// A read-only, shared, whole-file memory mapping. Unmapped on drop.
///
/// The mapping is `MAP_SHARED | PROT_READ`: pages are clean, file-backed,
/// and shared through the page cache with every other process mapping the
/// same file — the kernel keeps one physical copy no matter how many
/// readers exist. `mmap` returns page-aligned addresses, so the 64-byte
/// section alignment of the `TDZ1` container always holds inside a
/// mapped buffer.
#[derive(Debug)]
pub struct MmapRegion {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// Safety: the region is an immutable byte buffer for its whole lifetime
// (PROT_READ, never handed out mutably) — as thread-safe as `&[u8]`.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps the whole of `file` read-only. Fails for empty files
    /// (`mmap(len = 0)` is an error) and whenever the kernel refuses the
    /// mapping; callers are expected to fall back to a heap read.
    pub fn map_file(file: &File) -> io::Result<Self> {
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::other("file too large to map"))?;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        // Safety: a fresh anonymous-address, read-only, shared file
        // mapping; the fd stays open only for the duration of the call
        // (mappings survive the fd being closed).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        // MAP_FAILED is (void*)-1; a null return would be non-conforming
        // but is rejected too rather than wrapped in NonNull.
        if ptr as usize == usize::MAX || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            ptr: unsafe { std::ptr::NonNull::new_unchecked(ptr as *mut u8) },
            len,
        })
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // Safety: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mapped length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapping is empty (never constructed; kept for
    /// API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        // Safety: ptr/len came from a successful mmap and are unmapped
        // exactly once. Failure is unrecoverable and ignored (the address
        // range simply stays mapped until process exit).
        unsafe {
            sys::munmap(self.ptr.as_ptr() as *mut core::ffi::c_void, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = temp("tdmatch-mmap-basic.bin", b"hello mapped world");
        let f = File::open(&path).unwrap();
        let m = MmapRegion::map_file(&f).unwrap();
        assert_eq!(m.as_slice(), b"hello mapped world");
        assert_eq!(m.len(), 18);
        assert!(!m.is_empty());
        // Page alignment implies container section alignment.
        assert_eq!(m.as_slice().as_ptr() as usize % 64, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_rejected() {
        let path = temp("tdmatch-mmap-empty.bin", b"");
        let f = File::open(&path).unwrap();
        assert!(MmapRegion::map_file(&f).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn drop_unmaps_the_region() {
        let path = temp("tdmatch-mmap-drop.bin", &vec![7u8; 8192]);
        let f = File::open(&path).unwrap();
        let m = MmapRegion::map_file(&f).unwrap();
        let addr = m.as_slice().as_ptr() as usize;
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        assert!(
            maps.lines().any(|l| l.starts_with(&format!("{addr:x}-"))),
            "mapping for {addr:x} not found while alive"
        );
        drop(m);
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        assert!(
            !maps.lines().any(|l| l.starts_with(&format!("{addr:x}-"))),
            "mapping for {addr:x} still present after drop"
        );
        std::fs::remove_file(&path).ok();
    }
}
