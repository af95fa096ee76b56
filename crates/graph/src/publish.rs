//! Crash-safe snapshot publication: write-temp / fsync / rename.
//!
//! Every on-disk snapshot in this workspace (a TDZ1 container) is
//! consumed by long-lived readers that memory-map the file
//! ([`Storage::open`](crate::container::Storage::open)) — so a *torn*
//! file at a published path is the one corruption the CRC layer cannot
//! fully absorb: a daemon that maps a half-written file at startup
//! fails, and one that maps it mid-rewrite can fault. The publication
//! discipline `docs/SERVING.md` specifies closes that hole:
//!
//! 1. write the complete payload to a **same-directory** temp file
//!    (rename is only atomic within a filesystem);
//! 2. `fsync` the temp file, so the payload bytes are durable before
//!    the name ever points at them;
//! 3. `rename(2)` the temp file over the destination — atomic on every
//!    POSIX filesystem: readers see either the old complete file or the
//!    new complete file, never a mixture;
//! 4. `fsync` the parent directory, so the *name change* is durable too
//!    (without it a crash can revert the rename while keeping the data).
//!
//! A crash (including `SIGKILL`) at any point leaves the destination
//! path untouched or fully updated; at worst a `.tmp.*` orphan remains
//! beside it, which later publishes ignore (fresh temp names) and
//! operators may delete freely. The fault-injection suite in
//! `crates/serve/tests/faults.rs` kills writers mid-publish at
//! randomized byte offsets and asserts exactly this.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process counter making concurrent temp names unique.
static PUBLISH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces (or creates) `path` with bytes produced by
/// `write`.
///
/// `write` receives a fresh temp [`File`] in `path`'s directory; when it
/// returns `Ok`, the file is fsynced and renamed over `path`, and the
/// directory entry is fsynced. On any error — including one returned by
/// `write` itself — the temp file is removed and `path` is left exactly
/// as it was.
///
/// The temp name embeds the destination file name, the process id and a
/// per-process counter, so concurrent publishers (even across processes)
/// never collide on it.
///
/// ```
/// use tdmatch_graph::publish::publish_atomic;
///
/// let path = std::env::temp_dir().join("tdmatch-doc-publish.bin");
/// publish_atomic(&path, |f| {
///     use std::io::Write;
///     f.write_all(b"complete payload")
/// })?;
/// assert_eq!(std::fs::read(&path)?, b"complete payload");
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn publish_atomic<E, F>(path: &Path, write: F) -> Result<(), E>
where
    E: From<io::Error>,
    F: FnOnce(&mut File) -> Result<(), E>,
{
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "publish path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        PUBLISH_SEQ.fetch_add(1, Ordering::Relaxed),
    ));

    let result = (|| {
        let mut file = File::create(&tmp).map_err(E::from)?;
        write(&mut file)?;
        // Payload durable *before* the rename can expose it.
        file.sync_all().map_err(E::from)?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(E::from)?;
        // Make the rename itself durable: fsync the directory entry.
        // Failure to *open* the directory (exotic filesystems) is not a
        // correctness problem for readers — the rename already happened
        // atomically — so only a failing fsync on an opened dir errors.
        if let Some(dir) = dir {
            if let Ok(d) = File::open(dir) {
                d.sync_all().map_err(E::from)?;
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tdmatch-publish-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn publishes_new_and_replaces_old() {
        let dir = tmpdir("replace");
        let path = dir.join("snap.bin");
        publish_atomic::<io::Error, _>(&path, |f| f.write_all(b"one")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        publish_atomic::<io::Error, _>(&path, |f| f.write_all(b"two")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_leaves_destination_untouched_and_no_temp() {
        let dir = tmpdir("failed");
        let path = dir.join("snap.bin");
        publish_atomic::<io::Error, _>(&path, |f| f.write_all(b"good")).unwrap();
        let err = publish_atomic::<io::Error, _>(&path, |f| {
            f.write_all(b"partial garbage").unwrap();
            Err(io::Error::other("writer failed mid-payload"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("mid-payload"));
        assert_eq!(std::fs::read(&path).unwrap(), b"good", "destination must be untouched");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bare_file_name_publishes_into_cwd() {
        // `path.parent()` is empty for a bare name; the directory fsync
        // is skipped but the write + rename must still work.
        let dir = tmpdir("cwd");
        let path = dir.join("bare.bin");
        publish_atomic::<io::Error, _>(&path, |f| f.write_all(b"x")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"x");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_publishers_never_tear_the_destination() {
        let dir = tmpdir("concurrent");
        let path = dir.join("snap.bin");
        let payload = |tag: u8| vec![tag; 4096];
        publish_atomic::<io::Error, _>(&path, |f| f.write_all(&payload(0))).unwrap();
        let workers: Vec<_> = (1u8..=4)
            .map(|tag| {
                let path = path.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        publish_atomic::<io::Error, _>(&path, |f| f.write_all(&vec![tag; 4096]))
                            .unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len(), 4096);
            assert!(bytes.windows(2).all(|w| w[0] == w[1]), "torn read observed");
        }
        for w in workers {
            w.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
