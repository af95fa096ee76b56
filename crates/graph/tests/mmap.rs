//! Integration tests for the cross-process mmap serving path: mapping
//! lifetime (unmap exactly when the last view drops), heap-fallback
//! equivalence, and whole-container verification through a real
//! consumer (`CsrGraph` over a saved `Graph`).

use tdmatch_graph::container::{Container, ContainerWriter, Storage};
use tdmatch_graph::{CsrGraph, DecodeError, Graph};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("{name}-{}.tdz", std::process::id()))
}

fn sample_graph() -> Graph {
    let mut g = Graph::new();
    let a = g.intern_data("tarantino");
    let b = g.intern_data("thriller");
    let c = g.intern_data("willis");
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.add_edge(a, c);
    g
}

/// Saves the sample graph to `name` and returns the path.
fn saved_sample(name: &str) -> std::path::PathBuf {
    let path = temp_path(name);
    CsrGraph::from_graph(&sample_graph()).save(&path).unwrap();
    path
}

fn load_csr(storage: &Storage) -> Result<CsrGraph, DecodeError> {
    CsrGraph::from_sections(storage, &storage.container()?)
}

/// True when `/proc/self/maps` has a mapping starting at `addr`.
#[cfg(target_os = "linux")]
fn is_mapped_at(addr: usize) -> bool {
    std::fs::read_to_string("/proc/self/maps")
        .unwrap()
        .lines()
        .any(|l| l.starts_with(&format!("{addr:x}-")))
}

#[test]
fn mapped_and_heap_snapshots_are_bit_identical() {
    let path = saved_sample("tdmatch-mmap-equiv");
    let mapped = Storage::open(&path).unwrap();
    let heap = Storage::read_file(&path).unwrap();
    assert!(!heap.is_mapped());
    // Identical raw bytes…
    assert_eq!(mapped.as_bytes(), heap.as_bytes());
    // …and identical loaded views through a real consumer.
    let from_mapped = load_csr(&mapped).unwrap();
    let from_heap = load_csr(&heap).unwrap();
    assert_eq!(from_mapped.id_bound(), from_heap.id_bound());
    assert_eq!(from_mapped.edge_count(), from_heap.edge_count());
    for id in from_mapped.nodes() {
        assert_eq!(from_mapped.neighbors(id), from_heap.neighbors(id));
        assert_eq!(from_mapped.neighbor_kinds(id), from_heap.neighbor_kinds(id));
        assert_eq!(from_mapped.kind(id), from_heap.kind(id));
    }
    std::fs::remove_file(&path).ok();
}

#[cfg(all(unix, target_pointer_width = "64"))]
#[test]
fn a_saved_graph_serves_its_csr_from_the_mapping() {
    let path = saved_sample("tdmatch-mmap-serves");
    let storage = Storage::open(&path).unwrap();
    assert!(storage.is_mapped(), "snapshot open fell off the mmap path");
    let warm = load_csr(&storage).unwrap();
    let csr = CsrGraph::from_graph(&sample_graph());
    let mapping = storage.as_bytes().as_ptr_range();
    for id in csr.nodes() {
        assert_eq!(warm.neighbors(id), csr.neighbors(id));
        // Zero copy: the rows are read straight out of the mapping.
        let row = warm.neighbors(id).as_ptr_range();
        assert!(mapping.start <= row.start.cast() && row.end.cast() <= mapping.end);
    }
    std::fs::remove_file(&path).ok();
}

/// The mapping must stay alive while *any* loaded view borrows it —
/// dropping the `Storage` handle is not enough — and must be unmapped
/// when the last one goes.
#[cfg(target_os = "linux")]
#[test]
fn mapping_unmaps_only_after_the_last_view_drops() {
    let path = saved_sample("tdmatch-mmap-lifetime");
    let storage = Storage::open(&path).unwrap();
    assert!(storage.is_mapped());
    let addr = storage.as_bytes().as_ptr() as usize;
    assert!(is_mapped_at(addr), "mapping missing while storage is alive");

    let loaded = load_csr(&storage).unwrap();
    drop(storage);
    // The loaded graph's FlatBufs keep the mapping alive.
    assert!(
        is_mapped_at(addr),
        "mapping vanished while a loaded snapshot still borrows it"
    );
    assert_eq!(loaded.edge_count(), 3);

    drop(loaded);
    assert!(
        !is_mapped_at(addr),
        "mapping leaked after the last view dropped"
    );
    std::fs::remove_file(&path).ok();
}

/// Readers ignore unknown tags, but their CRCs still count: a corrupt
/// byte in a section no loader reads fails the parse on mapped and heap
/// storage alike, and so fails `CsrGraph::load`.
#[test]
fn a_corrupt_unknown_section_fails_every_load() {
    let path = saved_sample("tdmatch-mmap-unknown");
    let clean = std::fs::read(&path).unwrap();
    let container = Container::parse(&clean).unwrap();
    let mut w = ContainerWriter::new();
    for tag in container.tags() {
        w.add(tag, container.require(tag).unwrap().bytes());
    }
    w.add(*b"XTRA", vec![7u8; 100]);
    let mut bytes = w.finish();
    // The unknown section's payload sits last, ahead of its padding.
    let last = Container::parse(&bytes)
        .unwrap()
        .require(*b"XTRA")
        .unwrap()
        .bytes()
        .as_ptr();
    let offset = last as usize - bytes.as_ptr() as usize;
    std::fs::write(&path, &bytes).unwrap();
    // Unmodified, the extra section is ignored.
    CsrGraph::load(&path).unwrap();

    bytes[offset + 50] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let mapped = Storage::open(&path).unwrap();
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert!(mapped.is_mapped());
    assert!(matches!(mapped.container(), Err(DecodeError::Corrupt)));
    let heap = Storage::read_file(&path).unwrap();
    assert!(matches!(heap.container(), Err(DecodeError::Corrupt)));
    assert!(matches!(CsrGraph::load(&path), Err(DecodeError::Corrupt)));
    std::fs::remove_file(&path).ok();
}

/// A path that holds no container is an error at the open or at the
/// parse, never a panic or a fault: a zero-length file (it cannot be
/// mapped, so the open falls back to the heap, and the parse finds no
/// magic), a directory, and a missing path.
#[test]
fn empty_files_directories_and_missing_paths_are_errors() {
    let empty = temp_path("tdmatch-empty-storage");
    std::fs::write(&empty, b"").unwrap();
    let storage = Storage::open(&empty).unwrap();
    assert!(!storage.is_mapped());
    assert!(storage.as_bytes().is_empty());
    let err = storage.container().unwrap_err();
    assert!(matches!(err, DecodeError::BadMagic), "{err}");
    std::fs::remove_file(&empty).ok();

    let dir = temp_path("tdmatch-dir-storage");
    std::fs::create_dir_all(&dir).unwrap();
    let err = Storage::open(&dir).unwrap_err();
    assert!(matches!(err, DecodeError::Io(_)), "{err}");
    #[cfg(target_os = "linux")]
    assert_eq!(err.to_string(), "I/O error: Is a directory (os error 21)");
    std::fs::remove_dir(&dir).ok();

    let err = Storage::open(temp_path("tdmatch-no-such-storage")).unwrap_err();
    assert!(
        matches!(&err, DecodeError::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
        "{err}"
    );
}
