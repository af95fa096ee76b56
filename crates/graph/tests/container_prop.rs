//! Property tests for the `TDZ1` zero-copy container and the CSR
//! snapshot's section round-trip: save → map → load zero-copy →
//! bit-identical structure, and no corrupted or truncated byte stream
//! ever parses.

use proptest::prelude::*;

use tdmatch_graph::container::{Container, ContainerWriter, FlatBuf, Storage, SECTION_ALIGN};
use tdmatch_graph::{CsrGraph, EdgeKind, EdgeTypeWeights, Graph, NodeId};

/// Builds a graph from arbitrary typed edge pairs (mod `n`), optionally
/// tombstoning some nodes afterwards (mirrors `csr_prop.rs`).
fn build(n: usize, edges: &[(usize, usize, u8)], removals: &[usize]) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.intern_data(&format!("n{i}"))).collect();
    for &(a, b, k) in edges {
        let kind = EdgeKind::ALL[k as usize % EdgeKind::ALL.len()];
        g.add_edge_typed(ids[a % n], ids[b % n], kind);
    }
    for &r in removals {
        g.remove_node(ids[r % n]);
    }
    g
}

/// Field-for-field snapshot equivalence through the public API.
fn assert_snapshot_eq(a: &CsrGraph, b: &CsrGraph) {
    assert_eq!(a.id_bound(), b.id_bound());
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    for id in 0..a.id_bound() as u32 {
        let id = NodeId(id);
        assert_eq!(a.is_removed(id), b.is_removed(id));
        assert_eq!(a.kind(id), b.kind(id));
        assert_eq!(a.degree(id), b.degree(id));
        assert_eq!(a.neighbors(id), b.neighbors(id));
        assert_eq!(a.neighbor_kinds(id), b.neighbor_kinds(id));
    }
    assert_eq!(a.metadata_nodes(None), b.metadata_nodes(None));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary sections round-trip byte-for-byte, at aligned offsets,
    /// through write → parse.
    #[test]
    fn container_sections_roundtrip(
        raw_payloads in prop::collection::vec(
            ((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), prop::collection::vec(0u8..=255, 0..200)),
            0..6,
        ),
    ) {
        let payloads: Vec<([u8; 4], Vec<u8>)> = raw_payloads
            .into_iter()
            .map(|((a, b, c, d), bytes)| ([a, b, c, d], bytes))
            .collect();
        let mut w = ContainerWriter::new();
        for (tag, bytes) in &payloads {
            w.add(*tag, bytes.clone());
        }
        let bytes = w.finish();
        prop_assert_eq!(bytes.len() % SECTION_ALIGN, 0);
        let storage = Storage::from_bytes(&bytes);
        let c = storage.container().unwrap();
        prop_assert_eq!(c.section_count(), payloads.len());
        // Tag lookup returns the *first* section with that tag; compare
        // in table order instead to tolerate duplicate tags.
        let tags: Vec<_> = c.tags().collect();
        for (i, (tag, _)) in payloads.iter().enumerate() {
            prop_assert_eq!(&tags[i], tag);
        }
        for (tag, _) in &payloads {
            let view = c.section(*tag).unwrap();
            let first = payloads.iter().find(|(t, _)| t == tag).unwrap();
            prop_assert_eq!(view.bytes(), &first.1[..]);
            let base = storage.as_bytes().as_ptr() as usize;
            prop_assert_eq!((view.bytes().as_ptr() as usize - base) % SECTION_ALIGN, 0);
        }
    }

    /// No single corrupted byte in a container ever parses, and no
    /// truncation does either.
    #[test]
    fn container_corruption_never_parses(
        payload in prop::collection::vec(0u8..=255, 0..120),
        words in prop::collection::vec(0u32..=u32::MAX, 0..40),
        flip_pos in 0usize..4096,
        flip_bit in 0u8..8,
        cut in 0usize..4096,
    ) {
        let mut w = ContainerWriter::new();
        w.add(*b"RAWB", payload);
        w.add_pod(*b"U32S", &words);
        let clean = w.finish();
        prop_assert!(Container::parse(&clean).is_ok());

        let pos = flip_pos % clean.len();
        let mut bad = clean.clone();
        bad[pos] ^= 1 << flip_bit;
        prop_assert!(
            Container::parse(&bad).is_err(),
            "flipped bit {flip_bit} of byte {pos} parsed silently"
        );

        let cut = cut % clean.len();
        prop_assert!(Container::parse(&clean[..cut]).is_err(), "truncation at {cut}");
    }

    /// A hand-corrupted section CRC is rejected even when the payload,
    /// table layout, and header CRC are all consistent.
    #[test]
    fn bad_section_crc_is_rejected(
        payload in prop::collection::vec(0u8..=255, 1..100),
        crc_delta in 1u32..=u32::MAX,
    ) {
        let mut w = ContainerWriter::new();
        w.add(*b"DATA", payload);
        let mut bytes = w.finish();
        // Entry 0 starts at byte 16: tag(4) then crc32(4). Patch the
        // section CRC and re-stamp the header CRC over bytes 0..12 ++
        // table so only the *section* check can catch it.
        let old = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        bytes[20..24].copy_from_slice(&old.wrapping_add(crc_delta).to_le_bytes());
        let table_end = 16 + 24;
        let mut header_crc_input = Vec::new();
        header_crc_input.extend_from_slice(&bytes[..12]);
        header_crc_input.extend_from_slice(&bytes[16..table_end]);
        let crc = tdmatch_graph::codec::crc32(&header_crc_input);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        prop_assert!(Container::parse(&bytes).is_err());
    }

    /// A CSR snapshot round-trips bit-identically through a saved graph
    /// file opened mapped: structure, edge relation, and the cumulative
    /// weight tables built over it all match the in-memory original
    /// exactly, and the loaded rows are read straight out of the file's
    /// storage.
    #[test]
    fn csr_snapshot_roundtrips_through_a_saved_graph(
        n in 2usize..16,
        edges in prop::collection::vec((0usize..16, 0usize..16, 0u8..8), 0..50),
        removals in prop::collection::vec(0usize..16, 0..4),
        w_ext in 0.0f32..3.0,
        probes in prop::collection::vec((0usize..16, 0usize..16), 0..30),
    ) {
        let g = build(n, &edges, &removals);
        let csr = CsrGraph::from_graph(&g);
        let path = std::env::temp_dir()
            .join(format!("tdmatch-container-prop-{}.tdz", std::process::id()));
        g.save_snapshot(&path).unwrap();
        let storage = Storage::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let loaded = CsrGraph::from_sections(&storage, &storage.container().unwrap()).unwrap();
        assert_snapshot_eq(&csr, &loaded);

        // Zero copy: every non-empty row lies inside the storage.
        let bytes = storage.as_bytes().as_ptr_range();
        for id in loaded.nodes() {
            let row = loaded.neighbors(id);
            if !row.is_empty() {
                let row = row.as_ptr_range();
                prop_assert!(bytes.start <= row.start.cast() && row.end.cast() <= bytes.end);
            }
        }

        // The weight table over the loaded arrays is bit-identical per
        // node slice.
        let weights = EdgeTypeWeights::uniform().with(EdgeKind::External, w_ext);
        let (cum, loaded_cum) = (csr.edge_type_cum(&weights), loaded.edge_type_cum(&weights));
        for id in csr.nodes() {
            let a = csr.cum_slice(&cum, id);
            let b = loaded.cum_slice(&loaded_cum, id);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        // The edge relation (what biased walks actually sample from)
        // agrees on arbitrary probes.
        for &(a, b) in &probes {
            let (a, b) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
            prop_assert_eq!(csr.has_edge(a, b), loaded.has_edge(a, b));
            prop_assert_eq!(csr.edge_kind(a, b), loaded.edge_kind(a, b));
        }
    }

    /// No single corrupted byte in a persisted CSR snapshot survives
    /// both the container parse and the CSR section validation.
    #[test]
    fn csr_snapshot_corruption_never_loads(
        n in 2usize..10,
        edges in prop::collection::vec((0usize..10, 0usize..10, 0u8..8), 1..25),
        flip_pos in 0usize..1 << 16,
        flip_bit in 0u8..8,
    ) {
        let g = build(n, &edges, &[]);
        let csr = CsrGraph::from_graph(&g);
        let mut w = ContainerWriter::new();
        csr.write_sections(&mut w);
        let clean = w.finish();

        let pos = flip_pos % clean.len();
        let mut bad = clean.clone();
        bad[pos] ^= 1 << flip_bit;
        let storage = Storage::from_bytes(&bad);
        let loaded = storage
            .container()
            .and_then(|c| CsrGraph::from_sections(&storage, &c));
        prop_assert!(
            loaded.is_err(),
            "flipped bit {flip_bit} of byte {pos} loaded silently"
        );
    }

    /// FlatBuf copy-on-write: mutating a shared view detaches it without
    /// disturbing other views of the same storage.
    #[test]
    fn flatbuf_cow_isolates_mutations(
        values in prop::collection::vec(0u32..=u32::MAX, 1..50),
        idx in 0usize..50,
        new_val in 0u32..=u32::MAX,
    ) {
        let mut w = ContainerWriter::new();
        w.add_pod(*b"VALS", &values);
        let storage = Storage::from_bytes(&w.finish());
        let c = storage.container().unwrap();
        let view = c.section(*b"VALS").unwrap();
        let a = FlatBuf::<u32>::from_section(&storage, view).unwrap();
        let mut b = a.clone();
        let idx = idx % values.len();
        b.make_mut()[idx] = new_val;
        prop_assert_eq!(&a[..], &values[..]);
        prop_assert_eq!(b[idx], new_val);
        prop_assert!(a.is_shared());
        prop_assert!(!b.is_shared());
    }
}
