//! Undirected typed graph substrate for TDmatch.
//!
//! The paper models heterogeneous corpora as one undirected, unweighted
//! graph with two node families (§II):
//!
//! * **data nodes** — pre-processed terms, interned so that a term shared by
//!   several documents is a single node;
//! * **metadata nodes** — tuples, attributes (columns), free-text documents
//!   and taxonomy nodes.
//!
//! This crate provides the graph itself ([`Graph`]), an immutable
//! compressed-sparse-row snapshot for read-heavy phases ([`CsrGraph`]),
//! breadth-first search and all-shortest-path enumeration ([`traverse`]),
//! and the biased transition sampling used by the walk generator
//! ([`sample`]).
//!
//! # Snapshot lifecycle
//!
//! The intended flow separates the *mutation* phase from the *read* phase:
//!
//! 1. build the [`Graph`] (Alg. 1), then expand (Alg. 2), merge (§II-C)
//!    and/or compress (Alg. 3) it — all mutating operations;
//! 2. freeze the result once with [`CsrGraph::from_graph`];
//! 3. run all read-heavy work — random-walk generation, `has_edge`-heavy
//!    biased walks, embedding training — against the snapshot.
//!
//! The snapshot is immutable: further `Graph` mutations require a fresh
//! freeze. Walks run over the snapshot only; it keeps the source graph's
//! neighbor order, so they are a function of the graph and the seed (see
//! [`csr`]).

//!
//! # Persistence
//!
//! One on-disk format lives here: [`container`] is the `TDZ1` zero-copy
//! section container shared by the whole workspace (byte-level spec:
//! `docs/FORMAT.md` at the repository root). Anything else — the retired
//! `TDM1` / `TDG1` magics included — is [`DecodeError::BadMagic`]. A
//! frozen [`CsrGraph`] serializes its flat arrays straight into
//! it ([`CsrGraph::write_sections`]) and a warm start maps them back
//! without rebuilding ([`CsrGraph::from_sections`]). Serving processes
//! open snapshots through [`container::Storage::open`], which
//! memory-maps the file ([`mmap`]) so N processes share one physical
//! copy through the OS page cache; [`container::Storage::container`]
//! then checks every CRC, once per load. The *mutable* [`Graph`] — labels
//! included, for resuming training after an expensive expansion — saves
//! as the sections of its frozen [`CsrGraph`] plus one label section ([`Graph::save_snapshot`] /
//! [`Graph::load_snapshot`]). Snapshot files are published crash-safely via
//! [`publish::publish_atomic`] (same-directory temp file, fsync,
//! rename): a writer killed mid-save can never leave a torn file at a
//! published path.

pub mod codec;
pub mod container;
pub mod csr;
pub mod mmap;
pub mod edge;
pub mod graph;
pub mod node;
pub mod publish;
pub mod sample;
pub mod stats;
pub mod traverse;

pub use codec::DecodeError;
pub use container::{Container, ContainerWriter, FlatBuf, SectionTag, Storage};
pub use csr::{CsrGraph, EdgeTypeCum};
pub use edge::{EdgeKind, EdgeTypeWeights};
pub use graph::Graph;
pub use node::{CorpusSide, MetaKind, NodeId, NodeKind};
pub use publish::publish_atomic;
pub use stats::GraphStats;
