//! # tdmatch-serve
//!
//! The long-lived serving layer: a batch-matching daemon over one
//! memory-mapped [`MatchArtifact`](tdmatch_core::artifact::MatchArtifact).
//!
//! The pipeline is fit-once / match-many, and PRs 3–4 made the "many"
//! side cheap to *open* (zero-copy containers, shared-mmap `Storage`
//! with ~15 µs lazy-CRC opens) — but a one-shot CLI invocation still
//! pays process startup per query, burying the open cost under
//! millisecond-scale exec costs. `tdmatch serve` amortizes startup the
//! rest of the way: the artifact is mapped **once**, and queries arrive
//! over a Unix-domain socket where a batching queue coalesces
//! concurrent requests into the engine's query blocks — N clients ride
//! one tiled [`MatchArtifact::rank`](tdmatch_core::artifact::MatchArtifact::rank)
//! scan instead of issuing N scalar ones.
//!
//! * [`protocol`] — length-prefixed JSON frames: requests, responses,
//!   error codes (spec: `docs/SERVING.md`);
//! * [`batch`] — the multi-consumer coalescing queue (window /
//!   max-batch policy);
//! * [`server`] — the daemon: listeners (Unix socket, optional TCP),
//!   per-connection readers, and worker threads that take batches
//!   from the queue, score them and write the responses (Unix only);
//! * [`client`] — the synchronous client (`tdmatch query --socket`),
//!   with capped-backoff retries for retryable errors;
//! * [`signals`] — `SIGHUP` → hot-swap reload trigger (Unix only).
//!
//! Batched answers are **bit-identical** to the one-shot
//! `MatchArtifact::match_top_k` path: by-id queries are gathered
//! verbatim out of the pre-normalized query matrix, each ranking is
//! independent of its batch neighbours, and scores cross the wire as
//! exactly-widened `f64`s.
//!
//! ```
//! # #[cfg(unix)]
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use tdmatch_core::artifact::MatchArtifact;
//! use tdmatch_core::serving::Matcher;
//! use tdmatch_serve::client::Client;
//! use tdmatch_serve::server::{ServeOptions, Server};
//!
//! // Normally `tdmatch run --save` produces the artifact; built inline
//! // here so the example is self-contained.
//! let artifact = MatchArtifact::new(
//!     2,
//!     vec![("tarantino".into(), vec![1.0, 0.0])],
//!     vec![Some(vec![1.0, 0.0]), Some(vec![0.0, 1.0])], // targets
//!     vec![Some(vec![0.9, 0.1])],                       // queries
//! );
//! let socket = std::env::temp_dir().join("tdmatch-serve-doctest.sock");
//! # std::fs::remove_file(&socket).ok();
//! let server = Server::start(Matcher::new(artifact), ServeOptions::at(&socket))?;
//!
//! let mut client = Client::connect(&socket)?;
//! let (ranked, _batch) = client.query_id(0, 1)?;
//! assert_eq!(ranked[0].0, 0); // query [0.9, 0.1] → target 0
//! client.shutdown()?;
//! server.join();
//! assert!(!socket.exists()); // the daemon unlinked its socket
//! # Ok(())
//! # }
//! # #[cfg(not(unix))]
//! # fn main() {} // the daemon is unix-only; see the cfg-gated modules
//! ```

pub mod batch;
pub mod json;
pub mod protocol;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
mod net;
#[cfg(unix)]
pub mod server;
#[cfg(unix)]
pub mod signals;

pub use batch::{BatchOptions, BatchQueue};
pub use protocol::{ErrorCode, Request, RequestBody, Response, ResponseBody, StatsSnapshot};

#[cfg(unix)]
pub use client::{Client, ClientError, RetryPolicy};
#[cfg(unix)]
pub use server::{ServeOptions, Server};
