//! # ius-server — the serving subsystem
//!
//! Turns the library into a runnable system: a **std-only** concurrent TCP
//! server (no async runtime — consistent with the workspace's offline
//! shim-crate policy) that serves a persisted single-machine index
//! (`ius_index::persist`, paired with the corpus it was built over) or a
//! mutable, segmented `ius_live::LiveIndex`, and answers pattern queries
//! over a length-prefixed binary wire protocol.
//!
//! * [`protocol`] — the wire format: magic + version + request id + op,
//!   with `QUERY` (collect / count / first-`k` result modes mapping onto
//!   the `ius_query` sinks), `STATS` (the one metrics scrape), `PING`,
//!   `RELOAD`, `SHUTDOWN`, `TRACE_DUMP` and the live-corpus mutations,
//!   and typed error frames for every malformed or refused input;
//! * [`Server`] — acceptor + fixed worker pool (one [`QueryScratch`] per
//!   worker, so steady-state serving is allocation-free on the hot path),
//!   bounded admission queue with `OVERLOADED` backpressure, atomic
//!   `Arc`-swap hot reload that never drops in-flight requests, graceful
//!   shutdown;
//! * [`Client`] — a small blocking client used by the tests, the examples,
//!   `reproduce --bench-slo` and `servebench`;
//! * the `serve` binary — loads (or builds) an index and serves it.
//!
//! ```no_run
//! use ius_server::{Client, ServedIndex, Server, ServerConfig};
//! use ius_weighted::WeightedString;
//! use std::path::Path;
//! use std::sync::Arc;
//!
//! // Serve a persisted index file, against the corpus it was built over,
//! // on an ephemeral port.
//! # fn corpus() -> WeightedString { unimplemented!() }
//! let x: Arc<WeightedString> = Arc::new(corpus());
//! let served = ServedIndex::load(Path::new("index.iusx"), Some(x))?;
//! let server = Server::bind("127.0.0.1:0", served, None, &ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let hits = client.query(&[0, 1, 2, 3])?;
//! println!("{} occurrences", hits.positions.len());
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`QueryScratch`]: ius_query::QueryScratch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod flight;
pub mod metrics;
mod pool;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientConfig, ClientError, QueryOutcome, StatsSnapshot};
pub use flight::{
    FlightRecorder, TraceRecordSnapshot, FLIGHT_PINNED_CAPACITY, FLIGHT_RECENT_CAPACITY,
    TRACE_NO_ERROR,
};
pub use ius_obs::{Scrape, Value};
pub use metrics::{ServerMetrics, SlowQueryEntry, SlowRing, WorkerObs, SLOW_QUERY_PREFIX_LEN};
pub use protocol::{
    ErrorCode, LiveSnapshot, ProtocolError, Request, Response, ResultMode, TraceDump, WireStats,
    MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME, WIRE_MAGIC, WIRE_VERSION,
};
pub use server::{MetricsHandle, ServedIndex, Server, ServerConfig};
