//! A small blocking client for the wire protocol — what the tests, the
//! examples and the serve benchmark talk to the server with.
//!
//! The client is resilient by configuration: [`ClientConfig`] carries
//! connect/read/write deadlines and a bounded exponential-backoff retry
//! budget. Retries apply only to *idempotent* requests (`PING`, `QUERY`,
//! `STATS`, `TRACE_DUMP`) — a mutation is never resent automatically, because a lost
//! response leaves the client unable to tell whether the server applied
//! it. `OVERLOADED` refusals and transport failures are the retryable
//! conditions; on a transport failure the client reconnects before the
//! next attempt.

use crate::flight::TraceRecordSnapshot;
use crate::protocol::{
    decode_response, encode_request, read_frame, ErrorCode, LiveSnapshot, ProtocolError, Request,
    Response, ResultMode, MAX_RESPONSE_FRAME,
};
use ius_obs::{Scrape, Value};
use ius_query::QueryStats;
use ius_weighted::WeightedString;
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Deadlines and retry budget of a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-address connect deadline (`None` = the OS default).
    pub connect_timeout: Option<Duration>,
    /// Blocking-read deadline; a stalled server surfaces as a transport
    /// error instead of hanging the caller (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Blocking-write deadline (`None` = wait forever).
    pub write_timeout: Option<Duration>,
    /// Retries *after* the first attempt for idempotent requests. 0
    /// disables retrying entirely.
    pub max_retries: u32,
    /// First retry delay; attempt `k` sleeps `backoff_base * 2^k`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_max: Duration,
}

impl Default for ClientConfig {
    /// Deadlines on, retries off: calls cannot hang forever, and no
    /// request is ever silently resent unless the caller opts in.
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// Errors of one client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes EOF mid-response).
    Io(io::Error),
    /// The server's bytes did not decode as a protocol frame.
    Protocol(ProtocolError),
    /// The server answered with a typed error frame.
    Server {
        /// The typed error code.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server answered a different request than the one sent.
    IdMismatch {
        /// Id the client sent.
        sent: u64,
        /// Id the response carried.
        got: u64,
    },
    /// The response decoded fine but has the wrong shape for the request
    /// (e.g. a `Count` answer to a collect query).
    UnexpectedResponse {
        /// What the call expected.
        expected: &'static str,
    },
    /// A scrape lacks a counter the caller reads (or carries it with
    /// another kind).
    MissingSample(&'static str),
    /// An idempotent request kept failing retryably until the configured
    /// retry budget ran out.
    RetriesExhausted {
        /// Attempts made (first try plus retries).
        attempts: u32,
        /// The failure of the final attempt.
        last: Box<ClientError>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server refused the request: {code}: {message}")
            }
            ClientError::IdMismatch { sent, got } => {
                write!(f, "response id {got} does not match request id {sent}")
            }
            ClientError::UnexpectedResponse { expected } => {
                write!(
                    f,
                    "response shape does not match the request (expected {expected})"
                )
            }
            ClientError::MissingSample(name) => {
                write!(f, "the server's scrape has no counter named {name:?}")
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            ClientError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// The server's error counters, read by name from its scrape — what
/// [`Client::stats`] returns. Their sum is the server-side failure count,
/// so a counter missing from the scrape is an error, never a silent 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Malformed or incompatible frames answered with a typed error.
    pub protocol_errors: u64,
    /// Well-formed queries that failed engine-side validation.
    pub query_errors: u64,
    /// Connections refused with `OVERLOADED` because the queue was full.
    pub overloaded: u64,
    /// Live mutations refused or failed (`LIVE_ERROR` frames).
    pub live_errors: u64,
    /// Background live-compaction rounds that failed (0 for a static
    /// index).
    pub compaction_errors: u64,
}

impl StatsSnapshot {
    /// Reads the five error counters out of `scrape`.
    ///
    /// # Errors
    ///
    /// [`ClientError::MissingSample`] naming the first counter the scrape
    /// lacks.
    pub fn from_scrape(scrape: &Scrape) -> Result<Self, ClientError> {
        let read = |name: &'static str| match scrape.get(name) {
            Some(Value::Counter(v)) => Ok(*v),
            _ => Err(ClientError::MissingSample(name)),
        };
        Ok(Self {
            protocol_errors: read("protocol_errors")?,
            query_errors: read("query_errors")?,
            overloaded: read("overloaded")?,
            live_errors: read("live_errors")?,
            compaction_errors: read("compaction_errors")?,
        })
    }
}

/// A query answer: the delivered positions plus the engine counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Sorted, deduplicated occurrence positions (all of them in collect
    /// mode, the `k` smallest in first-`k` mode).
    pub positions: Vec<usize>,
    /// The engine's per-query counters.
    pub stats: QueryStats,
}

/// A blocking connection to one server. Requests are answered in order on
/// the connection; ids are attached and checked automatically.
pub struct Client {
    stream: TcpStream,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    next_id: u64,
    send_buf: Vec<u8>,
    recv_buf: Vec<u8>,
}

impl Client {
    /// Connects to a server with the default deadlines and no retries.
    ///
    /// # Errors
    ///
    /// Socket errors of the connect.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a server with explicit deadlines and retry budget.
    ///
    /// # Errors
    ///
    /// Socket errors of the connect (each resolved address is tried once;
    /// the connect itself is not retried — callers that want that loop
    /// over `connect_with`).
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Client::open_stream(&addrs, &config)?;
        Ok(Client {
            stream,
            addrs,
            config,
            next_id: 1,
            send_buf: Vec::new(),
            recv_buf: Vec::new(),
        })
    }

    /// Opens, tunes, and returns a stream to the first reachable address.
    fn open_stream(addrs: &[SocketAddr], config: &ClientConfig) -> io::Result<TcpStream> {
        let mut last_err = None;
        for addr in addrs {
            let attempt = match config.connect_timeout {
                Some(deadline) => TcpStream::connect_timeout(addr, deadline),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_write_timeout(config.write_timeout)?;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to no socket addresses",
            )
        }))
    }

    /// Replaces a (presumed broken) connection with a fresh one.
    fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Client::open_stream(&self.addrs, &self.config)?;
        Ok(())
    }

    /// Whether a failure is safe and useful to retry: the transport broke
    /// (timeout, reset, EOF — the request may never have arrived), or the
    /// server refused admission with `OVERLOADED` (it never looked at the
    /// request).
    fn retryable(error: &ClientError) -> bool {
        matches!(
            error,
            ClientError::Io(_)
                | ClientError::Server {
                    code: ErrorCode::Overloaded,
                    ..
                }
        )
    }

    /// [`Client::call`] plus the bounded-backoff retry loop — only for
    /// requests that are safe to resend.
    fn call_idempotent(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            let error = match self.call(request) {
                Ok(response) => return Ok(response),
                Err(e) if Client::retryable(&e) => e,
                Err(e) => return Err(e),
            };
            if attempt >= self.config.max_retries {
                return Err(if attempt == 0 {
                    // Retrying was off; surface the plain failure.
                    error
                } else {
                    ClientError::RetriesExhausted {
                        attempts: attempt + 1,
                        last: Box::new(error),
                    }
                });
            }
            let backoff = self
                .config
                .backoff_base
                .saturating_mul(1u32 << attempt.min(16))
                .min(self.config.backoff_max);
            std::thread::sleep(backoff);
            if matches!(error, ClientError::Io(_)) {
                // The connection is suspect; a failed reconnect just
                // burns this attempt and backs off again.
                let _ = self.reconnect();
            }
            attempt += 1;
        }
    }

    /// One request/response round trip.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        encode_request(id, request, &mut self.send_buf);
        self.stream.write_all(&self.send_buf)?;
        if !read_frame(&mut self.stream, MAX_RESPONSE_FRAME, &mut self.recv_buf)? {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )));
        }
        let (got_id, response) = decode_response(&self.recv_buf)?;
        // Typed refusals that predate request parsing (overload, shutdown,
        // header-level garbage) carry id 0.
        if got_id != id && got_id != 0 {
            return Err(ClientError::IdMismatch {
                sent: id,
                got: got_id,
            });
        }
        if let Response::Error { code, message } = response {
            return Err(ClientError::Server { code, message });
        }
        Ok(response)
    }

    /// Liveness probe. Idempotent: retried under the configured budget.
    ///
    /// # Errors
    ///
    /// Transport, protocol and server-refusal errors;
    /// [`ClientError::RetriesExhausted`] when a retry budget ran dry.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call_idempotent(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::UnexpectedResponse { expected: "PONG" }),
        }
    }

    /// Reports every occurrence of `pattern` (collect mode).
    ///
    /// # Errors
    ///
    /// Transport, protocol and server-refusal errors (including the
    /// engine's pattern contract as [`ClientError::Server`] with
    /// [`ErrorCode::Query`]).
    pub fn query(&mut self, pattern: &[u8]) -> Result<QueryOutcome, ClientError> {
        self.query_mode(pattern, ResultMode::Collect)
    }

    /// Reports the `k` smallest occurrences of `pattern`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::query`].
    pub fn query_first_k(&mut self, pattern: &[u8], k: u64) -> Result<QueryOutcome, ClientError> {
        self.query_mode(pattern, ResultMode::FirstK(k))
    }

    fn query_mode(
        &mut self,
        pattern: &[u8],
        mode: ResultMode,
    ) -> Result<QueryOutcome, ClientError> {
        let request = Request::Query {
            mode,
            pattern: pattern.to_vec(),
        };
        match self.call_idempotent(&request)? {
            Response::Matches { stats, positions } => Ok(QueryOutcome {
                positions: positions.into_iter().map(|p| p as usize).collect(),
                stats: stats.into(),
            }),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "MATCHES",
            }),
        }
    }

    /// Counts the occurrences of `pattern` without materialising them.
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::query`].
    pub fn query_count(&mut self, pattern: &[u8]) -> Result<(u64, QueryStats), ClientError> {
        let request = Request::Query {
            mode: ResultMode::Count,
            pattern: pattern.to_vec(),
        };
        match self.call_idempotent(&request)? {
            Response::Count { stats, count } => Ok((count, stats.into())),
            _ => Err(ClientError::UnexpectedResponse { expected: "COUNT" }),
        }
    }

    /// Scrapes the server's metrics: every counter, gauge, histogram and
    /// info sample, by name. Idempotent: retried under the configured
    /// budget.
    ///
    /// # Errors
    ///
    /// Transport, protocol and server-refusal errors;
    /// [`ClientError::RetriesExhausted`] when a retry budget ran dry.
    pub fn scrape(&mut self) -> Result<Scrape, ClientError> {
        match self.call_idempotent(&Request::Stats)? {
            Response::Stats(scrape) => Ok(scrape),
            _ => Err(ClientError::UnexpectedResponse { expected: "STATS" }),
        }
    }

    /// The server's error counters: a view of [`Client::scrape`].
    ///
    /// # Errors
    ///
    /// Those of [`Client::scrape`], and [`ClientError::MissingSample`]
    /// when the scrape lacks one of the counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        StatsSnapshot::from_scrape(&self.scrape()?)
    }

    /// Snapshots the server's flight recorder: its errors, slow and recent
    /// rings, in that order, each oldest first. Non-destructive on the
    /// server side. Idempotent: retried under the configured budget.
    ///
    /// # Errors
    ///
    /// Transport, protocol and server-refusal errors;
    /// [`ClientError::RetriesExhausted`] when a retry budget ran dry.
    pub fn trace_dump(&mut self) -> Result<Vec<TraceRecordSnapshot>, ClientError> {
        match self.call_idempotent(&Request::TraceDump)? {
            Response::TraceDump(dump) => Ok(dump),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "TRACE_DUMP",
            }),
        }
    }

    /// Hot-reloads the served index from `path` (or the server's startup
    /// path when `None`); returns the new generation.
    ///
    /// # Errors
    ///
    /// Transport, protocol and server-refusal errors
    /// ([`ErrorCode::Reload`] when the file is missing or corrupt).
    pub fn reload(&mut self, path: Option<&str>) -> Result<u64, ClientError> {
        let request = Request::Reload {
            path: path.map(str::to_owned),
        };
        match self.call(&request)? {
            Response::Reloaded { generation } => Ok(generation),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "RELOADED",
            }),
        }
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport, protocol and server-refusal errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "SHUTTING_DOWN",
            }),
        }
    }

    fn live_call(&mut self, request: &Request) -> Result<LiveSnapshot, ClientError> {
        match self.call(request)? {
            Response::Live(snapshot) => Ok(snapshot),
            _ => Err(ClientError::UnexpectedResponse { expected: "LIVE" }),
        }
    }

    /// Appends a batch of weighted positions to a live corpus; the rows
    /// are visible to the very next query. Refused with
    /// [`ErrorCode::Live`] by a server that does not serve a live index.
    ///
    /// Note the request-frame bound: a batch must fit in
    /// [`crate::protocol::MAX_REQUEST_FRAME`] (split large appends into
    /// several calls).
    ///
    /// # Errors
    ///
    /// Transport, protocol and server-refusal errors.
    pub fn append(&mut self, batch: &WeightedString) -> Result<LiveSnapshot, ClientError> {
        self.append_rows(batch.sigma() as u64, batch.flat_probs().to_vec())
    }

    /// Appends raw row-major probability rows (`rows × sigma` values) —
    /// the allocation-explicit variant of [`Client::append`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::append`].
    pub fn append_rows(
        &mut self,
        sigma: u64,
        probs: Vec<f64>,
    ) -> Result<LiveSnapshot, ClientError> {
        self.live_call(&Request::Append { sigma, probs })
    }

    /// Tombstones the logical range `[start, end)` of a live corpus:
    /// every occurrence whose window intersects it disappears from
    /// results (positions are never renumbered).
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::append`].
    pub fn delete_range(&mut self, start: u64, end: u64) -> Result<LiveSnapshot, ClientError> {
        self.live_call(&Request::DeleteRange { start, end })
    }

    /// Freezes the live memtable into segment(s); `changed` in the answer
    /// is the number of segments created (0 when the memtable held only
    /// the overlap).
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::append`].
    pub fn flush(&mut self) -> Result<LiveSnapshot, ClientError> {
        self.live_call(&Request::Flush)
    }

    /// Runs live compaction — one tiered round, or a full merge-all —
    /// and reports the merges performed in `changed`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::append`].
    pub fn compact(&mut self, full: bool) -> Result<LiveSnapshot, ClientError> {
        self.live_call(&Request::Compact { full })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ERROR_COUNTERS: [&str; 5] = [
        "protocol_errors",
        "query_errors",
        "overloaded",
        "live_errors",
        "compaction_errors",
    ];

    #[test]
    fn stats_reads_the_error_counters_by_name() {
        let mut scrape = Scrape::new();
        scrape.push("index_name", Value::Info("MWSA".into()));
        for (i, name) in ERROR_COUNTERS.into_iter().enumerate() {
            scrape.push(name, Value::Counter(i as u64 + 1));
        }
        assert_eq!(
            StatsSnapshot::from_scrape(&scrape).unwrap(),
            StatsSnapshot {
                protocol_errors: 1,
                query_errors: 2,
                overloaded: 3,
                live_errors: 4,
                compaction_errors: 5,
            }
        );
    }

    #[test]
    fn a_missing_error_counter_is_a_typed_error() {
        for missing in ERROR_COUNTERS {
            // Absent, and present with the wrong kind: both refused.
            for wrong_kind in [None, Some(Value::Gauge(0))] {
                let mut scrape = Scrape::new();
                for name in ERROR_COUNTERS {
                    if name != missing {
                        scrape.push(name, Value::Counter(0));
                    } else if let Some(value) = wrong_kind.clone() {
                        scrape.push(name, value);
                    }
                }
                match StatsSnapshot::from_scrape(&scrape) {
                    Err(ClientError::MissingSample(name)) => assert_eq!(name, missing),
                    other => panic!("{missing}: expected MissingSample, got {other:?}"),
                }
            }
        }
    }
}
