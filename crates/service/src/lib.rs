//! STAUB solver-as-a-service: the `staub serve` daemon, its wire
//! protocol, the canonical-constraint answer cache, and client drivers.
//!
//! The batch front end (`staub batch`) amortises solver setup across one
//! process invocation; this crate amortises it across a *process
//! lifetime*. A long-running server accepts newline-delimited JSON
//! requests over TCP or a Unix socket, feeds cache misses into the
//! multi-lane portfolio scheduler, and answers repeats — including
//! α-renamed and commutatively reordered repeats — straight from a
//! sharded LRU keyed by the canonical form of the constraint
//! ([`staub_smtlib::canonicalize`]).
//!
//! Module map:
//!
//! * [`json`] — a minimal, depth-capped JSON reader/writer (the workspace
//!   has no serde; the request path needs only this subset).
//! * [`protocol`] — request/response shapes, error codes, and the
//!   size-capped line reader.
//! * [`cache`] — the sharded LRU answer cache with collision-proof
//!   full-key comparison, behind the [`cache::AnswerStore`] trait.
//! * [`persist`] — the crash-persistent answer store (snapshot +
//!   CRC-framed append-only log, truncated-tail-tolerant warm start).
//! * [`endpoint`] — the transport-agnostic `tcp:`/`unix:` address type
//!   shared by server, router, and clients.
//! * [`server`] — the `staub serve` daemon: admission control, the solve
//!   path, and graceful drain.
//! * [`reactor`] — the nonblocking epoll reactor, the only connection
//!   plane of both daemons: many idle connections, one fixed worker pool.
//!   It needs Linux, so [`Server::launch`] and [`Router::launch`] fail
//!   with `Unsupported` elsewhere; the clients work anywhere.
//! * [`route`] — the `staub route` front node: consistent-hash sharding
//!   of canonical fingerprints across backend servers.
//! * [`client`] — `staub client` / `staub loadgen` drivers with
//!   client-side response auditing.
//! * [`signal`] — the SIGINT/SIGTERM shutdown flag (the workspace's one
//!   audited `unsafe` exception; the reactor's epoll FFI is the other).

pub mod cache;
pub mod client;
pub mod endpoint;
pub mod json;
pub mod persist;
pub mod protocol;
pub mod reactor;
pub mod route;
pub mod server;
pub mod signal;

pub use cache::{AnswerCache, AnswerStore, CacheConfig, CacheStats, CachedVerdict};
pub use client::{
    assert_request, audit_reply, check_request, health_request, run_loadgen, session_close_request,
    session_open_request, shutdown_request, solve_request, Audit, Connection, LoadgenConfig,
    LoadgenOutcome, RequestRecord,
};
pub use endpoint::{Endpoint, EndpointError, EndpointListener, EndpointStream};
pub use persist::{PersistConfig, PersistStatus, PersistentStore, ReplayReport};
pub use protocol::{
    parse_request, LineRead, LineReader, ProtocolError, Request, SolveRequest, PROTOCOL_VERSION,
};
pub use route::{RouteConfig, Router};
pub use server::{DrainSummary, Server, ServerConfig};
