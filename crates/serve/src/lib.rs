//! # dp-serve
//!
//! A persistent compile-and-execute service. Every `dpopt` invocation used
//! to be a cold process — parse, analyze, transform, lower, execute, then
//! throw everything away. This crate keeps that state warm across
//! requests, the same amortization the paper applies to launch overhead
//! (batching fine-grained work) lifted to the service level:
//!
//! - **One protocol module** ([`proto`]): newline-delimited JSON requests
//!   (`compile`, `transform`, `execute`, `sweep-cell`, `stats`,
//!   `shutdown`) over TCP or Unix sockets, with the client builders and
//!   server parsers side by side so they cannot drift.
//! - **A content-addressed compiled-program cache** ([`cache`]): keyed by
//!   [`dp_sweep::key::compiled_key`] (source text + `OptConfig` +
//!   `CACHE_FORMAT_VERSION` — exactly the sweep cache's hashing), LRU
//!   bounded, with single-flight deduplication so N concurrent identical
//!   compiles perform one compile and share the
//!   [`dp_core::SharedCompiled`].
//! - **Two scheduling mechanisms** ([`server`]): a request gets its own
//!   thread only when its session has something to overlap it with, and
//!   `--jobs` execution slots cap the `execute` / `sweep-cell` requests
//!   running at once. An execution runs on the thread that holds its
//!   slot, not on a `dp-pool` worker: with the caller blocked on the
//!   answer, that hop was a launch with nothing to overlap.
//! - **Deterministic responses** ([`server`]): for every op except
//!   `stats`, response bytes are a pure function of request bytes — cold
//!   cache, warm cache, or 16 concurrent clients, the bytes are identical.
//!   `shutdown` drains in-flight requests before the socket closes.
//! - **Pipelining and backpressure** ([`server`]): requests carrying an
//!   `id` are handled concurrently per connection and answered out of
//!   order (responses echo the `id`); id-less requests keep the legacy
//!   strictly-in-order protocol byte-for-byte. `--max-connections`,
//!   `--max-queue-depth`, `--request-timeout-ms`, and
//!   `--max-request-bytes` bound load with deterministic structured
//!   errors (`kind`: `overloaded`, `deadline_exceeded`, `too_large`, …)
//!   instead of unbounded queueing.
//! - **Client resilience** ([`client`]): connect/read timeouts and a
//!   bounded, deterministically-jittered retry loop
//!   ([`client::ResilientClient`]) behind the `--remote` helpers — sound
//!   to re-send because the ops are deterministic.
//! - **Fault injection** ([`dp_faults`]): a test-only
//!   [`dp_faults::FaultPlan`] ([`ServeOptions::faults`], or `DPOPT_FAULTS`
//!   for out-of-process runs) arms torn writes, disconnects, delays, and
//!   panics at named points in the request path; the `faults.rs` suite
//!   proves the daemon stays serviceable through each.
//!
//! ```no_run
//! use dp_serve::proto::{bare_request, Endpoint};
//! use dp_serve::server::{ServeOptions, Server};
//!
//! let server = Server::bind(
//!     &Endpoint::Tcp("127.0.0.1:0".to_string()),
//!     &ServeOptions::default(),
//! )?;
//! let endpoint = server.endpoint().clone();
//! std::thread::spawn(move || server.serve());
//!
//! let mut client = dp_serve::client::Client::connect(&endpoint)?;
//! let stats = client.request(&bare_request("stats")).unwrap();
//! assert_eq!(stats.get("op").unwrap().as_str(), Some("stats"));
//! client.request(&bare_request("shutdown")).unwrap();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use cache::{CompiledCache, CompiledCacheStats};
pub use client::{Client, ClientOptions, RequestError, ResilientClient};
pub use proto::{parse_endpoint_list, Endpoint};
pub use server::{ServeOptions, Server};
