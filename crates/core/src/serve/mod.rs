//! Scenario serving: stream batched co-simulation over TCP.
//!
//! One long-running server loads a single [`CompiledSystem`] and
//! serves scripted scenarios from many concurrent clients, sharding
//! the work across a persistent pool of simulation workers. The wire
//! protocol ([`wire`]) is a versioned, length-prefixed, checksummed
//! binary frame format with no external dependencies; flow control is
//! credit-based per connection (see [`wire::Frame::Credit`]).
//!
//! The correctness contract is differential: a scenario submitted over
//! the wire must produce a [`wire::WireOutcome`] byte-identical to the
//! encoding of the same scenario run through
//! [`SimPool::run_batch`](crate::pool::SimPool::run_batch)
//! in-process. `crates/core/tests/serve_differential.rs` pins this
//! under worker/client concurrency and out-of-order interleavings.
//!
//! Environment:
//!
//! | variable            | meaning                               | default           |
//! |---------------------|---------------------------------------|-------------------|
//! | `PSCP_SERVE_ADDR`   | listen address for the server binary  | `127.0.0.1:7971`  |
//! | `PSCP_SERVE_WINDOW` | max per-connection credit window      | `32`              |
//! | `PSCP_THREADS`      | shard worker count (shared with pool) | available cores   |
//! | `PSCP_GANG`         | per-worker gang width (shared with pool) | `64` (`auto`)  |
//! | `PSCP_SERVE_STATS`  | telemetry scrapes (`off`/`0`/`false` disables) | on        |

pub mod wire;

mod client;
mod server;

pub use client::ScenarioClient;
pub use server::{serve, spawn, ServerHandle};
pub use wire::{
    Frame, OutcomeLatency, ServeGauges, WireError, WireOutcome, DEFAULT_MAX_FRAME, DEFAULT_WINDOW,
};

use crate::compile::CompiledSystem;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Shard worker threads (one persistent machine each).
    pub threads: usize,
    /// Upper bound on any connection's credit window; client requests
    /// are clamped into `1..=max_window`.
    pub max_window: u32,
    /// Largest accepted frame in bytes.
    pub max_frame: u32,
    /// Gang width: each shard worker packs up to this many queued
    /// scenarios into one bit-sliced gang when queue depth allows
    /// (clamped to `1..=64`; 1 is the scalar path). Outcomes stay
    /// byte-identical either way — the differential suite pins it.
    pub gang: usize,
    /// Answer `StatsRequest` frames (the remote telemetry plane). On
    /// by default; `PSCP_SERVE_STATS=off` disables, after which a
    /// scrape gets a typed `UNEXPECTED_FRAME` error.
    pub stats: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: crate::pool::configured_threads(),
            max_window: DEFAULT_WINDOW,
            max_frame: DEFAULT_MAX_FRAME,
            gang: crate::pool::configured_gang(),
            stats: true,
        }
    }
}

impl ServeOptions {
    /// Defaults overridden by `PSCP_SERVE_WINDOW` and
    /// `PSCP_SERVE_STATS` (plus `PSCP_THREADS` via
    /// [`configured_threads`](crate::pool::configured_threads) and
    /// `PSCP_GANG` via
    /// [`configured_gang`](crate::pool::configured_gang)).
    pub fn from_env() -> Self {
        let mut opts = Self::default();
        if let Ok(v) = std::env::var("PSCP_SERVE_WINDOW") {
            if let Ok(n) = v.trim().parse::<u32>() {
                opts.max_window = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("PSCP_SERVE_STATS") {
            if matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "false") {
                opts.stats = false;
            }
        }
        opts
    }
}

/// The listen address for the server binary: `PSCP_SERVE_ADDR`, or the
/// loopback default.
pub fn addr_from_env() -> String {
    std::env::var("PSCP_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7971".to_string())
}

/// A stable fingerprint of a compiled system, exchanged in the `Hello`
/// handshake so a client can refuse to talk to a server built from a
/// different design.
pub fn system_fingerprint(system: &CompiledSystem) -> u64 {
    let json = serde_json::to_string(system).unwrap_or_default();
    crate::fnv::fnv1a64(json.as_bytes(), 0)
}
