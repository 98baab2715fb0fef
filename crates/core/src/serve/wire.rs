//! The scenario-serving wire format.
//!
//! A dependency-free binary codec for streaming scenario batches over a
//! byte stream. Every frame is length-prefixed and checksummed:
//!
//! ```text
//! +---------------+---------+--------+----------+-------------------+
//! | len: u32 LE   | version | type   | body ... | checksum: u32 LE  |
//! | (payload len) | u8 = 1  | u8     |          | FNV-1a over       |
//! |               |         |        |          | version..body     |
//! +---------------+---------+--------+----------+-------------------+
//! ```
//!
//! All integers are little-endian. Strings are `u32` length + UTF-8
//! bytes. The length prefix counts everything after itself (version,
//! type, body, checksum), and is capped at [`DEFAULT_MAX_FRAME`] by
//! default — an oversized prefix is rejected *before* any allocation,
//! so a corrupt or hostile peer cannot balloon memory.
//!
//! Frame types:
//!
//! | tag | frame                  | direction       | purpose                              |
//! |-----|------------------------|-----------------|--------------------------------------|
//! | 0   | [`Frame::Hello`]       | both            | version/window/fingerprint handshake |
//! | 1   | [`Frame::Submit`]      | client → server | one scripted scenario + limits       |
//! | 2   | [`Frame::Outcome`]     | server → client | one [`WireOutcome`], tagged by seq   |
//! | 3   | [`Frame::Credit`]      | server → client | in-flight window replenishment       |
//! | 4   | [`Frame::Error`]       | both            | typed fatal error, then close        |
//! | 5   | [`Frame::Compile`]     | client → server | chart + action sources to compile    |
//! | 6   | [`Frame::Diagnostics`] | server → client | compile report + system fingerprint  |
//! | 7   | [`Frame::StatsRequest`]| client → server | telemetry scrape request (empty body)|
//! | 8   | [`Frame::Stats`]       | server → client | serve gauges + canonical obs snapshot|
//! | 9   | [`Frame::Explore`]     | client → server | state-space exploration request      |
//! | 10  | [`Frame::ExploreResult`]| server → client| one chunk of a canonical explore report |
//!
//! An exploration report can exceed the frame cap (witness traces,
//! unreachable lists), so a [`Frame::Explore`] is answered by a
//! *sequence* of [`Frame::ExploreResult`] chunks — ascending `seq`,
//! `last` set on the final one — whose concatenated chunks are exactly
//! [`encode_explore_report`] of the server's report. Like `Stats`,
//! the reply bypasses the credit window.
//!
//! Like `Diagnostics`, a [`Frame::Stats`] reply bypasses the credit
//! window: scraping telemetry never competes with scenario credits.
//! The snapshot payload is encoded canonically ([`encode_stats`]) so a
//! wire scrape of a quiesced server is byte-identical to an in-process
//! [`pscp_obs::metrics::snapshot`] encoding.
//!
//! [`Frame::Error`] carries a stable `u16` code from the [`error_code`]
//! registry; codes are never renumbered, only appended:
//!
//! | code | name                                | meaning                                |
//! |------|-------------------------------------|----------------------------------------|
//! | 1    | [`error_code::BAD_VERSION`]         | unknown protocol version byte          |
//! | 2    | [`error_code::BAD_CHECKSUM`]        | frame checksum mismatch                |
//! | 3    | [`error_code::MALFORMED`]           | structurally invalid frame body        |
//! | 4    | [`error_code::TOO_LARGE`]           | length prefix above the frame cap      |
//! | 5    | [`error_code::CREDIT_VIOLATION`]    | submit past the granted credit window  |
//! | 6    | [`error_code::UNEXPECTED_FRAME`]    | valid frame, wrong direction or state  |
//! | 7    | [`error_code::SYSTEM_MISMATCH`]     | fingerprint does not match the system  |
//! | 8    | [`error_code::INTERNAL`]            | server-side internal failure           |
//!
//! Compile failures are **not** `Error` frames: a [`Frame::Compile`]
//! always answers with [`Frame::Diagnostics`], whose fingerprint is 0
//! when the compile produced errors. The diagnostic list is encoded
//! canonically ([`encode_diagnostics`]) so a wire round-trip is
//! byte-identical to an in-process [`pscp_diag::DiagnosticSink::finish`].
//!
//! [`WireOutcome`] is the canonical serialisation of a
//! [`BatchOutcome`]`<`[`ScriptedEnvironment`]`>`; the differential
//! harness compares server round-trips against in-process
//! [`SimPool`](crate::pool::SimPool) runs byte-for-byte through
//! [`WireOutcome::encode`].

use crate::explore::{ExploreOptions, ExploreReport, Predicate, Violation, Witness};
use crate::machine::{CycleReport, MachineStats, ScriptedEnvironment};
use crate::pool::{BatchOptions, BatchOutcome};
use pscp_diag::{Diagnostic, Pos, Severity, Source, Span};
pub use pscp_obs::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::fmt;
use std::io::{Read, Write};

/// Version byte every frame carries; bumped on incompatible change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default cap on one frame's payload length (16 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Default credit window requested by clients / granted by servers.
pub const DEFAULT_WINDOW: u32 = 32;

/// Bytes of framing around a payload: the four length-prefix bytes.
const LEN_PREFIX: usize = 4;
/// Minimum payload: version + type + checksum.
const MIN_PAYLOAD: u32 = 6;

const T_HELLO: u8 = 0;
const T_SUBMIT: u8 = 1;
const T_OUTCOME: u8 = 2;
const T_CREDIT: u8 = 3;
const T_ERROR: u8 = 4;
const T_COMPILE: u8 = 5;
const T_DIAGNOSTICS: u8 = 6;
const T_STATS_REQUEST: u8 = 7;
const T_STATS: u8 = 8;
const T_EXPLORE: u8 = 9;
const T_EXPLORE_RESULT: u8 = 10;

/// Optional capabilities negotiated in the [`Frame::Hello`] handshake.
///
/// The client requests a bit set; the server grants the intersection
/// with [`feature::SUPPORTED`] and echoes it in its reply `Hello`.
/// A zero feature word is encoded as *absent* (the PR-8 `Hello`
/// layout), so old peers interoperate unchanged.
pub mod feature {
    /// Outcome frames carry an [`OutcomeLatency`](super::OutcomeLatency)
    /// trailer (`queue_ns`/`sim_ns`/`encode_ns`).
    pub const LATENCY: u32 = 1 << 0;
    /// Every feature this build understands.
    pub const SUPPORTED: u32 = LATENCY;
}

/// Error codes carried by [`Frame::Error`].
pub mod error_code {
    /// Peer spoke an unknown protocol version.
    pub const BAD_VERSION: u16 = 1;
    /// Frame checksum mismatch.
    pub const BAD_CHECKSUM: u16 = 2;
    /// Frame body malformed (truncated, trailing bytes, bad UTF-8…).
    pub const MALFORMED: u16 = 3;
    /// Length prefix above the frame cap.
    pub const TOO_LARGE: u16 = 4;
    /// Client submitted past its credit window.
    pub const CREDIT_VIOLATION: u16 = 5;
    /// Frame type valid but not allowed in this direction/state.
    pub const UNEXPECTED_FRAME: u16 = 6;
    /// Client fingerprint does not match the loaded system.
    pub const SYSTEM_MISMATCH: u16 = 7;
    /// Server-side internal failure.
    pub const INTERNAL: u16 = 8;
}

/// 32-bit FNV-1a, the frame checksum.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Codec and protocol failures.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport error.
    Io(std::io::Error),
    /// The peer closed the stream at a frame boundary.
    Closed,
    /// The stream ended (or the body ran out) mid-frame.
    Truncated,
    /// Length prefix above the configured frame cap.
    TooLarge {
        /// The offending declared payload length.
        len: u64,
        /// The cap it exceeded.
        max: u32,
    },
    /// Unknown protocol version byte.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Frame checksum mismatch.
    BadChecksum,
    /// Unknown frame-type tag.
    UnknownFrame {
        /// The tag received.
        tag: u8,
    },
    /// Structurally invalid frame body.
    Malformed(&'static str),
    /// The peer reported a typed [`Frame::Error`] and closed.
    Remote {
        /// One of [`error_code`].
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// The peer sent a well-formed frame that violates the protocol
    /// state machine (e.g. an `Outcome` sent to the server).
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            WireError::BadVersion { got } => {
                write!(f, "unknown protocol version {got} (expected {PROTOCOL_VERSION})")
            }
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::UnknownFrame { tag } => write!(f, "unknown frame type {tag}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Remote { code, message } => {
                write!(f, "peer error {code}: {message}")
            }
            WireError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// The [`error_code`] a server reports this failure under.
    pub fn code(&self) -> u16 {
        match self {
            WireError::BadVersion { .. } => error_code::BAD_VERSION,
            WireError::BadChecksum => error_code::BAD_CHECKSUM,
            WireError::TooLarge { .. } => error_code::TOO_LARGE,
            WireError::Protocol(_) => error_code::UNEXPECTED_FRAME,
            WireError::Remote { code, .. } => *code,
            _ => error_code::MALFORMED,
        }
    }
}

/// One scripted scenario submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submit {
    /// Client-chosen sequence number; outcomes echo it, so clients can
    /// reassemble submission order under out-of-order completion.
    pub seq: u64,
    /// Run limits for this scenario.
    pub limits: BatchOptions,
    /// `script[i]` = external event names for the i-th cycle.
    pub script: Vec<Vec<String>>,
}

/// A state-space exploration request, carried by [`Frame::Explore`].
///
/// Thread count and gang width are deliberately *not* on the wire:
/// exploration is byte-identical across both (pinned by the explore
/// differential suite), so they are the server's scaling choice, not
/// part of the request's meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreRequest {
    /// Stop discovering new states past this many.
    pub max_states: u64,
    /// Maximum trace length explored.
    pub max_depth: u32,
    /// Cap on reported deadlock/fault witnesses.
    pub max_witnesses: u32,
    /// Safety predicates to check.
    pub predicates: Vec<Predicate>,
}

impl ExploreRequest {
    /// The wire request for a set of [`ExploreOptions`] (threads and
    /// gang width stay local).
    pub fn from_options(opts: &ExploreOptions) -> Self {
        ExploreRequest {
            max_states: opts.max_states,
            max_depth: opts.max_depth,
            max_witnesses: opts.max_witnesses,
            predicates: opts.predicates.clone(),
        }
    }

    /// Server-side [`ExploreOptions`]: the request's bounds and
    /// predicates, expanded with the given worker configuration.
    pub fn to_options(&self, threads: usize, gang: usize) -> ExploreOptions {
        ExploreOptions {
            max_states: self.max_states,
            max_depth: self.max_depth,
            max_witnesses: self.max_witnesses,
            threads,
            gang,
            predicates: self.predicates.clone(),
        }
    }
}

impl Default for ExploreRequest {
    fn default() -> Self {
        ExploreRequest::from_options(&ExploreOptions::default())
    }
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake. The client sends its requested window and the
    /// fingerprint of the system it expects (0 = any); the server
    /// replies with the negotiated window and the fingerprint of the
    /// system it actually serves.
    Hello {
        /// Requested (client) / granted (server) credit window.
        window: u32,
        /// Compiled-system fingerprint; 0 means "unknown/any".
        fingerprint: u64,
        /// Requested (client) / granted (server) [`feature`] bits.
        /// Encoded only when nonzero, so a zero word is byte-identical
        /// to the pre-feature `Hello` layout.
        features: u32,
    },
    /// One scenario submission (client → server).
    Submit(Submit),
    /// One finished scenario (server → client).
    Outcome {
        /// The submission's sequence number.
        seq: u64,
        /// The canonical outcome serialisation.
        outcome: WireOutcome,
    },
    /// Window replenishment: the client may have `n` more scenarios in
    /// flight (server → client).
    Credit {
        /// Credits granted.
        n: u32,
    },
    /// Fatal typed error; the sender closes after writing it.
    Error {
        /// One of [`error_code`].
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Chart and action sources for the server to compile
    /// (client → server). Always answered by [`Frame::Diagnostics`] —
    /// never by an `Error` frame, however broken the sources.
    Compile {
        /// Statechart source text.
        chart: String,
        /// Action-language source text.
        actions: String,
    },
    /// The full compile report (server → client): every diagnostic
    /// from every layer, span-sorted and deduplicated, plus the
    /// fingerprint of the compiled system when the compile succeeded
    /// (0 on failure).
    Diagnostics {
        /// [`system_fingerprint`](super::system_fingerprint) of the
        /// compiled system; 0 when the compile produced errors.
        fingerprint: u64,
        /// The canonical report ([`pscp_diag::DiagnosticSink::finish`]).
        diagnostics: Vec<Diagnostic>,
    },
    /// Telemetry scrape request (client → server). Empty body; always
    /// answered with [`Frame::Stats`] (or a typed `Error` when stats
    /// are disabled via `PSCP_SERVE_STATS=off`). Not counted against
    /// the credit window, and excluded from `SERVE_FRAMES_IN` so a
    /// scrape does not perturb the counters it reports.
    StatsRequest,
    /// One telemetry snapshot (server → client): serve-level gauges
    /// plus the full canonical [`pscp_obs`] metrics snapshot.
    Stats {
        /// Point-in-time serve gauges (not monotonic counters).
        gauges: ServeGauges,
        /// The process-wide metrics snapshot, encoded canonically via
        /// [`encode_stats`].
        snapshot: MetricsSnapshot,
    },
    /// A state-space exploration request (client → server). Answered
    /// by a sequence of [`Frame::ExploreResult`] chunks; like `Stats`,
    /// the reply bypasses the credit window.
    Explore(ExploreRequest),
    /// One chunk of a canonical exploration report (server → client).
    /// Chunks arrive with ascending `seq` starting at 0; the chunk with
    /// `last` set completes the report, and the concatenation of every
    /// chunk's bytes is exactly [`encode_explore_report`] of the
    /// server's [`ExploreReport`].
    ExploreResult {
        /// Chunk index, ascending from 0.
        seq: u32,
        /// True on the final chunk of the report.
        last: bool,
        /// This chunk's slice of the canonical report bytes.
        chunk: Vec<u8>,
    },
}

/// Point-in-time serve-level gauges carried by [`Frame::Stats`],
/// alongside (not inside) the monotonic [`MetricsSnapshot`]: these
/// describe the server *now*, so they are excluded from the
/// byte-identity contract between in-process and wire snapshots and
/// from [`MetricsSnapshot::delta`] rate math.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeGauges {
    /// Nanoseconds since the listener started.
    pub uptime_ns: u64,
    /// Systems the server holds: always 1, the served system (remote
    /// `Compile`s reply with a fingerprint and keep nothing).
    pub registered_systems: u32,
    /// Connections currently open.
    pub live_connections: u32,
    /// Jobs sitting in the shared shard queue right now.
    pub queue_depth: u32,
    /// Shard worker threads.
    pub workers: u32,
    /// Gang width (1 = scalar).
    pub gang: u32,
}

impl ServeGauges {
    /// `(name, value)` rows in canonical order, for report rendering.
    pub fn rows(&self) -> [(&'static str, u64); 6] {
        [
            ("uptime_ns", self.uptime_ns),
            ("registered_systems", u64::from(self.registered_systems)),
            ("live_connections", u64::from(self.live_connections)),
            ("queue_depth", u64::from(self.queue_depth)),
            ("workers", u64::from(self.workers)),
            ("gang", u64::from(self.gang)),
        ]
    }
}

/// Server-side latency decomposition of one outcome, in nanoseconds on
/// the server's monotonic clock. Carried as an optional trailer on
/// `Outcome` frames when the connection negotiated
/// [`feature::LATENCY`]; because every field is a *duration*, clients
/// can decompose end-to-end latency without any clock synchronisation
/// (the remainder after subtracting these from a locally-timed
/// round-trip is wire + client time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeLatency {
    /// Time the submission waited in the shard queue.
    pub queue_ns: u64,
    /// Time simulating (for gang lanes: the gang rig's shared wall
    /// time, since lanes simulate together).
    pub sim_ns: u64,
    /// Time encoding the outcome frame body.
    pub encode_ns: u64,
}

/// One configuration cycle on the wire — [`CycleReport`] with ids
/// flattened to indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Fired transition indices, in execution order.
    pub fired: Vec<u32>,
    /// Measured cycles per fired transition (same order).
    pub transition_cycles: Vec<u64>,
    /// TEP assignment per fired transition (same order).
    pub assigned_tep: Vec<u8>,
    /// Configuration-cycle length in clock cycles.
    pub cycle_length: u64,
    /// Event indices raised by routines.
    pub raised: Vec<u32>,
    /// Interrupt-servicing latency, when an interrupt fired.
    pub interrupt_latency: Option<u64>,
}

impl WireReport {
    /// Flattens a [`CycleReport`].
    pub fn from_report(r: &CycleReport) -> Self {
        WireReport {
            fired: r.fired.iter().map(|t| t.index() as u32).collect(),
            transition_cycles: r.transition_cycles.clone(),
            assigned_tep: r.assigned_tep.clone(),
            cycle_length: r.cycle_length,
            raised: r.raised.iter().map(|e| e.index() as u32).collect(),
            interrupt_latency: r.interrupt_latency,
        }
    }
}

/// [`MachineStats`] on the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Configuration cycles executed.
    pub config_cycles: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Total clock cycles.
    pub clock_cycles: u64,
    /// Longest configuration cycle seen.
    pub max_cycle_length: u64,
    /// Busy clock cycles per TEP.
    pub tep_busy: Vec<u64>,
}

impl WireStats {
    /// Copies a [`MachineStats`].
    pub fn from_stats(s: &MachineStats) -> Self {
        WireStats {
            config_cycles: s.config_cycles,
            transitions: s.transitions,
            clock_cycles: s.clock_cycles,
            max_cycle_length: s.max_cycle_length,
            tep_busy: s.tep_busy.clone(),
        }
    }
}

/// The canonical serialisation of one scenario outcome. Everything a
/// [`BatchOutcome`]`<`[`ScriptedEnvironment`]`>` observably contains:
/// per-cycle reports, final statistics, the simulated clock, the
/// environment's recorded port writes and leftover script, and the
/// fault (as its display string) if one ended the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireOutcome {
    /// Per-configuration-cycle reports, in execution order.
    pub reports: Vec<WireReport>,
    /// Machine statistics at scenario end.
    pub stats: WireStats,
    /// Final simulated clock.
    pub clock_cycles: u64,
    /// The script rows as the scenario left them (consumed rows are
    /// empty).
    pub leftover_script: Vec<Vec<String>>,
    /// Recorded port writes `(address, value, cycle)`.
    pub port_writes: Vec<(u16, i64, u64)>,
    /// The fault that ended the scenario early, rendered.
    pub error: Option<String>,
    /// Server-side latency breakdown, when the connection negotiated
    /// [`feature::LATENCY`]. **Excluded** from the canonical
    /// [`encode`](WireOutcome::encode) body — the differential
    /// byte-identity contract covers only what the simulation
    /// determines, never wall-clock measurements. It travels as an
    /// optional trailer at the `Outcome`-frame layer instead.
    pub latency: Option<OutcomeLatency>,
}

impl WireOutcome {
    /// The canonical projection of an in-process outcome — the
    /// differential harness compares `from_batch(local).encode()`
    /// against server bytes.
    pub fn from_batch(o: &BatchOutcome<ScriptedEnvironment>) -> Self {
        WireOutcome {
            reports: o.reports.iter().map(WireReport::from_report).collect(),
            stats: WireStats::from_stats(&o.stats),
            clock_cycles: o.clock_cycles,
            leftover_script: o.env.script.clone(),
            port_writes: o.env.port_writes.clone(),
            error: o.error.as_ref().map(|e| e.to_string()),
            latency: None,
        }
    }

    /// Canonical body bytes (no framing). Never includes the
    /// [`latency`](WireOutcome::latency) trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_outcome(&mut e, self);
        e.buf
    }

    /// Decodes canonical body bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        let o = dec_outcome(&mut d)?;
        d.finish()?;
        Ok(o)
    }
}

// --- Primitive encoder/decoder ---------------------------------------------

pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    pub(crate) fn with_capacity(n: usize) -> Self {
        Enc { buf: Vec::with_capacity(n) }
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("bad UTF-8"))
    }
    /// A declared element count, sanity-bounded by the bytes left
    /// (every element costs at least `min_elem_bytes`), so a corrupt
    /// count can never drive a huge allocation.
    pub(crate) fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
    pub(crate) fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

fn enc_script(e: &mut Enc, script: &[Vec<String>]) {
    e.u32(script.len() as u32);
    for row in script {
        e.u32(row.len() as u32);
        for ev in row {
            e.str(ev);
        }
    }
}

fn dec_script(d: &mut Dec<'_>) -> Result<Vec<Vec<String>>, WireError> {
    let rows = d.count(4)?;
    let mut script = Vec::with_capacity(rows);
    for _ in 0..rows {
        let events = d.count(4)?;
        let mut row = Vec::with_capacity(events);
        for _ in 0..events {
            row.push(d.str()?);
        }
        script.push(row);
    }
    Ok(script)
}

fn enc_pos(e: &mut Enc, p: Pos) {
    e.u32(p.line);
    e.u32(p.column);
    e.u32(p.offset);
}

fn dec_pos(d: &mut Dec<'_>) -> Result<Pos, WireError> {
    Ok(Pos { line: d.u32()?, column: d.u32()?, offset: d.u32()? })
}

fn enc_diagnostic(e: &mut Enc, diag: &Diagnostic) {
    e.u8(diag.severity.code());
    e.u8(diag.source.code());
    e.str(&diag.code);
    enc_pos(e, diag.span.start);
    enc_pos(e, diag.span.end);
    e.str(&diag.message);
    e.u32(diag.notes.len() as u32);
    for note in &diag.notes {
        e.str(note);
    }
}

/// Fixed bytes every encoded diagnostic costs at least: severity,
/// source, three length prefixes, and two 12-byte positions.
const MIN_DIAG_BYTES: usize = 1 + 1 + 4 + 12 + 12 + 4 + 4;

fn dec_diagnostic(d: &mut Dec<'_>) -> Result<Diagnostic, WireError> {
    let severity =
        Severity::from_code(d.u8()?).ok_or(WireError::Malformed("bad severity byte"))?;
    let source = Source::from_code(d.u8()?).ok_or(WireError::Malformed("bad source byte"))?;
    let code = d.str()?;
    let span = Span::new(dec_pos(d)?, dec_pos(d)?);
    let message = d.str()?;
    let n_notes = d.count(4)?;
    let mut notes = Vec::with_capacity(n_notes);
    for _ in 0..n_notes {
        notes.push(d.str()?);
    }
    Ok(Diagnostic { severity, source, code, span, message, notes })
}

/// Canonical body bytes of a diagnostic list (count + each
/// diagnostic, no framing). The byte-identity contract hangs off this:
/// encoding [`pscp_diag::DiagnosticSink::finish`]'s output in-process
/// equals the `Diagnostics` frame body a server produces for the same
/// sources.
pub fn encode_diagnostics(diags: &[Diagnostic]) -> Vec<u8> {
    let mut e = Enc::new();
    enc_diagnostics(&mut e, diags);
    e.buf
}

/// Decodes canonical diagnostic-list bytes.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, trailing bytes or invalid
/// severity/source bytes.
pub fn decode_diagnostics(bytes: &[u8]) -> Result<Vec<Diagnostic>, WireError> {
    let mut d = Dec::new(bytes);
    let diags = dec_diagnostics(&mut d)?;
    d.finish()?;
    Ok(diags)
}

fn enc_diagnostics(e: &mut Enc, diags: &[Diagnostic]) {
    e.u32(diags.len() as u32);
    for diag in diags {
        enc_diagnostic(e, diag);
    }
}

fn dec_diagnostics(d: &mut Dec<'_>) -> Result<Vec<Diagnostic>, WireError> {
    let n = d.count(MIN_DIAG_BYTES)?;
    let mut diags = Vec::with_capacity(n);
    for _ in 0..n {
        diags.push(dec_diagnostic(d)?);
    }
    Ok(diags)
}

fn enc_outcome(e: &mut Enc, o: &WireOutcome) {
    e.u32(o.reports.len() as u32);
    for r in &o.reports {
        e.u32(r.fired.len() as u32);
        for &t in &r.fired {
            e.u32(t);
        }
        for &c in &r.transition_cycles {
            e.u64(c);
        }
        for &t in &r.assigned_tep {
            e.u8(t);
        }
        e.u64(r.cycle_length);
        e.u32(r.raised.len() as u32);
        for &ev in &r.raised {
            e.u32(ev);
        }
        match r.interrupt_latency {
            Some(l) => {
                e.u8(1);
                e.u64(l);
            }
            None => e.u8(0),
        }
    }
    e.u64(o.stats.config_cycles);
    e.u64(o.stats.transitions);
    e.u64(o.stats.clock_cycles);
    e.u64(o.stats.max_cycle_length);
    e.u32(o.stats.tep_busy.len() as u32);
    for &b in &o.stats.tep_busy {
        e.u64(b);
    }
    e.u64(o.clock_cycles);
    enc_script(e, &o.leftover_script);
    e.u32(o.port_writes.len() as u32);
    for &(addr, value, cycle) in &o.port_writes {
        e.u16(addr);
        e.i64(value);
        e.u64(cycle);
    }
    match &o.error {
        Some(msg) => {
            e.u8(1);
            e.str(msg);
        }
        None => e.u8(0),
    }
}

fn dec_outcome(d: &mut Dec<'_>) -> Result<WireOutcome, WireError> {
    let n_reports = d.count(14)?;
    let mut reports = Vec::with_capacity(n_reports);
    for _ in 0..n_reports {
        let fired_n = d.count(13)?;
        let mut fired = Vec::with_capacity(fired_n);
        for _ in 0..fired_n {
            fired.push(d.u32()?);
        }
        let mut transition_cycles = Vec::with_capacity(fired_n);
        for _ in 0..fired_n {
            transition_cycles.push(d.u64()?);
        }
        let mut assigned_tep = Vec::with_capacity(fired_n);
        for _ in 0..fired_n {
            assigned_tep.push(d.u8()?);
        }
        let cycle_length = d.u64()?;
        let raised_n = d.count(4)?;
        let mut raised = Vec::with_capacity(raised_n);
        for _ in 0..raised_n {
            raised.push(d.u32()?);
        }
        let interrupt_latency = match d.u8()? {
            0 => None,
            1 => Some(d.u64()?),
            _ => return Err(WireError::Malformed("bad option tag")),
        };
        reports.push(WireReport {
            fired,
            transition_cycles,
            assigned_tep,
            cycle_length,
            raised,
            interrupt_latency,
        });
    }
    let stats = WireStats {
        config_cycles: d.u64()?,
        transitions: d.u64()?,
        clock_cycles: d.u64()?,
        max_cycle_length: d.u64()?,
        tep_busy: {
            let n = d.count(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.u64()?);
            }
            v
        },
    };
    let clock_cycles = d.u64()?;
    let leftover_script = dec_script(d)?;
    let n_writes = d.count(18)?;
    let mut port_writes = Vec::with_capacity(n_writes);
    for _ in 0..n_writes {
        port_writes.push((d.u16()?, d.i64()?, d.u64()?));
    }
    let error = match d.u8()? {
        0 => None,
        1 => Some(d.str()?),
        _ => return Err(WireError::Malformed("bad option tag")),
    };
    Ok(WireOutcome {
        reports,
        stats,
        clock_cycles,
        leftover_script,
        port_writes,
        error,
        latency: None,
    })
}

fn enc_latency(e: &mut Enc, l: &OutcomeLatency) {
    e.u8(1); // trailer tag
    e.u64(l.queue_ns);
    e.u64(l.sim_ns);
    e.u64(l.encode_ns);
}

fn dec_latency_trailer(d: &mut Dec<'_>) -> Result<Option<OutcomeLatency>, WireError> {
    if d.remaining() == 0 {
        return Ok(None);
    }
    if d.u8()? != 1 {
        return Err(WireError::Malformed("bad latency trailer tag"));
    }
    Ok(Some(OutcomeLatency { queue_ns: d.u64()?, sim_ns: d.u64()?, encode_ns: d.u64()? }))
}

// --- Stats snapshot codec ----------------------------------------------------

/// Version prefix of the canonical stats-snapshot encoding; bumped when
/// the snapshot layout changes (independently of [`PROTOCOL_VERSION`]).
pub const STATS_VERSION: u16 = 1;

/// Canonical body bytes of a metrics snapshot (no framing). The
/// telemetry byte-identity contract hangs off this: encoding an
/// in-process [`pscp_obs::metrics::snapshot`] equals the snapshot
/// portion of the `Stats` frame a quiesced server produces.
pub fn encode_stats(s: &MetricsSnapshot) -> Vec<u8> {
    let mut e = Enc::new();
    enc_stats(&mut e, s);
    e.buf
}

/// Decodes canonical stats-snapshot bytes.
///
/// # Errors
///
/// Returns [`WireError`] on an unknown stats version, truncation or
/// trailing bytes.
pub fn decode_stats(bytes: &[u8]) -> Result<MetricsSnapshot, WireError> {
    let mut d = Dec::new(bytes);
    let s = dec_stats(&mut d)?;
    d.finish()?;
    Ok(s)
}

fn enc_stats(e: &mut Enc, s: &MetricsSnapshot) {
    e.u16(STATS_VERSION);
    e.u32(s.counters.len() as u32);
    for (name, v) in &s.counters {
        e.str(name);
        e.u64(*v);
    }
    e.u32(s.per_worker.len() as u32);
    for (name, slots) in &s.per_worker {
        e.str(name);
        e.u32(slots.len() as u32);
        for &v in slots {
            e.u64(v);
        }
    }
    e.u32(s.tep_instr.len() as u32);
    for (name, v) in &s.tep_instr {
        e.str(name);
        e.u64(*v);
    }
    e.u32(s.histograms.len() as u32);
    for h in &s.histograms {
        e.str(&h.name);
        e.u64(h.count);
        e.u64(h.sum);
        e.u32(h.buckets.len() as u32);
        for &(lo, hi, n) in &h.buckets {
            e.u64(lo);
            e.u64(hi);
            e.u64(n);
        }
    }
}

fn dec_stats(d: &mut Dec<'_>) -> Result<MetricsSnapshot, WireError> {
    let version = d.u16()?;
    if version != STATS_VERSION {
        return Err(WireError::Malformed("unknown stats version"));
    }
    let n = d.count(12)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push((d.str()?, d.u64()?));
    }
    let n = d.count(8)?;
    let mut per_worker = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let slots_n = d.count(8)?;
        let mut slots = Vec::with_capacity(slots_n);
        for _ in 0..slots_n {
            slots.push(d.u64()?);
        }
        per_worker.push((name, slots));
    }
    let n = d.count(12)?;
    let mut tep_instr = Vec::with_capacity(n);
    for _ in 0..n {
        tep_instr.push((d.str()?, d.u64()?));
    }
    let n = d.count(24)?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let count = d.u64()?;
        let sum = d.u64()?;
        let buckets_n = d.count(24)?;
        let mut buckets = Vec::with_capacity(buckets_n);
        for _ in 0..buckets_n {
            buckets.push((d.u64()?, d.u64()?, d.u64()?));
        }
        histograms.push(HistogramSnapshot { name, count, sum, buckets });
    }
    Ok(MetricsSnapshot { counters, per_worker, tep_instr, histograms })
}

// --- Explore report codec ----------------------------------------------------

/// Version prefix of the canonical explore-report encoding; bumped when
/// the report layout changes (independently of [`PROTOCOL_VERSION`]).
pub const EXPLORE_REPORT_VERSION: u16 = 1;

fn enc_witness(e: &mut Enc, w: &Witness) {
    e.u32(w.state_key.len() as u32);
    e.buf.extend_from_slice(&w.state_key);
    e.u32(w.trace.len() as u32);
    for step in &w.trace {
        e.u32(step.len() as u32);
        for &ev in step {
            e.u32(ev);
        }
    }
}

/// Fixed bytes every encoded witness costs at least: two length
/// prefixes (state key, trace).
const MIN_WITNESS_BYTES: usize = 4 + 4;

fn dec_witness(d: &mut Dec<'_>) -> Result<Witness, WireError> {
    let key_len = d.count(1)?;
    let state_key = d.take(key_len)?.to_vec();
    let n_steps = d.count(4)?;
    let mut trace = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        let n_events = d.count(4)?;
        let mut step = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            step.push(d.u32()?);
        }
        trace.push(step);
    }
    Ok(Witness { state_key, trace })
}

/// Canonical body bytes of an [`ExploreReport`] (no framing). The
/// exploration byte-identity contract hangs off this: the differential
/// suite compares reports across worker counts and gang widths through
/// these bytes, and the concatenated [`Frame::ExploreResult`] chunks a
/// server sends are exactly this encoding of its report.
pub fn encode_explore_report(r: &ExploreReport) -> Vec<u8> {
    let mut e = Enc::new();
    e.u16(EXPLORE_REPORT_VERSION);
    e.u64(r.states);
    e.u64(r.edges);
    e.u64(r.dedup_hits);
    e.u32(r.depth);
    e.u8(u8::from(r.truncated));
    e.u32(r.deadlocks.len() as u32);
    for w in &r.deadlocks {
        enc_witness(&mut e, w);
    }
    e.u32(r.unreachable_states.len() as u32);
    for name in &r.unreachable_states {
        e.str(name);
    }
    e.u32(r.unreachable_transitions.len() as u32);
    for &t in &r.unreachable_transitions {
        e.u32(t);
    }
    e.u32(r.violations.len() as u32);
    for v in &r.violations {
        e.u8(v.predicate.kind());
        e.str(v.predicate.name());
        enc_witness(&mut e, &v.witness);
    }
    e.u32(r.faults.len() as u32);
    for (message, w) in &r.faults {
        e.str(message);
        enc_witness(&mut e, w);
    }
    e.buf
}

/// Decodes canonical explore-report bytes.
///
/// # Errors
///
/// Returns [`WireError`] on an unknown report version, truncation,
/// trailing bytes, or an unknown predicate kind.
pub fn decode_explore_report(bytes: &[u8]) -> Result<ExploreReport, WireError> {
    let mut d = Dec::new(bytes);
    let version = d.u16()?;
    if version != EXPLORE_REPORT_VERSION {
        return Err(WireError::Malformed("unknown explore-report version"));
    }
    let states = d.u64()?;
    let edges = d.u64()?;
    let dedup_hits = d.u64()?;
    let depth = d.u32()?;
    let truncated = match d.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("bad truncated flag")),
    };
    let n = d.count(MIN_WITNESS_BYTES)?;
    let mut deadlocks = Vec::with_capacity(n);
    for _ in 0..n {
        deadlocks.push(dec_witness(&mut d)?);
    }
    let n = d.count(4)?;
    let mut unreachable_states = Vec::with_capacity(n);
    for _ in 0..n {
        unreachable_states.push(d.str()?);
    }
    let n = d.count(4)?;
    let mut unreachable_transitions = Vec::with_capacity(n);
    for _ in 0..n {
        unreachable_transitions.push(d.u32()?);
    }
    let n = d.count(1 + 4 + MIN_WITNESS_BYTES)?;
    let mut violations = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = d.u8()?;
        let name = d.str()?;
        let predicate = Predicate::from_parts(kind, name)
            .ok_or(WireError::Malformed("unknown predicate kind"))?;
        violations.push(Violation { predicate, witness: dec_witness(&mut d)? });
    }
    let n = d.count(4 + MIN_WITNESS_BYTES)?;
    let mut faults = Vec::with_capacity(n);
    for _ in 0..n {
        faults.push((d.str()?, dec_witness(&mut d)?));
    }
    d.finish()?;
    Ok(ExploreReport {
        states,
        edges,
        dedup_hits,
        depth,
        truncated,
        deadlocks,
        unreachable_states,
        unreachable_transitions,
        violations,
        faults,
    })
}

/// Splits a report's canonical bytes into [`Frame::ExploreResult`]
/// chunks of at most `max_chunk` body bytes each — always at least one
/// frame (an empty report still answers with one `last` chunk), `seq`
/// ascending from 0, `last` set on the final chunk. Concatenating the
/// chunks reproduces [`encode_explore_report`] exactly.
pub fn explore_report_frames(report: &ExploreReport, max_chunk: usize) -> Vec<Frame> {
    let bytes = encode_explore_report(report);
    let max_chunk = max_chunk.max(1);
    let n_chunks = bytes.len().div_ceil(max_chunk).max(1);
    (0..n_chunks)
        .map(|i| Frame::ExploreResult {
            seq: i as u32,
            last: i == n_chunks - 1,
            chunk: bytes[i * max_chunk..((i + 1) * max_chunk).min(bytes.len())].to_vec(),
        })
        .collect()
}

fn enc_gauges(e: &mut Enc, g: &ServeGauges) {
    e.u64(g.uptime_ns);
    e.u32(g.registered_systems);
    e.u32(g.live_connections);
    e.u32(g.queue_depth);
    e.u32(g.workers);
    e.u32(g.gang);
}

fn dec_gauges(d: &mut Dec<'_>) -> Result<ServeGauges, WireError> {
    Ok(ServeGauges {
        uptime_ns: d.u64()?,
        registered_systems: d.u32()?,
        live_connections: d.u32()?,
        queue_depth: d.u32()?,
        workers: d.u32()?,
        gang: d.u32()?,
    })
}

// --- Frame encode/decode -----------------------------------------------------

/// Encodes a frame's payload (version, type, body, checksum — no
/// length prefix).
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(PROTOCOL_VERSION);
    match frame {
        Frame::Hello { window, fingerprint, features } => {
            e.u8(T_HELLO);
            e.u32(*window);
            e.u64(*fingerprint);
            // A zero feature word is omitted: byte-identical to the
            // pre-feature layout, so old peers decode it unchanged.
            if *features != 0 {
                e.u32(*features);
            }
        }
        Frame::Submit(s) => {
            e.u8(T_SUBMIT);
            e.u64(s.seq);
            e.u64(s.limits.deadline);
            e.u64(s.limits.max_steps);
            enc_script(&mut e, &s.script);
        }
        Frame::Outcome { seq, outcome } => {
            e.u8(T_OUTCOME);
            e.u64(*seq);
            enc_outcome(&mut e, outcome);
            if let Some(l) = &outcome.latency {
                enc_latency(&mut e, l);
            }
        }
        Frame::Credit { n } => {
            e.u8(T_CREDIT);
            e.u32(*n);
        }
        Frame::Error { code, message } => {
            e.u8(T_ERROR);
            e.u16(*code);
            e.str(message);
        }
        Frame::Compile { chart, actions } => {
            e.u8(T_COMPILE);
            e.str(chart);
            e.str(actions);
        }
        Frame::Diagnostics { fingerprint, diagnostics } => {
            e.u8(T_DIAGNOSTICS);
            e.u64(*fingerprint);
            enc_diagnostics(&mut e, diagnostics);
        }
        Frame::StatsRequest => {
            e.u8(T_STATS_REQUEST);
        }
        Frame::Stats { gauges, snapshot } => {
            e.u8(T_STATS);
            enc_gauges(&mut e, gauges);
            enc_stats(&mut e, snapshot);
        }
        Frame::Explore(req) => {
            e.u8(T_EXPLORE);
            e.u64(req.max_states);
            e.u32(req.max_depth);
            e.u32(req.max_witnesses);
            e.u32(req.predicates.len() as u32);
            for p in &req.predicates {
                e.u8(p.kind());
                e.str(p.name());
            }
        }
        Frame::ExploreResult { seq, last, chunk } => {
            e.u8(T_EXPLORE_RESULT);
            e.u32(*seq);
            e.u8(u8::from(*last));
            e.u32(chunk.len() as u32);
            e.buf.extend_from_slice(chunk);
        }
    }
    let checksum = fnv1a32(&e.buf);
    e.u32(checksum);
    e.buf
}

/// Encodes a complete frame, length prefix included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(LEN_PREFIX + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Two-phase `Outcome` frame builder for the serve workers.
///
/// `encode_ns` must appear *inside* the checksummed bytes it measures
/// the encoding of — a chicken-and-egg a one-shot encoder can't
/// resolve. [`begin`](OutcomeFrame::begin) does all the expensive body
/// encoding (time this part); [`finish`](OutcomeFrame::finish) appends
/// the measured trailer, checksums and length-prefixes.
pub struct OutcomeFrame {
    e: Enc,
}

impl OutcomeFrame {
    /// Encodes the frame body (version, tag, seq, canonical outcome).
    /// Any `latency` already on `outcome` is ignored — the trailer
    /// comes from [`finish`](OutcomeFrame::finish).
    pub fn begin(seq: u64, outcome: &WireOutcome) -> Self {
        let mut e = Enc::new();
        e.u8(PROTOCOL_VERSION);
        e.u8(T_OUTCOME);
        e.u64(seq);
        enc_outcome(&mut e, outcome);
        OutcomeFrame { e }
    }

    /// Appends the optional latency trailer, checksums, and returns the
    /// complete frame bytes (length prefix included).
    pub fn finish(mut self, latency: Option<OutcomeLatency>) -> Vec<u8> {
        if let Some(l) = latency {
            enc_latency(&mut self.e, &l);
        }
        let checksum = fnv1a32(&self.e.buf);
        self.e.u32(checksum);
        let mut out = Vec::with_capacity(LEN_PREFIX + self.e.buf.len());
        out.extend_from_slice(&(self.e.buf.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.e.buf);
        out
    }
}

/// Decodes one payload (version, type, body, checksum).
///
/// # Errors
///
/// [`WireError::BadVersion`], [`WireError::BadChecksum`],
/// [`WireError::UnknownFrame`], [`WireError::Truncated`] or
/// [`WireError::Malformed`] for structural damage.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    if (payload.len() as u32) < MIN_PAYLOAD {
        return Err(WireError::Truncated);
    }
    let (body, tail) = payload.split_at(payload.len() - 4);
    if body[0] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion { got: body[0] });
    }
    let declared = u32::from_le_bytes(tail.try_into().unwrap());
    if fnv1a32(body) != declared {
        return Err(WireError::BadChecksum);
    }
    let mut d = Dec::new(&body[1..]);
    let tag = d.u8()?;
    let frame = match tag {
        T_HELLO => Frame::Hello {
            window: d.u32()?,
            fingerprint: d.u64()?,
            // Absent feature word (a PR-8 peer) decodes as zero.
            features: if d.remaining() > 0 { d.u32()? } else { 0 },
        },
        T_SUBMIT => {
            let seq = d.u64()?;
            let limits = BatchOptions { deadline: d.u64()?, max_steps: d.u64()? };
            Frame::Submit(Submit { seq, limits, script: dec_script(&mut d)? })
        }
        T_OUTCOME => {
            let seq = d.u64()?;
            let mut outcome = dec_outcome(&mut d)?;
            outcome.latency = dec_latency_trailer(&mut d)?;
            Frame::Outcome { seq, outcome }
        }
        T_CREDIT => Frame::Credit { n: d.u32()? },
        T_ERROR => Frame::Error { code: d.u16()?, message: d.str()? },
        T_COMPILE => Frame::Compile { chart: d.str()?, actions: d.str()? },
        T_DIAGNOSTICS => Frame::Diagnostics {
            fingerprint: d.u64()?,
            diagnostics: dec_diagnostics(&mut d)?,
        },
        T_STATS_REQUEST => Frame::StatsRequest,
        T_STATS => Frame::Stats { gauges: dec_gauges(&mut d)?, snapshot: dec_stats(&mut d)? },
        T_EXPLORE => {
            let max_states = d.u64()?;
            let max_depth = d.u32()?;
            let max_witnesses = d.u32()?;
            let n = d.count(5)?;
            let mut predicates = Vec::with_capacity(n);
            for _ in 0..n {
                let kind = d.u8()?;
                let name = d.str()?;
                predicates.push(
                    Predicate::from_parts(kind, name)
                        .ok_or(WireError::Malformed("unknown predicate kind"))?,
                );
            }
            Frame::Explore(ExploreRequest { max_states, max_depth, max_witnesses, predicates })
        }
        T_EXPLORE_RESULT => {
            let seq = d.u32()?;
            let last = match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("bad last flag")),
            };
            let n = d.count(1)?;
            Frame::ExploreResult { seq, last, chunk: d.take(n)?.to_vec() }
        }
        tag => return Err(WireError::UnknownFrame { tag }),
    };
    d.finish()?;
    Ok(frame)
}

/// Incremental frame parser: feed raw bytes in, pull complete frames
/// out. Lets socket readers use short read timeouts without ever
/// losing the bytes of a partially received frame.
#[derive(Debug, Default)]
pub struct FrameCursor {
    buf: Vec<u8>,
    start: usize,
}

impl FrameCursor {
    /// An empty cursor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so the buffer doesn't grow without bound on a
        // long-lived connection.
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed buffered bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to parse the next complete frame. `Ok(None)` means more
    /// bytes are needed.
    ///
    /// # Errors
    ///
    /// Decode failures ([`WireError::TooLarge`] as soon as the length
    /// prefix arrives, the rest once the payload is complete). The
    /// cursor is poisoned conceptually after an error — callers close
    /// the connection.
    pub fn next_frame(&mut self, max_frame: u32) -> Result<Option<Frame>, WireError> {
        let avail = self.buffered();
        if avail < LEN_PREFIX {
            return Ok(None);
        }
        let len_bytes = &self.buf[self.start..self.start + LEN_PREFIX];
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap());
        if len > max_frame {
            return Err(WireError::TooLarge { len: u64::from(len), max: max_frame });
        }
        if len < MIN_PAYLOAD {
            return Err(WireError::Truncated);
        }
        let total = LEN_PREFIX + len as usize;
        if avail < total {
            return Ok(None);
        }
        let payload = &self.buf[self.start + LEN_PREFIX..self.start + total];
        let frame = decode_payload(payload)?;
        self.start += total;
        Ok(Some(frame))
    }
}

/// Writes one frame to a stream.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame))?;
    Ok(())
}

/// Blocking read of one frame. Returns [`WireError::Closed`] on EOF at
/// a frame boundary and [`WireError::Truncated`] on EOF mid-frame.
///
/// # Errors
///
/// Transport and decode failures.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Frame, WireError> {
    let mut cursor = FrameCursor::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = cursor.next_frame(max_frame)? {
            return Ok(frame);
        }
        match r.read(&mut chunk) {
            Ok(0) => {
                return Err(if cursor.buffered() == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => cursor.feed(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> WireOutcome {
        WireOutcome {
            reports: vec![
                WireReport {
                    fired: vec![3, 1],
                    transition_cycles: vec![40, 17],
                    assigned_tep: vec![0, 1],
                    cycle_length: 46,
                    raised: vec![2],
                    interrupt_latency: Some(12),
                },
                WireReport::default(),
            ],
            stats: WireStats {
                config_cycles: 2,
                transitions: 2,
                clock_cycles: 50,
                max_cycle_length: 46,
                tep_busy: vec![40, 17],
            },
            clock_cycles: 50,
            leftover_script: vec![vec![], vec!["TICK".into(), "GO".into()]],
            port_writes: vec![(0x20, -7, 46)],
            error: Some("divide by zero in `f` at pc 3".into()),
            latency: None,
        }
    }

    fn sample_diagnostics() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error(Source::Chart, "SC201", "unknown state `Off`"),
            Diagnostic {
                severity: Severity::Warning,
                source: Source::Action,
                code: "AL301".into(),
                span: Span::new(Pos::new(3, 9, 41), Pos::new(3, 14, 46)),
                message: "unused variable `total`".into(),
                notes: vec!["declared here".into(), "never read".into()],
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = vec![
            Frame::Hello { window: 8, fingerprint: 0xdead_beef, features: 0 },
            Frame::Hello { window: 8, fingerprint: 0xdead_beef, features: feature::LATENCY },
            Frame::Submit(Submit {
                seq: 42,
                limits: BatchOptions { deadline: u64::MAX, max_steps: 17 },
                script: vec![vec!["TICK".into()], vec![], vec!["A".into(), "B".into()]],
            }),
            Frame::Outcome { seq: 7, outcome: sample_outcome() },
            Frame::Credit { n: 3 },
            Frame::Error { code: error_code::BAD_CHECKSUM, message: "bad".into() },
            Frame::Compile {
                chart: "orstate Root { contains A; default A; }".into(),
                actions: "void f() { }".into(),
            },
            Frame::Diagnostics { fingerprint: 0xfeed_f00d, diagnostics: sample_diagnostics() },
            Frame::Diagnostics { fingerprint: 0, diagnostics: Vec::new() },
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            let mut cursor = FrameCursor::new();
            cursor.feed(&bytes);
            let got = cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert_eq!(got, f);
            assert_eq!(cursor.buffered(), 0);
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("machine_steps".into(), 1234), ("serve_errors".into(), 0)],
            per_worker: vec![("pool_scenarios".into(), vec![10, 0, 7])],
            tep_instr: vec![("ldi".into(), 99)],
            histograms: vec![HistogramSnapshot {
                name: "serve_sim_ns".into(),
                count: 3,
                sum: 1500,
                buckets: vec![(256, 511, 2), (512, 1023, 1)],
            }],
        }
    }

    #[test]
    fn outcome_body_round_trips() {
        let o = sample_outcome();
        assert_eq!(WireOutcome::decode(&o.encode()).unwrap(), o);
    }

    #[test]
    fn stats_frames_round_trip() {
        let frames = vec![
            Frame::StatsRequest,
            Frame::Stats {
                gauges: ServeGauges {
                    uptime_ns: 5_000_000_000,
                    registered_systems: 2,
                    live_connections: 1,
                    queue_depth: 4,
                    workers: 3,
                    gang: 64,
                },
                snapshot: sample_snapshot(),
            },
            Frame::Stats { gauges: ServeGauges::default(), snapshot: MetricsSnapshot::default() },
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            let mut cursor = FrameCursor::new();
            cursor.feed(&bytes);
            assert_eq!(cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().unwrap(), f);
        }
    }

    #[test]
    fn stats_body_round_trips() {
        let s = sample_snapshot();
        assert_eq!(decode_stats(&encode_stats(&s)).unwrap(), s);
        assert_eq!(
            decode_stats(&encode_stats(&MetricsSnapshot::default())).unwrap(),
            MetricsSnapshot::default()
        );
    }

    #[test]
    fn unknown_stats_version_is_malformed() {
        let mut bytes = encode_stats(&sample_snapshot());
        bytes[0] = 0xff;
        assert!(matches!(
            decode_stats(&bytes),
            Err(WireError::Malformed("unknown stats version"))
        ));
    }

    #[test]
    fn zero_feature_hello_matches_pre_feature_layout() {
        // The features word is omitted when zero, so a PR-9 client
        // that requests nothing emits bytes a PR-8 server accepts.
        let mut e = Enc::new();
        e.u8(PROTOCOL_VERSION);
        e.u8(T_HELLO);
        e.u32(8);
        e.u64(0xdead_beef);
        let checksum = fnv1a32(&e.buf);
        e.u32(checksum);
        let mut legacy = (e.buf.len() as u32).to_le_bytes().to_vec();
        legacy.extend_from_slice(&e.buf);
        let ours = encode_frame(&Frame::Hello {
            window: 8,
            fingerprint: 0xdead_beef,
            features: 0,
        });
        assert_eq!(ours, legacy);
        // And the legacy bytes decode with features == 0.
        let mut cursor = FrameCursor::new();
        cursor.feed(&legacy);
        assert_eq!(
            cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().unwrap(),
            Frame::Hello { window: 8, fingerprint: 0xdead_beef, features: 0 }
        );
    }

    #[test]
    fn latency_trailer_rides_outside_the_canonical_body() {
        let mut o = sample_outcome();
        o.latency = Some(OutcomeLatency { queue_ns: 10, sim_ns: 2000, encode_ns: 30 });
        let mut plain = sample_outcome();
        plain.latency = None;
        // The canonical body ignores the trailer entirely…
        assert_eq!(o.encode(), plain.encode());
        // …but the Outcome *frame* carries and round-trips it.
        let f = Frame::Outcome { seq: 9, outcome: o.clone() };
        let bytes = encode_frame(&f);
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert_eq!(cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().unwrap(), f);
        // A trailer-free frame is byte-identical to the PR-8 encoding
        // and decodes with latency == None.
        let f8 = Frame::Outcome { seq: 9, outcome: plain.clone() };
        let two_phase = OutcomeFrame::begin(9, &plain).finish(None);
        assert_eq!(encode_frame(&f8), two_phase);
    }

    #[test]
    fn outcome_frame_builder_matches_encode_frame() {
        let mut o = sample_outcome();
        let lat = OutcomeLatency { queue_ns: 1, sim_ns: 2, encode_ns: 3 };
        let built = OutcomeFrame::begin(77, &o).finish(Some(lat));
        o.latency = Some(lat);
        assert_eq!(built, encode_frame(&Frame::Outcome { seq: 77, outcome: o }));
    }

    #[test]
    fn diagnostic_body_round_trips() {
        let diags = sample_diagnostics();
        assert_eq!(decode_diagnostics(&encode_diagnostics(&diags)).unwrap(), diags);
        assert_eq!(decode_diagnostics(&encode_diagnostics(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn bad_severity_byte_is_malformed() {
        let mut bytes = encode_diagnostics(&sample_diagnostics());
        bytes[4] = 9; // first diagnostic's severity byte
        assert!(matches!(
            decode_diagnostics(&bytes),
            Err(WireError::Malformed("bad severity byte"))
        ));
    }

    #[test]
    fn cursor_handles_split_and_batched_frames() {
        let a = encode_frame(&Frame::Credit { n: 1 });
        let b = encode_frame(&Frame::Credit { n: 2 });
        let mut all = a.clone();
        all.extend_from_slice(&b);
        // Feed one byte at a time: frames appear exactly at their
        // boundaries.
        let mut cursor = FrameCursor::new();
        let mut seen = Vec::new();
        for &byte in &all {
            cursor.feed(&[byte]);
            while let Some(f) = cursor.next_frame(DEFAULT_MAX_FRAME).unwrap() {
                seen.push(f);
            }
        }
        assert_eq!(seen, vec![Frame::Credit { n: 1 }, Frame::Credit { n: 2 }]);
    }

    #[test]
    fn bad_version_is_typed() {
        let mut bytes = encode_frame(&Frame::Credit { n: 1 });
        bytes[LEN_PREFIX] = 9; // version byte
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(
            cursor.next_frame(DEFAULT_MAX_FRAME),
            Err(WireError::BadVersion { got: 9 })
        ));
    }

    #[test]
    fn corrupt_checksum_is_typed() {
        let mut bytes = encode_frame(&Frame::Credit { n: 1 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(cursor.next_frame(DEFAULT_MAX_FRAME), Err(WireError::BadChecksum)));
    }

    #[test]
    fn corrupt_body_fails_checksum_first() {
        let mut bytes = encode_frame(&Frame::Credit { n: 1 });
        bytes[LEN_PREFIX + 2] ^= 0x40; // a body byte
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(cursor.next_frame(DEFAULT_MAX_FRAME), Err(WireError::BadChecksum)));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_buffering() {
        let mut cursor = FrameCursor::new();
        cursor.feed(&u32::MAX.to_le_bytes());
        match cursor.next_frame(DEFAULT_MAX_FRAME) {
            Err(WireError::TooLarge { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_reports_truncated() {
        let bytes = encode_frame(&Frame::Hello { window: 4, fingerprint: 1, features: 0 });
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = std::io::Cursor::new(cut.to_vec());
        assert!(matches!(
            read_frame(&mut reader, DEFAULT_MAX_FRAME),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn eof_at_boundary_is_closed() {
        let mut reader = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut reader, DEFAULT_MAX_FRAME), Err(WireError::Closed)));
    }

    #[test]
    fn undersized_length_prefix_is_truncated() {
        let mut cursor = FrameCursor::new();
        cursor.feed(&2u32.to_le_bytes());
        cursor.feed(&[PROTOCOL_VERSION, T_CREDIT]);
        assert!(matches!(cursor.next_frame(DEFAULT_MAX_FRAME), Err(WireError::Truncated)));
    }

    #[test]
    fn huge_declared_count_cannot_balloon_memory() {
        // A Submit frame whose script row count is enormous but whose
        // payload is tiny: the count guard must reject it as truncated
        // without attempting the allocation. Build the body by hand and
        // checksum it so only the count is wrong.
        let mut e = Enc::new();
        e.u8(PROTOCOL_VERSION);
        e.u8(T_SUBMIT);
        e.u64(0); // seq
        e.u64(u64::MAX); // deadline
        e.u64(1); // max_steps
        e.u32(u32::MAX); // declared rows — lie
        let checksum = fnv1a32(&e.buf);
        e.u32(checksum);
        let mut bytes = (e.buf.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&e.buf);
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(cursor.next_frame(DEFAULT_MAX_FRAME), Err(WireError::Truncated)));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut e = Enc::new();
        e.u8(PROTOCOL_VERSION);
        e.u8(T_CREDIT);
        e.u32(5);
        e.u8(0xaa); // trailing garbage inside the checksummed region
        let checksum = fnv1a32(&e.buf);
        e.u32(checksum);
        let mut bytes = (e.buf.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&e.buf);
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(
            cursor.next_frame(DEFAULT_MAX_FRAME),
            Err(WireError::Malformed("trailing bytes"))
        ));
    }

    #[test]
    fn unknown_frame_tag_is_typed() {
        let mut e = Enc::new();
        e.u8(PROTOCOL_VERSION);
        e.u8(200);
        let checksum = fnv1a32(&e.buf);
        e.u32(checksum);
        let mut bytes = (e.buf.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&e.buf);
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(
            cursor.next_frame(DEFAULT_MAX_FRAME),
            Err(WireError::UnknownFrame { tag: 200 })
        ));
    }
}
