//! Exhaustive state-space exploration over the compiled system.
//!
//! The paper's reactive systems are finite-state by construction — a
//! statechart configuration, the CR's event/condition bits, the
//! hardware timers and the TEP data memory together bound the whole
//! state space — which makes exhaustive reachability tractable.
//! [`explore`] runs a breadth-first search over *semantic states*
//! ([`SemanticState`]): the initial machine is captured, every
//! reachable state is expanded under a finite input alphabet (the
//! empty event set plus each external event alone), and successors are
//! deduplicated by a canonical, injective byte encoding
//! ([`encode_state`]) in an FNV-hashed table.
//!
//! Expansion rides the existing simulation fabric: a frontier layer is
//! flattened into `(state, symbol)` jobs and fanned out through
//! [`SimPool`] — the scalar path restores-and-steps one
//! [`PscpMachine`](crate::machine::PscpMachine) per worker, wider gang
//! widths pack up to 64 jobs into one [`crate::gang::GangRig`] pass
//! whose bit-sliced SLA routes every lane at once. Results are merged
//! *sequentially in job order*, so the report is byte-identical for
//! any worker count and gang width; the explore differential suite
//! pins the whole grid against the one-worker scalar oracle.
//!
//! The report covers:
//!
//! * **deadlocks** — states every input symbol maps back to themselves;
//! * **unreachable states / transitions** — chart elements no explored
//!   state activates or edge fires;
//! * **bounded safety predicates** ([`Predicate`]) — an event is never
//!   raised by a routine, a state is never entered — each violation
//!   carrying a minimal-length counterexample (BFS order guarantees
//!   minimality);
//! * **routine faults** reached during expansion.
//!
//! Every witness is a trace of injected event sets from the initial
//! state plus the canonical encoding of the state it claims to reach;
//! [`replay`] re-executes the trace on a fresh machine and returns the
//! key it actually lands on, so witnesses are checkable byte-for-byte.
//! This is sound because [`SemanticState`] captures *everything* the
//! next cycle's behaviour depends on — clock and statistics are
//! excluded precisely because they cannot influence it.

use crate::compile::CompiledSystem;
use crate::machine::{MachineError, NullEnvironment, PscpMachine, SemanticState};
use crate::pool::{configured_gang, configured_threads, SimPool};
use crate::serve::wire::{Dec, Enc, WireError};
use pscp_statechart::semantics::ControlState;
use pscp_statechart::{EventId, StateId};
use pscp_tep::TepDataState;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

pub use crate::fnv::{BuildFnv, FnvHasher};

/// Version prefix of the canonical state encoding; bumped when the
/// layout changes.
pub const STATE_KEY_VERSION: u8 = 2;

// --- Canonical state encoding ------------------------------------------------

/// Largest register file or RAM plane a state key may declare, in
/// words. TEP addresses are 16 bits wide, so no architecture has a
/// larger plane; [`decode_state`] rejects a larger declared length
/// before allocating anything sized by it.
pub const MAX_PLANE_WORDS: u32 = 1 << 16;

fn enc_bitmap(e: &mut Enc, bits: &[bool]) {
    e.u32(bits.len() as u32);
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            e.u8(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        e.u8(byte);
    }
}

fn dec_bitmap(d: &mut Dec<'_>) -> Result<Vec<bool>, WireError> {
    let n = d.u32()? as usize;
    let bytes = d.take(n.div_ceil(8))?;
    if !n.is_multiple_of(8) && bytes[n / 8] >> (n % 8) != 0 {
        return Err(WireError::Malformed("nonzero bitmap padding"));
    }
    Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
}

/// Sparse memory plane: `u32 len`, `u32 nonzero_count`, then one
/// `(u32 index, i64 value)` pair per nonzero word in ascending index
/// order. Written in one pass; the count is patched in afterwards.
fn enc_plane(e: &mut Enc, words: &[i64]) {
    debug_assert!(words.len() <= MAX_PLANE_WORDS as usize);
    e.u32(words.len() as u32);
    let count_at = e.buf.len();
    e.u32(0);
    let mut count = 0u32;
    // RAM planes are almost entirely zero, so whole zero chunks are
    // skipped with one branch; the OR over a fixed-size chunk
    // vectorises.
    const CHUNK: usize = 32;
    for (c, chunk) in words.chunks(CHUNK).enumerate() {
        let any = match <&[i64; CHUNK]>::try_from(chunk) {
            Ok(full) => full.iter().fold(0, |any, &v| any | v),
            Err(_) => chunk.iter().fold(0, |any, &v| any | v),
        };
        if any == 0 {
            continue;
        }
        for (j, &v) in chunk.iter().enumerate() {
            if v != 0 {
                e.u32((c * CHUNK + j) as u32);
                e.i64(v);
                count += 1;
            }
        }
    }
    e.buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
}

/// Decodes a sparse plane, accepting only the canonical form that
/// [`enc_plane`] writes — so every accepted key re-encodes to itself.
fn dec_plane(d: &mut Dec<'_>) -> Result<Vec<i64>, WireError> {
    let len = d.u32()?;
    if len > MAX_PLANE_WORDS {
        return Err(WireError::TooLarge { len: u64::from(len), max: MAX_PLANE_WORDS });
    }
    let count = d.count(12)?;
    let mut words = vec![0; len as usize];
    let mut next = 0;
    for _ in 0..count {
        let i = d.u32()? as usize;
        if i >= words.len() {
            return Err(WireError::Malformed("memory index out of range"));
        }
        if i < next {
            return Err(WireError::Malformed("memory indices not ascending"));
        }
        let v = d.i64()?;
        if v == 0 {
            return Err(WireError::Malformed("explicit zero memory word"));
        }
        words[i] = v;
        next = i + 1;
    }
    Ok(words)
}

/// Canonical, injective serialisation of a [`SemanticState`] — the
/// *state key* the explorer dedups and byte-compares on. Memory planes
/// are stored sparsely (only nonzero words), which keeps the pickup
/// head's keys to a few hundred bytes. Injective by construction: every field
/// is length-prefixed and [`decode_state`] accepts only canonical
/// bytes, so `decode_state ∘ encode_state` is the identity (pinned by
/// proptest), and distinct states can never share bytes.
pub fn encode_state(s: &SemanticState) -> Vec<u8> {
    let mut e = Enc::with_capacity(512);
    e.u8(STATE_KEY_VERSION);
    enc_bitmap(&mut e, &s.control.active);
    enc_bitmap(&mut e, &s.control.conditions);
    e.u32(s.control.pending_internal.len() as u32);
    for &ev in &s.control.pending_internal {
        e.u32(ev.index() as u32);
    }
    e.u32(s.control.history.len() as u32);
    for h in &s.control.history {
        e.u32(h.map_or(0, |st| st.index() as u32 + 1));
    }
    e.u32(s.timers.len() as u32);
    for t in &s.timers {
        match t {
            Some(rem) => {
                e.u8(1);
                e.u64(*rem);
            }
            None => e.u8(0),
        }
    }
    e.u32(s.pending_timer_events.len() as u32);
    for &ev in &s.pending_timer_events {
        e.u32(ev.index() as u32);
    }
    e.i64(s.data.acc);
    e.i64(s.data.op);
    enc_plane(&mut e, &s.data.regs);
    enc_plane(&mut e, &s.data.iram);
    enc_plane(&mut e, &s.data.xram);
    e.buf
}

/// Decodes a canonical state key back into a [`SemanticState`].
///
/// # Errors
///
/// Returns [`WireError`] on an unknown version, truncation, trailing
/// bytes, or any non-canonical form: nonzero bitmap padding, a memory
/// plane longer than [`MAX_PLANE_WORDS`], or a sparse word whose index
/// is out of range or not ascending or whose value is zero.
pub fn decode_state(bytes: &[u8]) -> Result<SemanticState, WireError> {
    let mut d = Dec::new(bytes);
    if d.u8()? != STATE_KEY_VERSION {
        return Err(WireError::Malformed("unknown state-key version"));
    }
    let active = dec_bitmap(&mut d)?;
    let conditions = dec_bitmap(&mut d)?;
    let n = d.count(4)?;
    let mut pending_internal = Vec::with_capacity(n);
    for _ in 0..n {
        pending_internal.push(EventId::from_index(d.u32()? as usize));
    }
    let n = d.count(4)?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(match d.u32()? {
            0 => None,
            i => Some(StateId::from_index(i as usize - 1)),
        });
    }
    let n = d.count(1)?;
    let mut timers = Vec::with_capacity(n);
    for _ in 0..n {
        timers.push(match d.u8()? {
            0 => None,
            1 => Some(d.u64()?),
            _ => return Err(WireError::Malformed("bad timer tag")),
        });
    }
    let n = d.count(4)?;
    let mut pending_timer_events = Vec::with_capacity(n);
    for _ in 0..n {
        pending_timer_events.push(EventId::from_index(d.u32()? as usize));
    }
    let acc = d.i64()?;
    let op = d.i64()?;
    let regs = dec_plane(&mut d)?;
    let iram = dec_plane(&mut d)?;
    let xram = dec_plane(&mut d)?;
    d.finish()?;
    Ok(SemanticState {
        control: ControlState { active, conditions, pending_internal, history },
        timers,
        pending_timer_events,
        data: TepDataState { acc, op, regs, iram, xram },
    })
}

// --- Predicates, witnesses, report --------------------------------------------

/// A bounded safety predicate checked on every explored state/edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Violated when any reachable configuration cycle's routines
    /// raise the named event.
    EventNeverRaised(String),
    /// Violated when the named state is active in any reachable state
    /// (a state invariant: "never enter `Fault`").
    StateNeverActive(String),
}

impl Predicate {
    /// Stable wire tag (`0` = event-never-raised, `1` =
    /// state-never-active).
    pub fn kind(&self) -> u8 {
        match self {
            Predicate::EventNeverRaised(_) => 0,
            Predicate::StateNeverActive(_) => 1,
        }
    }

    /// The event/state name the predicate watches.
    pub fn name(&self) -> &str {
        match self {
            Predicate::EventNeverRaised(n) | Predicate::StateNeverActive(n) => n,
        }
    }

    /// Rebuilds a predicate from its wire parts; `None` on an unknown
    /// kind tag.
    pub fn from_parts(kind: u8, name: String) -> Option<Self> {
        match kind {
            0 => Some(Predicate::EventNeverRaised(name)),
            1 => Some(Predicate::StateNeverActive(name)),
            _ => None,
        }
    }
}

/// A checkable counterexample: the injected event set of every cycle
/// from the initial state, plus the canonical key of the state the
/// trace claims to reach. [`replay`] verifies the claim.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Witness {
    /// Canonical encoding ([`encode_state`]) of the claimed state.
    pub state_key: Vec<u8>,
    /// `trace[i]` = external event indices injected on cycle `i`.
    pub trace: Vec<Vec<u32>>,
}

/// One violated safety predicate with its minimal counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The predicate that failed.
    pub predicate: Predicate,
    /// Minimal-length trace to the violating state (BFS order).
    pub witness: Witness,
}

/// The result of one exploration. Canonically serialisable
/// ([`crate::serve::wire::encode_explore_report`]) — the differential
/// and wire suites compare reports byte-for-byte through that
/// encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct reachable states discovered (including the initial).
    pub states: u64,
    /// Edges expanded (`frontier state × alphabet symbol` cycles run).
    pub edges: u64,
    /// Successor states already in the visited set.
    pub dedup_hits: u64,
    /// Depth (trace length) of the deepest state discovered.
    pub depth: u32,
    /// True when `max_states` or `max_depth` cut the search short —
    /// absence claims (unreachable, deadlock-free) are then bounded,
    /// not exhaustive.
    pub truncated: bool,
    /// States every alphabet symbol maps back to themselves, capped at
    /// `max_witnesses`.
    pub deadlocks: Vec<Witness>,
    /// Chart states never active in any explored state, in declaration
    /// order.
    pub unreachable_states: Vec<String>,
    /// Transition indices never fired on any explored edge, ascending.
    pub unreachable_transitions: Vec<u32>,
    /// Violated predicates, one minimal witness each, in predicate
    /// declaration order.
    pub violations: Vec<Violation>,
    /// Routine faults reached during expansion: rendered error plus
    /// the trace that triggers it, capped at `max_witnesses`.
    pub faults: Vec<(String, Witness)>,
}

/// Exploration limits and fan-out configuration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Stop discovering new states past this many (`0` = just the
    /// initial state).
    pub max_states: u64,
    /// Maximum trace length explored.
    pub max_depth: u32,
    /// Cap on reported deadlock/fault witnesses.
    pub max_witnesses: u32,
    /// Worker threads for frontier expansion.
    pub threads: usize,
    /// Gang width (1 = scalar oracle path).
    pub gang: usize,
    /// Safety predicates to check.
    pub predicates: Vec<Predicate>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 1_000_000,
            max_depth: u32::MAX,
            max_witnesses: 16,
            threads: configured_threads(),
            gang: configured_gang(),
            predicates: Vec::new(),
        }
    }
}

impl ExploreOptions {
    /// Defaults overridden by `PSCP_EXPLORE_MAX_STATES`,
    /// `PSCP_EXPLORE_MAX_DEPTH` and `PSCP_EXPLORE_WITNESSES` (threads
    /// and gang width follow `PSCP_THREADS`/`PSCP_GANG` as everywhere
    /// else). Unparsable values keep the default.
    pub fn from_env() -> Self {
        fn parse<T: std::str::FromStr>(var: &str) -> Option<T> {
            std::env::var(var).ok()?.trim().parse().ok()
        }
        let mut o = ExploreOptions::default();
        if let Some(v) = parse("PSCP_EXPLORE_MAX_STATES") {
            o.max_states = v;
        }
        if let Some(v) = parse("PSCP_EXPLORE_MAX_DEPTH") {
            o.max_depth = v;
        }
        if let Some(v) = parse("PSCP_EXPLORE_WITNESSES") {
            o.max_witnesses = v;
        }
        o
    }
}

// --- The explorer --------------------------------------------------------------

/// Reconstructs the trace to `idx` by walking the parent chain.
fn trace_to(parents: &[(u32, u32)], alphabet: &[Vec<EventId>], mut idx: u32) -> Vec<Vec<u32>> {
    let mut rev = Vec::new();
    while idx != 0 {
        let (parent, sym) = parents[idx as usize];
        rev.push(sym);
        idx = parent;
    }
    rev.reverse();
    rev.into_iter().map(|sym| symbol_trace(&alphabet[sym as usize])).collect()
}

fn symbol_trace(symbol: &[EventId]) -> Vec<u32> {
    symbol.iter().map(|e| e.index() as u32).collect()
}

/// The trace of the edge `src --alphabet[sym]-->`: the BFS trace to
/// `src` plus that symbol, minimal because `src`'s trace is.
fn edge_trace(
    parents: &[(u32, u32)],
    alphabet: &[Vec<EventId>],
    src: u32,
    sym: usize,
) -> Vec<Vec<u32>> {
    let mut trace = trace_to(parents, alphabet, src);
    trace.push(symbol_trace(&alphabet[sym]));
    trace
}

/// A [`Predicate`] resolved to chart ids once per exploration.
enum Watch {
    Event(EventId),
    State(StateId),
}

impl Watch {
    /// `None` for a name the chart does not declare: such a predicate
    /// is never violated.
    fn resolve(chart: &pscp_statechart::Chart, p: &Predicate) -> Option<Watch> {
        match p {
            Predicate::EventNeverRaised(name) => chart.event_by_name(name).map(Watch::Event),
            Predicate::StateNeverActive(name) => chart.state_by_name(name).map(Watch::State),
        }
    }

    /// Whether an edge raising `raised` into `succ` violates the watch.
    fn hit(&self, succ: &SemanticState, raised: &[EventId]) -> bool {
        match *self {
            Watch::Event(e) => raised.contains(&e),
            Watch::State(s) => succ.control.active[s.index()],
        }
    }
}

/// The exploration input alphabet: the empty event set plus each
/// external (non-internal) event alone, in declaration order.
pub fn alphabet(system: &CompiledSystem) -> Vec<Vec<EventId>> {
    let chart = &system.chart;
    std::iter::once(Vec::new())
        .chain(chart.event_ids().filter(|&e| !chart.event(e).internal).map(|e| vec![e]))
        .collect()
}

/// Breadth-first reachability over the compiled system's semantic
/// state space. Deterministic: the report is byte-identical (through
/// [`crate::serve::wire::encode_explore_report`]) for any
/// `opts.threads` and `opts.gang`.
pub fn explore(system: &CompiledSystem, opts: &ExploreOptions) -> ExploreReport {
    let started = std::time::Instant::now();
    let _span = pscp_obs::trace::span("explore");
    let chart = &system.chart;
    let alphabet = alphabet(system);
    let pool = SimPool::with_threads(opts.threads.max(1)).with_gang(opts.gang.max(1));
    let mut engines = Vec::new();
    let watches: Vec<Option<Watch>> =
        opts.predicates.iter().map(|p| Watch::resolve(chart, p)).collect();

    let mut report = ExploreReport::default();
    let mut visited: HashMap<Vec<u8>, u32, BuildFnv> = HashMap::with_hasher(BuildFnv);
    // Parent pointers: `parents[i]` = (parent state index, alphabet
    // symbol index) of the BFS tree edge that discovered state `i`.
    let mut parents: Vec<(u32, u32)> = Vec::new();
    let mut active_union = vec![false; chart.state_count()];
    let mut fired_union = vec![false; chart.transition_count()];
    // Predicates stop checking after their first (minimal) violation.
    let mut violated = vec![false; opts.predicates.len()];
    let mut violations: Vec<(usize, Witness)> = Vec::new();

    let root = PscpMachine::new(system).capture();
    let root_key = encode_state(&root);
    visited.insert(root_key.clone(), 0);
    parents.push((0, 0));
    for (u, &a) in active_union.iter_mut().zip(&root.control.active) {
        *u |= a;
    }
    for (pi, w) in watches.iter().enumerate() {
        if matches!(w, Some(Watch::State(s)) if root.control.active[s.index()]) {
            violated[pi] = true;
            violations.push((pi, Witness { state_key: root_key.clone(), trace: Vec::new() }));
        }
    }

    let mut frontier: Vec<(u32, Vec<u8>, SemanticState)> = vec![(0, root_key, root)];
    let mut layer: u32 = 0;

    while !frontier.is_empty() {
        if layer >= opts.max_depth {
            report.truncated = true;
            break;
        }
        pscp_obs::metrics::EXPLORE_FRONTIER.record(frontier.len() as u64);

        // Flatten the layer into jobs: every frontier state × every
        // alphabet symbol, in order — the merge below consumes results
        // in this exact order, which is what pins determinism. Jobs
        // borrow the frontier; nothing is cloned per job.
        let jobs: Vec<(&SemanticState, &[EventId])> = frontier
            .iter()
            .flat_map(|(_, _, st)| alphabet.iter().map(move |sym| (st, sym.as_slice())))
            .collect();
        let mut results = pool.expand_states(system, &jobs, &mut engines).into_iter();

        let mut next: Vec<(u32, Vec<u8>, SemanticState)> = Vec::new();
        for (src_idx, src_key, _) in &frontier {
            let src_idx = *src_idx;
            let mut all_self = true;
            for (si, result) in results.by_ref().take(alphabet.len()).enumerate() {
                report.edges += 1;
                let (succ, cycle) = match result {
                    Ok(ok) => ok,
                    Err(e) => {
                        all_self = false;
                        if (report.faults.len() as u32) < opts.max_witnesses {
                            let trace = edge_trace(&parents, &alphabet, src_idx, si);
                            report.faults.push((
                                e.to_string(),
                                Witness { state_key: src_key.clone(), trace },
                            ));
                        }
                        continue;
                    }
                };
                for &t in &cycle.fired {
                    fired_union[t.index()] = true;
                }
                let key = encode_state(&succ);
                if key != *src_key {
                    all_self = false;
                }
                // Predicates see every edge, including ones into
                // truncated or already-visited states.
                for (pi, w) in watches.iter().enumerate() {
                    if !violated[pi] && w.as_ref().is_some_and(|w| w.hit(&succ, &cycle.raised)) {
                        violated[pi] = true;
                        let trace = edge_trace(&parents, &alphabet, src_idx, si);
                        violations.push((pi, Witness { state_key: key.clone(), trace }));
                    }
                }
                let idx = visited.len() as u32;
                match visited.entry(key) {
                    Entry::Occupied(_) => report.dedup_hits += 1,
                    Entry::Vacant(v) if u64::from(idx) < opts.max_states.max(1) => {
                        let key = v.key().clone();
                        v.insert(idx);
                        parents.push((src_idx, si as u32));
                        for (u, &a) in active_union.iter_mut().zip(&succ.control.active) {
                            *u |= a;
                        }
                        next.push((idx, key, succ));
                    }
                    Entry::Vacant(_) => report.truncated = true,
                }
            }
            if all_self && (report.deadlocks.len() as u32) < opts.max_witnesses {
                report.deadlocks.push(Witness {
                    state_key: src_key.clone(),
                    trace: trace_to(&parents, &alphabet, src_idx),
                });
            }
        }
        if !next.is_empty() {
            layer += 1;
            report.depth = layer;
        }
        frontier = next;
    }

    report.states = visited.len() as u64;
    report.unreachable_states = chart
        .state_ids()
        .filter(|&s| !active_union[s.index()])
        .map(|s| chart.state(s).name.clone())
        .collect();
    report.unreachable_transitions = chart
        .transition_ids()
        .filter(|&t| !fired_union[t.index()])
        .map(|t| t.index() as u32)
        .collect();
    violations.sort_by_key(|&(pi, _)| pi);
    report.violations = violations
        .into_iter()
        .map(|(pi, witness)| Violation { predicate: opts.predicates[pi].clone(), witness })
        .collect();

    pscp_obs::metrics::EXPLORE_RUNS.inc();
    pscp_obs::metrics::EXPLORE_STATES.add(report.states);
    pscp_obs::metrics::EXPLORE_EDGES.add(report.edges);
    pscp_obs::metrics::EXPLORE_DEDUP_HITS.add(report.dedup_hits);
    pscp_obs::metrics::EXPLORE_DEADLOCKS.add(report.deadlocks.len() as u64);
    pscp_obs::metrics::EXPLORE_VIOLATIONS.add(report.violations.len() as u64);
    pscp_obs::metrics::EXPLORE_DEPTH.record(u64::from(report.depth));
    pscp_obs::metrics::EXPLORE_RUN_NS.record(started.elapsed().as_nanos() as u64);
    report
}

/// Replays a witness trace on a fresh machine and returns the
/// canonical key of the state it lands on — equal to the witness's
/// `state_key` iff the claim is exact.
///
/// # Errors
///
/// Propagates routine faults (a fault witness replays to the fault
/// itself).
pub fn replay(system: &CompiledSystem, trace: &[Vec<u32>]) -> Result<Vec<u8>, MachineError> {
    let mut machine = PscpMachine::new(system);
    let mut events: Vec<EventId> = Vec::new();
    for step in trace {
        events.clear();
        events.extend(step.iter().map(|&i| EventId::from_index(i as usize)));
        machine.step_injected(&events, &mut NullEnvironment)?;
    }
    Ok(encode_state(&machine.capture()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PscpArch;
    use crate::compile::compile_system;
    use pscp_statechart::{ChartBuilder, StateKind};
    use pscp_tep::codegen::CodegenOptions;

    fn toggle_system() -> CompiledSystem {
        let mut b = ChartBuilder::new("toggle");
        b.event("TICK", None);
        b.state("Top", StateKind::Or).contains(["Off", "On"]).default_child("Off");
        b.state("Off", StateKind::Basic).transition("On", "TICK");
        b.state("On", StateKind::Basic).transition("Off", "TICK");
        let chart = b.build().unwrap();
        compile_system(&chart, "", &PscpArch::dual_md16(true), &CodegenOptions::default())
            .unwrap()
    }

    #[test]
    fn state_key_round_trips() {
        let system = toggle_system();
        let state = PscpMachine::new(&system).capture();
        let key = encode_state(&state);
        assert_eq!(decode_state(&key).unwrap(), state);
    }

    /// A valid key whose last plane (XRAM) section is replaced by
    /// `xram`: the toggle chart's initial state with every plane
    /// emptied, so XRAM is the trailing 8-byte `len, count` pair.
    fn key_with_xram(xram: &[u8]) -> Vec<u8> {
        let mut state = PscpMachine::new(&toggle_system()).capture();
        state.data.regs.clear();
        state.data.iram.clear();
        state.data.xram.clear();
        let mut key = encode_state(&state);
        key.truncate(key.len() - 8);
        key.extend_from_slice(xram);
        key
    }

    /// A raw plane section: `len`, `count`, then the pairs.
    fn plane(len: u32, count: u32, pairs: &[(u32, i64)]) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(len);
        e.u32(count);
        for &(i, v) in pairs {
            e.u32(i);
            e.i64(v);
        }
        e.buf
    }

    fn rejection(key: &[u8]) -> String {
        format!("{:?}", decode_state(key).expect_err("non-canonical key must be rejected"))
    }

    #[test]
    fn canonical_sparse_plane_decodes() {
        let state = decode_state(&key_with_xram(&plane(4, 2, &[(1, 7), (3, -1)]))).unwrap();
        assert_eq!(state.data.xram, [0, 7, 0, -1]);
    }

    #[test]
    fn decode_rejects_plane_above_cap() {
        for len in [MAX_PLANE_WORDS + 1, u32::MAX] {
            assert_eq!(
                rejection(&key_with_xram(&plane(len, 0, &[]))),
                format!("{:?}", WireError::TooLarge { len: u64::from(len), max: MAX_PLANE_WORDS })
            );
        }
    }

    #[test]
    fn decode_rejects_index_out_of_range() {
        assert!(rejection(&key_with_xram(&plane(4, 1, &[(4, 7)]))).contains("out of range"));
    }

    #[test]
    fn decode_rejects_descending_indices() {
        let key = key_with_xram(&plane(4, 2, &[(2, 7), (1, 7)]));
        assert!(rejection(&key).contains("not ascending"));
    }

    #[test]
    fn decode_rejects_repeated_index() {
        let key = key_with_xram(&plane(4, 2, &[(2, 7), (2, 8)]));
        assert!(rejection(&key).contains("not ascending"));
    }

    #[test]
    fn decode_rejects_explicit_zero_word() {
        let key = key_with_xram(&plane(4, 1, &[(1, 0)]));
        assert!(rejection(&key).contains("explicit zero"));
    }

    #[test]
    fn decode_rejects_count_beyond_payload() {
        let key = key_with_xram(&plane(4, u32::MAX, &[(1, 7)]));
        assert_eq!(rejection(&key), format!("{:?}", WireError::Truncated));
    }

    #[test]
    fn decode_rejects_nonzero_bitmap_padding() {
        let mut key = key_with_xram(&plane(0, 0, &[]));
        // The active bitmap follows the version byte: a u32 length,
        // then its bytes; the toggle chart has three states, so bits
        // 3..8 of the first byte are padding.
        assert_eq!(key[1..5], 3u32.to_le_bytes());
        key[5] |= 1 << 7;
        assert!(rejection(&key).contains("padding"));
    }

    #[test]
    fn toggle_chart_has_two_states() {
        let system = toggle_system();
        let report = explore(
            &system,
            &ExploreOptions { threads: 1, gang: 1, ..ExploreOptions::default() },
        );
        assert_eq!(report.states, 2);
        assert!(!report.truncated);
        assert!(report.deadlocks.is_empty());
        assert!(report.unreachable_states.is_empty());
        assert!(report.unreachable_transitions.is_empty());
    }

    #[test]
    fn witnesses_replay_to_claimed_state() {
        let system = toggle_system();
        let report = explore(
            &system,
            &ExploreOptions {
                threads: 1,
                gang: 1,
                predicates: vec![Predicate::StateNeverActive("On".into())],
                ..ExploreOptions::default()
            },
        );
        assert_eq!(report.violations.len(), 1);
        let w = &report.violations[0].witness;
        assert_eq!(replay(&system, &w.trace).unwrap(), w.state_key);
        assert_eq!(w.trace.len(), 1, "BFS witness must be minimal");
    }

    #[test]
    fn max_states_truncates_deterministically() {
        let system = toggle_system();
        let opts =
            ExploreOptions { threads: 1, gang: 1, max_states: 0, ..ExploreOptions::default() };
        let report = explore(&system, &opts);
        assert!(report.truncated);
        assert_eq!(report.states, 1);
    }
}
