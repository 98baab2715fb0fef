//! Differential harness for state-space exploration (ISSUE 10): the
//! explorer's report must be **byte-identical** — through the canonical
//! [`encode_explore_report`] encoding — across worker counts {1,4} ×
//! gang widths {1,8,64}, against the one-worker scalar oracle; every
//! witness it emits must replay on a fresh machine to the exact
//! claimed state key; and on a hand-enumerable chart the exhaustive
//! state count must match an independent brute-force enumeration that
//! shares no code with the BFS engine.
//!
//! The chart reuses the gang-differential timer pattern (§6 hardware
//! timer armed by a port write, expiry raising a chart event) so the
//! state key exercises every field: configuration bitmaps, chart
//! conditions, armed-timer countdowns, pending timer events and TEP
//! data storage. The pickup head — the paper's example, and what the
//! benchmark explores — runs through the same grid, and pins that
//! sparse state keys stay small on a real system.

use proptest::prelude::*;
use pscp_core::arch::{PscpArch, TimerSpec};
use pscp_core::compile::{compile_system, CompiledSystem};
use pscp_core::explore::{
    alphabet, decode_state, encode_state, explore, replay, ExploreOptions, Predicate,
};
use pscp_core::optimize::hottest_scalar_globals;
use pscp_core::machine::{NullEnvironment, PscpMachine, ScriptedEnvironment, SemanticState};
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_core::serve::wire::{encode_explore_report, WireOutcome};
use pscp_statechart::semantics::ControlState;
use pscp_statechart::{ChartBuilder, EventId, StateId, StateKind};
use pscp_tep::codegen::CodegenOptions;
use pscp_tep::{StorageClass, TepDataState};
use std::collections::{HashSet, VecDeque};

/// Timer reload port address (must match the `TLOAD` data port).
const TLOAD_ADDR: u16 = 0x40;

const TIMER_ACTIONS: &str = r#"
    int:16 fired;
    void Arm(int:16 n) { TLOAD = n; }
    void Disarm() { TLOAD = 0; }
    void Note(int:16 k) { fired = fired + k; OVER = fired >= 6; }
"#;

fn timer_system() -> CompiledSystem {
    let mut b = ChartBuilder::new("timed");
    b.event("TICK", Some(400));
    b.event("PING", None);
    b.event("T_EXP", Some(2_000));
    b.condition("OVER", false);
    use pscp_statechart::model::PortDirection::Output;
    b.data_port("TLOAD", 16, TLOAD_ADDR, Output);
    b.state("Top", StateKind::Or)
        .contains(["Idle", "Armed", "Fired", "Done"])
        .default_child("Idle");
    b.state("Idle", StateKind::Basic).transition("Armed", "TICK/Arm(3)");
    b.state("Armed", StateKind::Basic)
        .transition("Fired", "T_EXP/Note(1)")
        .transition("Idle", "PING/Disarm()");
    b.state("Fired", StateKind::Basic)
        .transition("Idle", "TICK [not OVER]/Note(2)")
        .transition("Done", "TICK [OVER]");
    b.basic("Done");
    let chart = b.build().unwrap();
    let mut arch = PscpArch::dual_md16(true);
    arch.timers.push(TimerSpec {
        name: "t0".into(),
        event: "T_EXP".into(),
        port_address: TLOAD_ADDR,
    });
    compile_system(&chart, TIMER_ACTIONS, &arch, &CodegenOptions::default()).unwrap()
}

fn toggle_system() -> CompiledSystem {
    let mut b = ChartBuilder::new("toggle");
    b.event("TICK", None);
    b.event("PING", None);
    b.state("Top", StateKind::Or).contains(["Off", "On"]).default_child("Off");
    b.state("Off", StateKind::Basic).transition("On", "TICK");
    b.state("On", StateKind::Basic).transition("Off", "TICK");
    let chart = b.build().unwrap();
    compile_system(&chart, "", &PscpArch::dual_md16(true), &CodegenOptions::default())
        .unwrap()
}

/// The pickup head as the benchmark builds it: the hottest scalar
/// globals promoted into the register file.
fn pickup_head_system() -> CompiledSystem {
    let arch = PscpArch::dual_md16(true);
    let chart = pscp_motors::pickup_head_chart();
    let env = pscp_core::compile::chart_env(&chart);
    let ir = pscp_action_lang::compile_with_env(&pscp_motors::pickup_head_actions(), &env)
        .unwrap();
    let mut options = CodegenOptions::default();
    for slot in hottest_scalar_globals(&ir, arch.tep.register_file as usize) {
        options.global_promotions.insert(slot, StorageClass::Register);
    }
    pscp_core::compile::compile_system_from_ir(&chart, &ir, &arch, &options).unwrap()
}

fn opts(threads: usize, gang: usize) -> ExploreOptions {
    ExploreOptions {
        threads,
        gang,
        max_states: 100_000,
        predicates: vec![
            Predicate::StateNeverActive("Done".into()),
            Predicate::EventNeverRaised("T_EXP".into()),
        ],
        ..ExploreOptions::default()
    }
}

// ---------------------------------------------------------------------
// The acceptance grid: byte-identical to the scalar oracle
// ---------------------------------------------------------------------

#[test]
fn explore_grid_matches_scalar_oracle() {
    let sys = timer_system();
    let oracle = encode_explore_report(&explore(&sys, &opts(1, 1)));
    for gang in [1usize, 8, 64] {
        for workers in [1usize, 4] {
            let got = encode_explore_report(&explore(&sys, &opts(workers, gang)));
            assert_eq!(
                got, oracle,
                "gang={gang} workers={workers} diverged from scalar oracle"
            );
        }
    }
}

#[test]
fn pickup_head_grid_matches_scalar_oracle() {
    let sys = pickup_head_system();
    let pickup_opts = |threads, gang| ExploreOptions {
        threads,
        gang,
        predicates: vec![
            Predicate::StateNeverActive("ErrState".into()),
            Predicate::EventNeverRaised("BUF_READY".into()),
            // Single-event inputs never deliver a move command.
            Predicate::StateNeverActive("MoveX".into()),
            // An unknown name is never violated.
            Predicate::EventNeverRaised("NO_SUCH_EVENT".into()),
        ],
        ..ExploreOptions::default()
    };
    let report = explore(&sys, &pickup_opts(1, 1));
    assert!(!report.truncated);
    assert_eq!((report.states, report.edges), (234, 3042));
    let violated: Vec<&str> = report.violations.iter().map(|v| v.predicate.name()).collect();
    assert_eq!(violated, ["ErrState", "BUF_READY"]);
    for v in &report.violations {
        assert_eq!(replay(&sys, &v.witness.trace).unwrap(), v.witness.state_key);
    }
    let oracle = encode_explore_report(&report);
    for gang in [1usize, 8, 64] {
        for workers in [1usize, 4] {
            let got = encode_explore_report(&explore(&sys, &pickup_opts(workers, gang)));
            assert_eq!(got, oracle, "pickup head: gang={gang} workers={workers} diverged");
        }
    }
}

/// Truncation (max_states / max_depth cutoffs) is the determinism
/// stress case: the cutoff lands mid-layer and must land on the same
/// state regardless of how the layer was sharded.
#[test]
fn truncated_explores_stay_deterministic()  {
    let sys = timer_system();
    for (max_states, max_depth) in [(7, u32::MAX), (100_000, 3), (13, 5)] {
        let limited = |threads, gang| ExploreOptions {
            max_states,
            max_depth,
            ..opts(threads, gang)
        };
        let oracle = encode_explore_report(&explore(&sys, &limited(1, 1)));
        for gang in [8usize, 64] {
            for workers in [1usize, 4] {
                let got = encode_explore_report(&explore(&sys, &limited(workers, gang)));
                assert_eq!(
                    got, oracle,
                    "max_states={max_states} max_depth={max_depth} \
                     gang={gang} workers={workers} diverged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Witness replay
// ---------------------------------------------------------------------

#[test]
fn every_witness_replays_to_its_claimed_state() {
    let sys = timer_system();
    let report = explore(&sys, &opts(4, 64));
    assert!(!report.truncated, "timer chart must close without truncation");
    assert!(!report.violations.is_empty(), "Done is reachable — predicate must fire");

    for w in report.deadlocks.iter().chain(report.violations.iter().map(|v| &v.witness)) {
        let landed = replay(&sys, &w.trace).expect("witness trace must replay cleanly");
        assert_eq!(landed, w.state_key, "witness landed on a different state");
        // The key itself must be a decodable canonical encoding.
        let state = decode_state(&w.state_key).unwrap();
        assert_eq!(encode_state(&state), w.state_key);
    }
    for (fault, w) in &report.faults {
        // A fault witness replays *to the fault*: the trace's last step
        // is the one that faults from the claimed source state.
        let err = replay(&sys, &w.trace).expect_err("fault witness must reproduce the fault");
        assert_eq!(err.to_string(), *fault);
        assert_eq!(replay(&sys, &w.trace[..w.trace.len() - 1]).unwrap(), w.state_key);
    }
}

/// BFS discovery order guarantees the first violation witness is
/// minimal: no strictly shorter trace may reach a violating state.
#[test]
fn violation_witnesses_are_minimal_length() {
    let sys = timer_system();
    let report = explore(&sys, &opts(1, 1));
    let alpha = alphabet(&sys);
    let done = "Done";
    let witness = &report
        .violations
        .iter()
        .find(|v| v.predicate.name() == done)
        .expect("Done violation")
        .witness;

    // Exhaustively walk every trace strictly shorter than the witness
    // and confirm none of them activates `Done`.
    let done_id = sys.chart.state_by_name(done).unwrap();
    let mut layer = vec![PscpMachine::new(&sys).capture()];
    for _ in 0..witness.trace.len().saturating_sub(1) {
        let mut nextl = Vec::new();
        let mut machine = PscpMachine::new(&sys);
        for state in &layer {
            assert!(!state.control.active[done_id.index()], "shorter trace reached Done");
            for sym in &alpha {
                machine.restore(state);
                if machine.step_injected(sym, &mut NullEnvironment).is_ok() {
                    nextl.push(machine.capture());
                }
            }
        }
        layer = nextl;
    }
    for state in &layer {
        assert!(!state.control.active[done_id.index()], "shorter trace reached Done");
    }
}

// ---------------------------------------------------------------------
// Brute-force enumeration oracle
// ---------------------------------------------------------------------

/// Independent worklist enumeration sharing no code with the explorer:
/// a plain `HashSet` of canonical keys, one scalar machine, one
/// restore-inject-step per edge. Returns `(states, edges)`.
fn brute_force(system: &CompiledSystem) -> (u64, u64) {
    let (seen, edges) = enumerate_keys(system);
    (seen.len() as u64, edges)
}

/// Every reachable state key, plus the number of edges expanded.
fn enumerate_keys(system: &CompiledSystem) -> (HashSet<Vec<u8>>, u64) {
    let alpha = alphabet(system);
    let mut machine = PscpMachine::new(system);
    let root = machine.capture();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut queue = VecDeque::new();
    let mut edges = 0u64;
    seen.insert(encode_state(&root));
    queue.push_back(root);
    while let Some(state) = queue.pop_front() {
        for sym in &alpha {
            edges += 1;
            machine.restore(&state);
            if machine.step_injected(sym, &mut NullEnvironment).is_err() {
                continue;
            }
            let succ = machine.capture();
            if seen.insert(encode_state(&succ)) {
                queue.push_back(succ);
            }
        }
    }
    (seen, edges)
}

#[test]
fn exhaustive_count_matches_brute_force_enumeration() {
    for sys in [toggle_system(), timer_system()] {
        let (states, edges) = brute_force(&sys);
        let report = explore(
            &sys,
            &ExploreOptions { threads: 4, gang: 64, ..ExploreOptions::default() },
        );
        assert!(!report.truncated);
        assert_eq!(report.states, states, "state count diverged from brute force");
        assert_eq!(report.edges, edges, "edge count diverged from brute force");
        // Every visited state is expanded exactly once under the full
        // alphabet, so the edge/state ratio is the alphabet size.
        assert_eq!(report.edges, states * alphabet(&sys).len() as u64);
    }
}

/// State keys store memory sparsely: every reachable pickup-head key is
/// under 1 KiB, though its IRAM, XRAM and registers hold 1,296 words
/// (a dense key is 10,526 bytes).
#[test]
fn pickup_head_keys_are_compact() {
    let sys = pickup_head_system();
    let (keys, edges) = enumerate_keys(&sys);
    assert_eq!((keys.len(), edges), (234, 3042));
    let longest = keys.iter().map(Vec::len).max().unwrap();
    assert!(longest < 1024, "longest pickup-head state key is {longest} bytes");
}

// ---------------------------------------------------------------------
// Scripted paths are bitwise unaffected by exploration
// ---------------------------------------------------------------------

/// Interleaving an exploration between two identical scripted batch
/// runs must leave the batch outcomes bitwise unchanged — the injected
/// stepping mode shares the machines but not the scripted entry path.
#[test]
fn exploration_leaves_scripted_runs_bit_identical() {
    let sys = timer_system();
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 16 };
    let script = vec![
        vec!["TICK".to_string()],
        vec!["T_EXP".to_string()],
        vec![],
        vec!["TICK".to_string(), "PING".to_string()],
    ];
    let run = || -> Vec<Vec<u8>> {
        let envs: Vec<_> =
            (0..8).map(|_| ScriptedEnvironment::new(script.clone())).collect();
        SimPool::with_threads(2)
            .with_gang(8)
            .run_batch(&sys, envs, &limits)
            .iter()
            .map(|o| WireOutcome::from_batch(o).encode())
            .collect()
    };
    let before = run();
    let _ = explore(&sys, &opts(4, 64));
    assert_eq!(run(), before, "exploration perturbed the scripted path");
}

// ---------------------------------------------------------------------
// StateKey injectivity / round-trip properties
// ---------------------------------------------------------------------

fn arb_state() -> impl Strategy<Value = SemanticState> {
    arb_state_with(|| proptest::collection::vec(any::<i64>(), 0..5))
}

/// Memory planes as a chart leaves them: up to 1024 words, about 90 %
/// zeros, so the sparse encoding sees long zero runs, isolated nonzero
/// words and trailing zeros.
fn sparse_words() -> impl Strategy<Value = Vec<i64>> {
    let word = (0u8..10, any::<i64>()).prop_map(|(d, v)| if d == 0 { v } else { 0 });
    proptest::collection::vec(word, 0..=1024)
}

fn arb_sparse_state() -> impl Strategy<Value = SemanticState> {
    arb_state_with(sparse_words)
}

fn arb_state_with<W: Strategy<Value = Vec<i64>>>(
    words: impl Fn() -> W,
) -> impl Strategy<Value = SemanticState> {
    let bitmap = || proptest::collection::vec(any::<bool>(), 0..12);
    let events = || {
        proptest::collection::vec((0usize..8).prop_map(EventId::from_index), 0..4)
    };
    let timers = proptest::collection::vec(
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        0..3,
    );
    let history = proptest::collection::vec(
        prop_oneof![Just(None), (0usize..9).prop_map(|i| Some(StateId::from_index(i)))],
        0..3,
    );
    (
        (bitmap(), bitmap(), events(), history),
        (timers, events()),
        (any::<i64>(), any::<i64>(), words(), words(), words()),
    )
        .prop_map(
            |(
                (active, conditions, pending_internal, history),
                (timers, pending_timer_events),
                (acc, op, regs, iram, xram),
            )| SemanticState {
                control: ControlState { active, conditions, pending_internal, history },
                timers,
                pending_timer_events,
                data: TepDataState { acc, op, regs, iram, xram },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode ∘ encode is the identity over arbitrary semantic states —
    /// including states no chart would ever produce.
    #[test]
    fn state_key_round_trips(state in arb_state()) {
        let key = encode_state(&state);
        prop_assert_eq!(decode_state(&key).unwrap(), state);
    }

    /// Injectivity: two states share a key iff they are equal. The
    /// encoding may never let distinct CR values, timer loads or
    /// storage contents collide.
    #[test]
    fn distinct_states_never_collide(a in arb_state(), b in arb_state()) {
        prop_assert_eq!(encode_state(&a) == encode_state(&b), a == b);
    }

    /// Flipping any single bit of a key never decodes back to the
    /// original state — corruption is either rejected or visibly a
    /// different state, mirroring the wire-frame corruption pin.
    #[test]
    fn corrupt_state_key_never_decodes_to_the_original(
        state in arb_state(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut key = encode_state(&state);
        let i = flip_at % key.len();
        key[i] ^= 1 << flip_bit;
        if let Ok(decoded) = decode_state(&key) {
            prop_assert_ne!(decoded, state);
        }
    }

    /// Keys captured along real scripted walks round-trip too — the
    /// reachable subspace is not special-cased by the codec.
    #[test]
    fn reachable_states_round_trip(walk in proptest::collection::vec(0usize..6, 0..10)) {
        const MENU: [&[&str]; 6] =
            [&["TICK"], &["PING"], &["T_EXP"], &["TICK", "T_EXP"], &["TICK", "PING"], &[]];
        let sys = timer_system();
        let mut machine = PscpMachine::new(&sys);
        for &step in &walk {
            let events: Vec<EventId> = MENU[step]
                .iter()
                .map(|name| sys.chart.event_by_name(name).unwrap())
                .collect();
            let _ = machine.step_injected(&events, &mut NullEnvironment);
            let state = machine.capture();
            let key = encode_state(&state);
            prop_assert_eq!(decode_state(&key).unwrap(), state);
        }
    }

    /// The round-trip property over mostly-zero memory planes.
    #[test]
    fn sparse_state_key_round_trips(state in arb_sparse_state()) {
        let key = encode_state(&state);
        prop_assert_eq!(decode_state(&key).unwrap(), state);
    }

    /// Injectivity over mostly-zero planes, on pairs that differ in at
    /// most one word or one trailing zero — two independent draws are
    /// never close enough to test the sparse layout.
    #[test]
    fn sparse_near_states_never_collide(
        a in arb_sparse_state(),
        plane in 0usize..3,
        at in any::<usize>(),
        value in prop_oneof![Just(0i64), Just(1i64), any::<i64>()],
        grow in any::<bool>(),
    ) {
        let mut b = a.clone();
        let words = match plane {
            0 => &mut b.data.regs,
            1 => &mut b.data.iram,
            _ => &mut b.data.xram,
        };
        if grow || words.is_empty() {
            words.push(0);
        } else {
            let i = at % words.len();
            words[i] = value;
        }
        prop_assert_eq!(encode_state(&a) == encode_state(&b), a == b);
    }

    /// The single-bit corruption property over mostly-zero planes.
    #[test]
    fn corrupt_sparse_state_key_never_decodes_to_the_original(
        state in arb_sparse_state(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut key = encode_state(&state);
        let i = flip_at % key.len();
        key[i] ^= 1 << flip_bit;
        if let Ok(decoded) = decode_state(&key) {
            prop_assert_ne!(decoded, state);
        }
    }
}
