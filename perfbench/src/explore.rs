//! `explore`: one op is exhaustive exploration of the pickup head to
//! closure through the gang path (1 worker × gang 64). The only
//! workload that runs capture → key encode → hash/dedup.
//!
//! The traced run also requests each op's exploration over the wire
//! from a loopback `pscp-serve` server (request frame → server explore
//! → chunked report frames → client decode), which measures the wire
//! layer, and replays the BFS through the public
//! `PscpMachine::{restore, step_injected, capture}`, `encode_state` and
//! the `BuildFnv` map, timing every edge; the replay must reproduce the
//! report's states, edges, dedup hits and depth exactly. It ends with a
//! seeded batch of scenarios through the same server's scenario path
//! (`scenarios.rs`).

use crate::common::{self, Outcome};
use crate::gen::{self, Rng};
use crate::scenarios;
use crate::trace::Tracer;
use crate::Args;
use pscp_core::compile::CompiledSystem;
use pscp_core::explore::{
    alphabet, encode_state, explore, BuildFnv, ExploreOptions, ExploreReport, Predicate,
};
use pscp_core::machine::{NullEnvironment, PscpMachine};
use pscp_core::serve::wire::{encode_explore_report, ExploreRequest, DEFAULT_WINDOW};
use pscp_core::serve::{self, ScenarioClient, ServeOptions, ServerHandle};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Distinct predicate sets per run; ops cycle through them.
const INPUTS: usize = 8;

/// One worker with the default 64-lane gang. On a 2-vCPU host whose
/// second vCPU is shared with other guests, the 2-worker fan-out was
/// both slower (p50 190–270 ms against 146–150 ms) and too unsteady to
/// bound; one worker still runs job cloning, gang packing and pool
/// dispatch.
const WORKERS: usize = 1;
const GANG: usize = 64;

fn options(threads: usize, gang: usize, input: &[Predicate]) -> ExploreOptions {
    ExploreOptions {
        threads,
        gang,
        predicates: input.to_vec(),
        ..ExploreOptions::default()
    }
}

/// Declaration order is drop order: the client hangs up before the
/// server is stopped and joined.
struct Served {
    client: ScenarioClient,
    _server: ServerHandle,
}

impl Served {
    fn start(sys: &Arc<CompiledSystem>) -> Self {
        let opts = ServeOptions {
            threads: WORKERS,
            gang: GANG,
            ..ServeOptions::default()
        };
        let server =
            serve::spawn(Arc::clone(sys), "127.0.0.1:0", opts).expect("loopback server binds");
        let client = ScenarioClient::connect_latency(server.addr(), DEFAULT_WINDOW, 0)
            .expect("client connects");
        Served {
            client,
            _server: server,
        }
    }

    fn explore(&mut self, input: &[Predicate]) -> ExploreReport {
        let req = ExploreRequest::from_options(&options(WORKERS, GANG, input));
        self.client
            .explore(&req)
            .expect("exploration over the wire")
    }
}

pub fn run(args: &Args) -> Outcome {
    let make = || Arc::new(common::pickup_head_system(None));
    let (mut setup, sys) = common::SetupTimer::start(make);
    let mut rng = Rng::new(args.seed);
    let inputs: Vec<_> = (0..INPUTS)
        .map(|_| gen::predicates(&mut rng, &sys.chart))
        .collect();
    // The oracle: the one-worker scalar path.
    let expected: Vec<Vec<u8>> = inputs
        .iter()
        .map(|p| encode_explore_report(&explore(&sys, &options(1, 1, p))))
        .collect();

    common::reset_peak_rss();
    let mut out = Outcome::new(INPUTS);
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let op = |i: usize| explore(&sys, &options(WORKERS, GANG, &inputs[i % INPUTS]));
    let first = op(0);
    eprintln!(
        "explore: states={} edges={} dedup_hits={} depth={} truncated={}",
        first.states, first.edges, first.dedup_hits, first.depth, first.truncated
    );
    let end = common::deadline(window);
    let mut i = 0;
    while Instant::now() < end {
        let c0 = common::cpu_s();
        let report = op(i);
        out.serial(common::cpu_ms_since(c0));
        out.fail(encode_explore_report(&report) == expected[i % INPUTS]);
        i += 1;
        setup.tick(make);
    }
    out.setup_s = setup.median();
    if args.trace {
        traced(args, &mut out, sys, &inputs, &expected, &mut rng);
    }
    out
}

/// What the replay found, to compare with `explore()`'s report.
#[derive(Debug, Default)]
struct Replay {
    states: u64,
    edges: u64,
    dedup_hits: u64,
    depth: u32,
    key_bytes: u64,
}

const EDGE_SPANS: [&str; 5] = [
    "explore.restore",
    "explore.step",
    "explore.capture",
    "explore.encode",
    "explore.dedup",
];

/// Breadth-first replay of `explore()` on one scalar machine, folding
/// each edge's five layer intervals into the tracer under `parent`.
fn replay(sys: &CompiledSystem, t: &mut Tracer, parent: usize) -> Replay {
    let started = Instant::now();
    let alphabet = alphabet(sys);
    let mut m = PscpMachine::new(sys);
    let root = m.capture();
    let mut visited: HashMap<Vec<u8>, u32, BuildFnv> = HashMap::with_hasher(BuildFnv);
    visited.insert(encode_state(&root), 0);
    let mut frontier = vec![root];
    let mut r = Replay::default();
    let mut ns = [0u64; 5];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for state in &frontier {
            for symbol in &alphabet {
                r.edges += 1;
                let t0 = Instant::now();
                m.restore(state);
                let t1 = Instant::now();
                let stepped = m.step_injected(symbol, &mut NullEnvironment);
                let t2 = Instant::now();
                if stepped.is_err() {
                    ns[1] += (t2 - t1).as_nanos() as u64;
                    continue;
                }
                let succ = m.capture();
                let t3 = Instant::now();
                let key = encode_state(&succ);
                let t4 = Instant::now();
                r.key_bytes += key.len() as u64;
                let idx = visited.len() as u32;
                match visited.entry(key) {
                    Entry::Occupied(_) => r.dedup_hits += 1,
                    Entry::Vacant(v) => {
                        v.insert(idx);
                        next.push(succ);
                    }
                }
                let t5 = Instant::now();
                for (slot, (a, b)) in
                    ns.iter_mut()
                        .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)])
                {
                    *slot += (b - a).as_nanos() as u64;
                }
            }
        }
        if !next.is_empty() {
            r.depth += 1;
        }
        frontier = next;
    }
    r.states = visited.len() as u64;
    for (name, total) in EDGE_SPANS.into_iter().zip(ns) {
        t.record(parent, name, started, r.edges, total);
    }
    r
}

fn matches(report: &ExploreReport, r: &Replay) -> bool {
    (report.states, report.edges, report.dedup_hits, report.depth)
        == (r.states, r.edges, r.dedup_hits, r.depth)
}

fn traced(
    args: &Args,
    out: &mut Outcome,
    sys: Arc<CompiledSystem>,
    inputs: &[Vec<Predicate>],
    expected: &[Vec<u8>],
    rng: &mut Rng,
) {
    let mut t = Tracer::new();
    for _ in 0..common::SETUP_REPS {
        std::hint::black_box(common::pickup_head_system(Some(&mut t)));
    }
    common::timing_probe(&mut t, &sys);
    let mut served = Served::start(&sys);

    let (mut edges, mut hits, mut key_bytes, mut report_bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut op_ms, mut op_cpu_ms, mut wire_ms, mut replay_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let end = common::deadline(args.seconds / 2.0);
    let mut i = 0;
    while Instant::now() < end {
        let input = &inputs[i % INPUTS];
        t.set_op(i as u64 + 1);
        let c0 = common::cpu_s();
        let op = t.span_id("explore.op", || {
            explore(&sys, &options(WORKERS, GANG, input))
        });
        op_cpu_ms.push(common::cpu_ms_since(c0));
        let wire = t.span_id("wire.explore", || served.explore(input));
        let rp = t.enter("explore.replay");
        let r = replay(&sys, &mut t, rp);
        t.exit(rp);
        op_ms.push(t.dur_ms(op.0));
        wire_ms.push(t.dur_ms(wire.0));
        replay_ms.push(t.dur_ms(rp));
        let bytes = encode_explore_report(&op.1);
        report_bytes += bytes.len() as u64;
        edges += r.edges;
        hits += r.dedup_hits;
        key_bytes += r.key_bytes;
        out.fail(
            bytes == expected[i % INPUTS]
                && encode_explore_report(&wire.1) == bytes
                && matches(&op.1, &r),
        );
        i += 1;
    }
    scenarios::measure(rng, &sys, &mut served.client, &mut t, i as u64 + 1, out);
    let totals = t.totals();
    for (metric, span) in [
        ("explore.restore_ns", "explore.restore"),
        ("explore.step_ns", "explore.step"),
        ("explore.capture_ns", "explore.capture"),
        ("explore.encode_ns", "explore.encode"),
        ("explore.dedup_ns", "explore.dedup"),
    ] {
        out.layer(metric, Tracer::self_ns_per(&totals, span));
    }
    let ops = op_ms.len() as f64;
    out.layer(
        "explore.key_bytes",
        common::ratio(key_bytes as f64, edges as f64),
    );
    out.layer(
        "explore.dedup_ratio",
        common::ratio(hits as f64, edges as f64),
    );
    out.layer(
        "explore.engine_overhead_ms",
        common::mean(&op_ms) - common::mean(&replay_ms),
    );
    out.layer(
        "wire.explore_ms",
        common::mean(&wire_ms) - common::mean(&op_ms),
    );
    out.layer("wire.report_bytes", common::ratio(report_bytes as f64, ops));
    common::front_end_layers(out, &t);
    common::trace_overhead(out, &op_cpu_ms);
    crate::write_trace(args, &t);
}
