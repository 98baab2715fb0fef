//! The scenario path of the loopback server that `explore`'s traced
//! run starts: `Submit` frame → credit window → shard-worker queue →
//! gang simulation → `Outcome` frame with the negotiated latency
//! trailer, plus a `Stats` scrape around the batch.
//!
//! A fixed, seeded batch of sparse pickup-head scenarios keeps the
//! default credit window full (a closed loop: the next scenario is
//! submitted when one is delivered). One op is one scenario, timed from
//! `submit` until it is delivered in order. The cycle layer runs here
//! in its SLA-bound, mostly idle-lane gang use, the opposite of
//! `cosim`'s TEP-bound use.

use crate::common::{self, Outcome};
use crate::gen::{self, Rng};
use crate::trace::Tracer;
use pscp_core::compile::CompiledSystem;
use pscp_core::machine::ScriptedEnvironment;
use pscp_core::obs::metrics::MetricsSnapshot;
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_core::serve::wire::{encode_frame, Frame, Submit, WireOutcome};
use pscp_core::serve::ScenarioClient;
use std::collections::VecDeque;
use std::time::Instant;

/// Distinct scripts per run; ops cycle through them.
const SCRIPTS: usize = 256;
/// Ops run before the measured batch.
const WARMUP_OPS: usize = 256;
/// Ops in the measured batch: enough for 40 samples beyond p99.
const BATCH_OPS: usize = 4096;

fn limits(script: &[Vec<String>]) -> BatchOptions {
    BatchOptions {
        deadline: u64::MAX,
        max_steps: script.len() as u64,
    }
}

/// One delivered op, as the client saw it.
struct Delivered {
    idx: usize,
    submitted: Instant,
    latency_ns: u64,
    submit_ns: u64,
    recv_ns: u64,
    outcome: WireOutcome,
}

/// Runs `ops` scenarios through the closed loop, then drains the window.
fn drive(
    client: &mut ScenarioClient,
    scripts: &[Vec<Vec<String>>],
    ops: usize,
    mut seen: impl FnMut(Delivered),
) {
    let mut inflight: VecDeque<(usize, Instant, u64)> = VecDeque::new();
    let submit = |client: &mut ScenarioClient, inflight: &mut VecDeque<_>, idx: usize| {
        let t0 = Instant::now();
        client
            .submit(scripts[idx].clone(), limits(&scripts[idx]))
            .expect("submit reaches the server");
        inflight.push_back((idx, t0, t0.elapsed().as_nanos() as u64));
    };
    let mut submitted = 0;
    while submitted < ops && inflight.len() < client.window() as usize {
        submit(client, &mut inflight, submitted % SCRIPTS);
        submitted += 1;
    }
    while let Some((idx, t0, submit_ns)) = inflight.pop_front() {
        let r0 = Instant::now();
        let (_, outcome) = client.recv().expect("outcome arrives");
        let now = Instant::now();
        seen(Delivered {
            idx,
            submitted: t0,
            latency_ns: (now - t0).as_nanos() as u64,
            submit_ns,
            recv_ns: (now - r0).as_nanos() as u64,
            outcome,
        });
        if submitted < ops {
            submit(client, &mut inflight, submitted % SCRIPTS);
            submitted += 1;
        }
    }
}

/// Drives the measured batch through `client` (connected with the
/// latency feature to a server of `sys`), checks every outcome against
/// the in-process scalar `SimPool` encoding, and records the `serve.*`
/// layer metrics. Ops get tracer ids from `first_op` on.
pub fn measure(
    rng: &mut Rng,
    sys: &CompiledSystem,
    client: &mut ScenarioClient,
    t: &mut Tracer,
    first_op: u64,
    out: &mut Outcome,
) {
    let scripts = gen::scenario_scripts(rng, &sys.chart, SCRIPTS);
    let oracle = SimPool::with_threads(1).with_gang(1);
    let expected: Vec<Vec<u8>> = scripts
        .iter()
        .map(|s| {
            let o = oracle.run_batch(sys, vec![ScriptedEnvironment::new(s.clone())], &limits(s));
            WireOutcome::from_batch(&o[0]).encode()
        })
        .collect();
    let submit_bytes: Vec<f64> = scripts
        .iter()
        .map(|s| {
            let frame = Frame::Submit(Submit {
                seq: 0,
                limits: limits(s),
                script: s.clone(),
            });
            encode_frame(&frame).len() as f64
        })
        .collect();
    drive(client, &scripts, WARMUP_OPS, |d| {
        out.fail(d.outcome.encode() == expected[d.idx]);
    });

    pscp_core::obs::set_flags(pscp_core::obs::METRICS);
    let (_, before) = client.stats().expect("stats scrape");
    let mut lat = Vec::new();
    let (mut queue, mut sim, mut encode, mut transport) = (vec![], vec![], vec![], vec![]);
    let (mut submit_us, mut recv_us, mut sub_bytes, mut out_bytes) =
        (vec![], vec![], vec![], vec![]);
    let mut op = first_op;
    drive(client, &scripts, BATCH_OPS, |d| {
        t.set_op(op);
        op += 1;
        let span = t.record(0, "serve.op", d.submitted, 1, d.latency_ns);
        t.record(span, "serve.client.submit", d.submitted, 1, d.submit_ns);
        t.record(span, "serve.client.recv", d.submitted, 1, d.recv_ns);
        let l = d.outcome.latency.unwrap_or_default();
        for (name, ns) in [
            ("serve.server.queue", l.queue_ns),
            ("serve.server.sim", l.sim_ns),
            ("serve.server.encode", l.encode_ns),
        ] {
            t.record(span, name, d.submitted, 1, ns);
        }
        let body = d.outcome.encode();
        lat.push(d.latency_ns as f64 / 1e6);
        queue.push(l.queue_ns as f64 / 1e3);
        sim.push(l.sim_ns as f64 / 1e3);
        encode.push(l.encode_ns as f64 / 1e3);
        transport.push(
            d.latency_ns
                .saturating_sub(l.queue_ns + l.sim_ns + l.encode_ns) as f64
                / 1e3,
        );
        submit_us.push(d.submit_ns as f64 / 1e3);
        recv_us.push(d.recv_ns as f64 / 1e3);
        sub_bytes.push(submit_bytes[d.idx]);
        out_bytes.push(body.len() as f64);
        out.fail(d.outcome.latency.is_some() && body == expected[d.idx]);
    });
    let (_, after) = client.stats().expect("stats scrape");
    pscp_core::obs::set_flags(0);

    let stalls = common::counter_delta(&before, &after, "serve_credit_stalls");
    let depth = |s: &MetricsSnapshot| {
        s.histograms
            .iter()
            .find(|h| h.name == "serve_queue_depth")
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let ((c0, s0), (c1, s1)) = (depth(&before), depth(&after));
    out.layer("serve.client.submit_us", common::mean(&submit_us));
    out.layer("serve.client.recv_wait_us", common::mean(&recv_us));
    out.layer(
        "serve.client.credit_stall_ratio",
        common::ratio(stalls, submit_us.len() as f64),
    );
    out.layer(
        "serve.server.queue_us_p50",
        common::quantile(&mut queue, 0.5),
    );
    out.layer(
        "serve.server.queue_us_p99",
        common::quantile(&mut queue, 0.99),
    );
    out.layer("serve.server.sim_us_p50", common::quantile(&mut sim, 0.5));
    out.layer("serve.server.sim_us_p99", common::quantile(&mut sim, 0.99));
    out.layer(
        "serve.server.encode_us_p50",
        common::quantile(&mut encode, 0.5),
    );
    out.layer(
        "serve.transport_us_p50",
        common::quantile(&mut transport, 0.5),
    );
    out.layer("serve.wire.submit_bytes", common::mean(&sub_bytes));
    out.layer("serve.wire.outcome_bytes", common::mean(&out_bytes));
    out.layer(
        "serve.server.queue_depth_mean",
        common::ratio((s1 - s0) as f64, (c1 - c0) as f64),
    );
    out.layer("serve.op_ms_p99", common::quantile(&mut lat, 0.99));
}
