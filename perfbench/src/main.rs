//! The PSCP benchmark: one seeded workload per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cosim|explore --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing at all. With `--trace 1` it spends half the window untraced
//! and half traced, records spans around every call into a layer, and
//! reports the per-layer metrics plus the tracing overhead. Every op's
//! output is checked against an oracle; the last stdout line is one
//! JSON object with the verdict and the metrics. See `LAYERS.md` for
//! which layer metric should move which end-to-end metric.

mod common;
mod cosim;
mod design;
mod explore;
mod gen;
mod scenarios;
mod trace;

use common::Outcome;
use std::fmt::Write as _;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["cosim", "explore"];

/// Every per-layer metric, with its unit, in report order. A workload
/// reports 0 for a layer it does not call (see `LAYERS.md`).
const PER_LAYER: &[(&str, &str)] = &[
    ("explore.restore_ns", "ns"),
    ("explore.step_ns", "ns"),
    ("explore.capture_ns", "ns"),
    ("explore.encode_ns", "ns"),
    ("explore.dedup_ns", "ns"),
    ("explore.key_bytes", "bytes"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.engine_overhead_ms", "ms"),
    ("wire.explore_ms", "ms"),
    ("wire.report_bytes", "bytes"),
    ("serve.client.submit_us", "us"),
    ("serve.client.recv_wait_us", "us"),
    ("serve.client.credit_stall_ratio", "ratio"),
    ("serve.server.queue_us_p50", "us"),
    ("serve.server.queue_us_p99", "us"),
    ("serve.server.sim_us_p50", "us"),
    ("serve.server.sim_us_p99", "us"),
    ("serve.server.encode_us_p50", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.wire.submit_bytes", "bytes"),
    ("serve.wire.outcome_bytes", "bytes"),
    ("serve.server.queue_depth_mean", "count"),
    ("serve.op_ms_p99", "ms"),
    ("machine.step_ns", "ns"),
    ("machine.idle_step_ns", "ns"),
    ("machine.firing_step_ns", "ns"),
    ("machine.firing_ratio", "ratio"),
    ("machine.clock_per_config", "cycles"),
    ("machine.sim_cycles_per_s", "1/s"),
    ("tep.instr_per_firing", "count"),
    ("motors.env_ns", "ns"),
    ("pool.dispatch_ms", "ms"),
    ("statechart.parse_us", "us"),
    ("action_lang.compile_us", "us"),
    ("diag.report_us", "us"),
    ("compile.artifacts_us", "us"),
    ("tep.codegen_us", "us"),
    ("timing.wcet_us", "us"),
    ("timing.validate_us", "us"),
    ("design.op_ms_p50", "ms"),
    ("optimize.candidates", "count"),
    ("optimize.compile_share", "ratio"),
    ("optimize.validate_share", "ratio"),
    ("tep.codegen_cache.hit_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(args)
}

/// Writes the traced run's spans next to the benchmark sources, inside
/// the checkout it was built from.
pub fn write_trace(args: &Args, t: &trace::Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.tsv", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, t.to_tsv())) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out: Outcome = match args.workload.as_str() {
        "cosim" => cosim::run(&args),
        "explore" => explore::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let ops = out.lat_ms.len();
    eprintln!(
        "perfbench {} seed {}: {} ops timed, {} attempted, {} failed, set-up {:.4} s",
        args.workload, args.seed, ops, out.attempted, out.failed, out.setup_s
    );

    let mut metrics = String::from("{");
    if args.trace {
        for &(name, unit) in PER_LAYER {
            metric(
                &mut metrics,
                name,
                out.layers.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
    } else {
        let rss = common::peak_rss_mb();
        metric(&mut metrics, "setup_s", out.setup_s, "s");
        metric(&mut metrics, "ops_per_cpu_s", out.ops_per_s(), "1/s");
        metric(&mut metrics, "op_cpu_ms_p50", out.latency_ms(0.5), "ms");
        metric(&mut metrics, "op_cpu_ms_p90", out.latency_ms(0.9), "ms");
        metric(&mut metrics, "peak_rss_mb", rss, "MB");
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed
    );
}
