//! Shared harness pieces: the systems under test, the timed window,
//! statistics and the result record every workload fills.

use crate::trace::Tracer;
use pscp_core::arch::PscpArch;
use pscp_core::compile::{chart_env, compile_system_with, CompiledSystem, SystemArtifacts};
use pscp_core::timing::{validate_timing, wcet_report, TimingOptions};
use pscp_tep::codegen::CodegenOptions;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up is timed this many times before the window opens, then
/// again every `SETUP_EVERY` of the window, between ops.
pub const SETUP_REPS: usize = 15;
pub const SETUP_EVERY: Duration = Duration::from_millis(100);

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// CPU time of every op in the untraced window, in ms.
    pub lat_ms: Vec<f64>,
    /// When each op of the untraced window completed, in CPU seconds
    /// spent inside the ops.
    pub done_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Distinct inputs the ops cycle through, in order from the first.
    pub cycle: usize,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(cycle: usize) -> Self {
        Outcome {
            cycle,
            ..Outcome::default()
        }
    }

    pub fn fail(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Records one op of a serial workload that took `ms`.
    pub fn serial(&mut self, ms: f64) {
        let before = self.done_s.last().copied().unwrap_or(0.0);
        self.lat_ms.push(ms);
        self.done_s.push(before + ms / 1e3);
    }

    /// CPU seconds the ops of the untraced window took.
    pub fn busy_s(&self) -> f64 {
        self.done_s.last().copied().unwrap_or(0.0)
    }

    /// Throughput: the median over up to `CHUNKS` runs of consecutive
    /// ops of ops per CPU second. A median, so that a few seconds
    /// of host slowdown move it less than a whole-window mean would.
    pub fn ops_per_s(&self) -> f64 {
        let (count, len) = chunks(self.done_s.len(), 1, self.cycle);
        let mut rates: Vec<f64> = (0..count)
            .map(|j| {
                let start = if j == 0 {
                    0.0
                } else {
                    self.done_s[j * len - 1]
                };
                ratio(len as f64, self.done_s[(j + 1) * len - 1] - start)
            })
            .collect();
        median(&mut rates)
    }

    /// Latency quantile `q`: the median over up to `CHUNKS` runs of
    /// consecutive ops of each run's own quantile. Every run holds at
    /// least `MIN_CHUNK_OPS` ops when the window has that many, so a
    /// p90 has 10 samples beyond it in each.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let (count, len) = chunks(self.lat_ms.len(), MIN_CHUNK_OPS, self.cycle);
        let mut per_chunk: Vec<f64> = self
            .lat_ms
            .chunks_exact(len.max(1))
            .take(count)
            .map(|c| quantile(&mut c.to_vec(), q))
            .collect();
        median(&mut per_chunk)
    }
}

/// Most sub-windows a window's throughput and latency are split into.
pub const CHUNKS: usize = 25;
/// Fewest ops in a latency sub-window.
pub const MIN_CHUNK_OPS: usize = 100;

/// Splits `n` ops into (count, length) sub-windows of whole input
/// cycles, so that every sub-window holds each input equally often and
/// its rate and percentiles come from the same mix: as many runs of at
/// least `min` ops as fit, at most `CHUNKS` and at least one. The
/// remainder, fewer than one sub-window, is left out. A window shorter
/// than one cycle is one sub-window.
fn chunks(n: usize, min: usize, cycle: usize) -> (usize, usize) {
    let cycle = cycle.max(1);
    let cycles = n / cycle;
    if cycles == 0 {
        return (usize::from(n > 0), n);
    }
    let per = min.div_ceil(cycle).max(cycles.div_ceil(CHUNKS));
    let count = (cycles / per).max(1);
    (count, cycles.min(per) * cycle)
}

/// Set-up samples: `setup_s` is their median. Host speed on a shared
/// machine drifts within a second, so samples spread over the whole
/// window give a steadier median than a burst before it.
pub struct SetupTimer {
    secs: Vec<f64>,
    next: Instant,
}

impl SetupTimer {
    /// Times `SETUP_REPS` runs of `make`; returns the timer and the
    /// last result, which the workload then uses.
    pub fn start<R>(make: impl Fn() -> R) -> (Self, R) {
        let mut secs = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let c0 = cpu_s();
            let r = make();
            secs.push(cpu_s() - c0);
            last = Some(r);
        }
        let timer = SetupTimer {
            secs,
            next: Instant::now() + SETUP_EVERY,
        };
        (timer, last.expect("at least one set-up"))
    }

    /// Times one more run of `make` if one is due, and drops its result.
    /// The run gets a thread of its own, so that its allocations come
    /// from that thread's heap arena: made on the thread the ops run on,
    /// they changed how the ops' large buffers were placed and moved
    /// `peak_rss_mb` on `cosim` from 72 MB to 100 MB in most runs.
    pub fn tick<R: Send>(&mut self, make: impl Fn() -> R + Sync) {
        if Instant::now() < self.next {
            return;
        }
        let secs = std::thread::scope(|s| {
            s.spawn(|| {
                let c0 = cpu_s();
                drop(make());
                cpu_s() - c0
            })
            .join()
            .expect("set-up thread")
        });
        self.secs.push(secs);
        self.next = Instant::now() + SETUP_EVERY;
    }

    pub fn median(&self) -> f64 {
        median(&mut self.secs.clone())
    }
}

pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

/// CPU seconds this process has run, over all its threads. The timed
/// metrics use it rather than wall time: on a shared virtual machine
/// the hypervisor takes the vCPU away for tens of milliseconds at a
/// time (up to half of some seconds), and a guest's CPU clock does not
/// count that stolen time while its wall clock does.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

pub fn cpu_ms_since(c0: f64) -> f64 {
    (cpu_s() - c0) * 1e3
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile (sorts `v`).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Restarts the peak-RSS high-water mark at the current resident size
/// (Linux `clear_refs` value 5), so `peak_rss_mb` covers the measured
/// window: memory set-up and the oracle keep resident still counts,
/// their transient peaks do not.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: peak RSS not reset ({e}); it includes set-up");
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The pickup head of Figs. 5–7 on the paper's final architecture (two
/// 16-bit M/D TEPs, optimised code with the hottest scalar globals in
/// registers), compiled from its chart text and action text. With a
/// tracer, every front-end layer call gets its own span.
pub fn pickup_head_system(mut t: Option<&mut Tracer>) -> CompiledSystem {
    let arch = PscpArch::dual_md16(true);
    let chart = span(&mut t, "statechart.parse", || {
        pscp_statechart::parse::parse_chart(pscp_motors::PICKUP_HEAD_SOURCE)
            .expect("pickup-head chart parses")
    });
    let ir = span(&mut t, "action_lang.compile", || {
        pscp_action_lang::compile_with_env(&pscp_motors::pickup_head_actions(), &chart_env(&chart))
            .expect("pickup-head actions compile")
    });
    let mut options = CodegenOptions::default();
    for slot in pscp_core::optimize::hottest_scalar_globals(&ir, arch.tep.register_file as usize) {
        options
            .global_promotions
            .insert(slot, pscp_tep::StorageClass::Register);
    }
    codegen(t, &chart, &ir, &arch, &options)
}

fn codegen(
    mut t: Option<&mut Tracer>,
    chart: &pscp_statechart::Chart,
    ir: &pscp_action_lang::ir::Program,
    arch: &PscpArch,
    options: &CodegenOptions,
) -> CompiledSystem {
    let artifacts = span(&mut t, "compile.artifacts", || {
        SystemArtifacts::build(chart, arch.encoding)
    });
    span(&mut t, "tep.codegen", || {
        compile_system_with(&artifacts, ir, arch, options, None).expect("system compiles")
    })
}

/// Runs `f` inside a span when tracing.
pub fn span<R>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Traced set-up probe shared by the simulation workloads: the WCET and
/// timing-validation layers on the system the workload runs, which
/// otherwise appear only inside set-up and the design loop.
pub fn timing_probe(t: &mut Tracer, sys: &CompiledSystem) {
    let opts = TimingOptions::default();
    std::hint::black_box(t.span("timing.wcet", || wcet_report(sys, &opts)));
    std::hint::black_box(t.span("timing.validate", || validate_timing(sys, &opts)));
}

/// Mean self time per interval of each front-end layer span, in µs.
pub fn front_end_layers(out: &mut Outcome, t: &Tracer) {
    let totals = t.totals();
    for (metric, span) in [
        ("statechart.parse_us", "statechart.parse"),
        ("action_lang.compile_us", "action_lang.compile"),
        ("compile.artifacts_us", "compile.artifacts"),
        ("tep.codegen_us", "tep.codegen"),
        ("timing.wcet_us", "timing.wcet"),
        ("timing.validate_us", "timing.validate"),
        ("diag.report_us", "diag.report"),
    ] {
        out.layer(metric, Tracer::self_ns_per(&totals, span) / 1e3);
    }
}

/// Trace overhead: mean traced op CPU time against the untraced one.
pub fn trace_overhead(out: &mut Outcome, traced_ms: &[f64]) {
    let plain = mean(&out.lat_ms);
    out.layer(
        "bench.trace_overhead_pct",
        (ratio(mean(traced_ms), plain) - 1.0) * 100.0,
    );
}

pub fn counter_delta(
    before: &pscp_core::obs::metrics::MetricsSnapshot,
    after: &pscp_core::obs::metrics::MetricsSnapshot,
    name: &str,
) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}
