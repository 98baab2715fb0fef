//! The design loop, measured in `cosim`'s traced run: one op takes a
//! multi-head controller as chart text plus action text through
//! `compile_sources` diagnostics and then `optimize` to convergence
//! (1 worker, memo off). One op in eight carries a seeded source error
//! and stops at the diagnostic report. The only place the front end
//! runs per op.
//!
//! It is not a workload of its own: on a host whose speed drifts with
//! other guests' load, its latency spread was two to four times that of
//! `cosim` and `explore` (see `STEADINESS.md`), too wide to bound.

use crate::common::{self, Outcome};
use crate::gen::{self, DesignInput, Rng};
use crate::trace::Tracer;
use pscp_core::arch::PscpArch;
use pscp_core::compile::{chart_env, compile_system_with, CompiledSystem, SystemArtifacts};
use pscp_core::diag::{
    compile_sources, diagnostic_for_system, Diagnostic, DiagnosticSink, Severity, Source,
};
use pscp_core::optimize::{optimize, MemoPersistence, OptimizationStep, OptimizeOptions};
use pscp_core::timing::TimingReport;
use pscp_tep::codegen::CodegenOptions;

/// Distinct controllers per run; ops cycle through them.
const INPUTS: usize = 32;
/// Ops in the measured batch: every controller twice.
const BATCH_OPS: usize = 2 * INPUTS;

/// What an op produces: the rendered diagnostic report, and for a clean
/// source the optimiser's history and final timing.
type Output = (String, Option<(Vec<OptimizationStep>, TimingReport)>);

fn options(incremental: bool) -> OptimizeOptions {
    OptimizeOptions {
        threads: Some(1),
        incremental,
        verify_incremental: false,
        memo: MemoPersistence::Disabled,
        ..OptimizeOptions::default()
    }
}

/// Each finding rendered against the text it points into.
fn render(diags: &[Diagnostic], input: &DesignInput) -> String {
    let mut out = String::new();
    for d in diags {
        let source = if d.source == Source::Chart {
            &input.chart
        } else {
            &input.actions
        };
        out.push_str(&d.render_with_source(source));
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    out.push_str(&format!(
        "{errors} error(s), {} warning(s)\n",
        diags.len() - errors
    ));
    out
}

/// The op as a user runs it: `compile_sources`, then (sources clean)
/// the action IR the optimiser takes and the optimisation loop.
fn op(input: &DesignInput, incremental: bool) -> Output {
    let start = PscpArch::minimal();
    let mut sink = DiagnosticSink::new();
    let sys = compile_sources(
        &input.chart,
        &input.actions,
        &start,
        &CodegenOptions::default(),
        &mut sink,
    );
    let report = render(&sink.finish(), input);
    let result = sys.map(|sys| {
        let ir = pscp_action_lang::compile_with_env(&input.actions, &chart_env(&sys.chart))
            .expect("actions that passed compile_sources compile");
        let r = optimize(&sys.chart, &ir, &start, &options(incremental)).expect("optimize runs");
        (r.history, r.timing)
    });
    (report, result)
}

/// The same op through the layer calls `compile_sources` composes, one
/// span each, followed by the WCET and validation layers as probes on
/// the starting system (outside the op span).
fn traced_op(t: &mut Tracer, input: &DesignInput) -> (Output, f64) {
    let start = PscpArch::minimal();
    let op = t.enter("design.op");
    let mut sink = DiagnosticSink::new();
    let chart = t.span("statechart.parse", || {
        pscp_statechart::parse::parse_chart_diag(&input.chart, &mut sink)
    });
    let mut compiled = None;
    match chart {
        None => t.span("action_lang.compile", || {
            pscp_action_lang::syntax_check_diag(&input.actions, &mut sink)
        }),
        Some(chart) => {
            let ir = t.span("action_lang.compile", || {
                pscp_action_lang::compile_diag(&input.actions, &chart_env(&chart), &mut sink)
            });
            if let Some(ir) = ir {
                let artifacts = t.span("compile.artifacts", || {
                    SystemArtifacts::build(&chart, start.encoding)
                });
                let sys = t.span("tep.codegen", || {
                    compile_system_with(&artifacts, &ir, &start, &CodegenOptions::default(), None)
                });
                match sys {
                    Ok(sys) => {
                        storage_budget(&sys, &mut sink);
                        compiled = Some(sys);
                    }
                    Err(e) => sink.push(diagnostic_for_system(&e)),
                }
            }
        }
    }
    if sink.error_count() > 0 {
        compiled = None;
    }
    let report = t.span("diag.report", || render(&sink.finish(), input));
    let result = compiled.as_ref().map(|sys| {
        let ir = t.span("action_lang.compile", || {
            pscp_action_lang::compile_with_env(&input.actions, &chart_env(&sys.chart))
                .expect("actions that passed the front end compile")
        });
        let r = t.span("optimize", || {
            optimize(&sys.chart, &ir, &start, &options(true)).expect("optimize runs")
        });
        (r.history, r.timing)
    });
    t.exit(op);
    if let Some(sys) = &compiled {
        common::timing_probe(t, sys);
    }
    ((report, result), t.dur_ms(op))
}

/// The TEP storage-budget check `compile_sources` runs after codegen.
fn storage_budget(sys: &CompiledSystem, sink: &mut DiagnosticSink) {
    let (program, tep) = (&sys.program, &sys.arch.tep);
    for (kind, used, provided) in [
        (
            "internal",
            program.internal_words_used,
            tep.internal_ram_words,
        ),
        (
            "external",
            program.external_words_used,
            tep.external_ram_words,
        ),
    ] {
        if used > provided {
            sink.push(Diagnostic::error(
                Source::System,
                "PS404",
                format!(
                    "TEP storage budget exceeded: {kind} RAM needs {used} words, architecture provides {provided}"
                ),
            ));
        }
    }
}

/// Runs the measured batch through the traced layer calls, checks
/// every op against the untraced `incremental: false` oracle, and
/// records the front-end, optimiser and `design.*` layer metrics. Ops
/// get tracer ids from `first_op` on.
pub fn measure(rng: &mut Rng, t: &mut Tracer, first_op: u64, out: &mut Outcome) {
    let inputs = gen::design_inputs(rng, INPUTS);
    // The oracle: full (non-incremental) revalidation of every candidate.
    let expected: Vec<Output> = inputs.iter().map(|i| op(i, false)).collect();
    let broken = inputs
        .iter()
        .filter(|i| i.mutation != gen::Mutation::None)
        .count();
    eprintln!("design: {INPUTS} controllers, {broken} with a seeded source error");
    for input in inputs.iter().take(4) {
        std::hint::black_box(op(input, true));
    }

    pscp_core::obs::set_flags(pscp_core::obs::METRICS);
    let before = pscp_core::obs::metrics::snapshot();
    let mut op_ms = Vec::new();
    for i in 0..BATCH_OPS {
        t.set_op(first_op + i as u64);
        let (got, ms) = traced_op(t, &inputs[i % INPUTS]);
        op_ms.push(ms);
        out.fail(got == expected[i % INPUTS]);
    }
    pscp_core::obs::set_flags(0);
    let after = pscp_core::obs::metrics::snapshot();
    let delta = |name| common::counter_delta(&before, &after, name);
    let totals = t.totals();
    let (runs, opt_ns, _) = totals.get("optimize").copied().unwrap_or_default();
    let hits = delta("compile_cache_hits");
    out.layer("design.op_ms_p50", common::median(&mut op_ms));
    out.layer(
        "optimize.candidates",
        common::ratio(delta("opt_candidates"), runs as f64),
    );
    out.layer(
        "optimize.compile_share",
        common::ratio(delta("opt_compile_ns"), opt_ns as f64),
    );
    out.layer(
        "optimize.validate_share",
        common::ratio(delta("opt_validate_ns"), opt_ns as f64),
    );
    out.layer(
        "tep.codegen_cache.hit_ratio",
        common::ratio(hits, hits + delta("compile_cache_misses")),
    );
}
