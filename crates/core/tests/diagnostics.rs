//! The one-report-per-compile contract, end to end.
//!
//! A fixture chart/action pair with errors seeded across every phase —
//! chart syntax, chart structure, action parse, action sema — must
//! surface *all* of them, with spans where the phase has positions, in
//! a single `compile_sources` call. Binding (`PS401`/`PS403`) and TEP
//! budget (`PS404`) findings join the same report when the frontends
//! succeed. And a live server's `Compile` → `Diagnostics` round-trip
//! must be byte-identical to the in-process report.

use pscp_core::arch::PscpArch;
use pscp_core::compile::{compile_system, CompiledSystem};
use pscp_core::diag::{compile_sources, CodegenOptions, DiagnosticSink, Severity, Source};
use pscp_core::serve::{self, wire::encode_diagnostics, ScenarioClient, ServeOptions};
use pscp_statechart::{ChartBuilder, StateKind};
use std::sync::Arc;

/// Six seeded errors: three chart syntax (`SC101`), an unknown default
/// state (`SC201`), an unresolvable label atom (`SC213`), and an
/// action parse error (`AL201`). Action *sema* is deliberately skipped
/// when the chart fails (it needs the chart's event/condition/port
/// environment, and would only add spurious unknown-name findings) —
/// the sema phase is covered by `action_phases_accumulate_together`.
const BROKEN_CHART: &str = "\
event TICK period 100;
condition OVER;
orstate Root { contains Off, On; default Elsewhere; }
basicstate Off { transition { target On label \"TICK\"; } }
basicstate On {
    transition { target Off; label \"BOOM\"; }
}
orstate Half { contains ; }
";

const BROKEN_ACTIONS: &str = "\
int:16 total;
void Bump() { total = total + mystery; }
void Broke() { total = 1 }
";

fn fixture_report() -> Vec<pscp_diag::Diagnostic> {
    let mut sink = DiagnosticSink::new();
    let compiled = compile_sources(
        BROKEN_CHART,
        BROKEN_ACTIONS,
        &PscpArch::dual_md16(true),
        &CodegenOptions::default(),
        &mut sink,
    );
    assert!(compiled.is_none(), "seeded-error fixture must not compile");
    sink.finish()
}

#[test]
fn fixture_reports_every_phase_in_one_compile() {
    let report = fixture_report();
    let errors: Vec<_> =
        report.iter().filter(|d| d.severity == Severity::Error).collect();
    assert!(
        errors.len() >= 5,
        "expected at least 5 seeded errors, got {}:\n{}",
        errors.len(),
        report.iter().map(|d| d.render()).collect::<Vec<_>>().join("\n")
    );

    // Every phase is represented.
    let codes: Vec<&str> = errors.iter().map(|d| d.code.as_str()).collect();
    assert!(codes.contains(&"SC101"), "chart syntax error missing: {codes:?}");
    assert!(codes.contains(&"SC201"), "unknown-default error missing: {codes:?}");
    assert!(codes.contains(&"SC213"), "unresolved-atom error missing: {codes:?}");
    assert!(codes.contains(&"AL201"), "action parse error missing: {codes:?}");

    // Both source texts are represented in one report.
    assert!(errors.iter().any(|d| d.source == Source::Chart));
    assert!(errors.iter().any(|d| d.source == Source::Action));

    // Positioned phases carry real spans.
    for d in &report {
        if d.code == "SC101" || d.code.starts_with("AL") {
            assert!(
                d.span.is_known(),
                "{} diagnostic lost its span: {}",
                d.code,
                d.render()
            );
        }
    }
}

#[test]
fn fixture_report_is_deterministic_and_canonically_sorted() {
    let a = fixture_report();
    let b = fixture_report();
    assert_eq!(a, b, "same sources must yield the same report");
    let mut resorted = a.clone();
    pscp_diag::sort_dedup(&mut resorted);
    assert_eq!(a, resorted, "finish() output must already be canonical");
}

/// A valid chart whose labels call routines the action source gets
/// wrong: `Frob` undefined (`PS401`) and `Note` called with two args
/// against a one-parameter definition (`PS403`).
const BIND_CHART: &str = "\
event TICK period 100;
orstate Root { contains A, B; default A; }
basicstate A { transition { target B; label \"TICK/Frob(1)\"; } }
basicstate B { transition { target A; label \"TICK/Note(1, 2)\"; } }
";

const BIND_ACTIONS: &str = "\
int:16 seen;
void Note(int:16 k) { seen = seen + k; }
";

/// `BIND_CHART`'s labels, satisfied: `Frob` defined, `Note` matching
/// the two-argument call site.
const GOOD_ACTIONS: &str = "\
int:16 seen;
void Frob(int:16 k) { seen = k; }
void Note(int:16 a, int:16 b) { seen = seen + a + b; }
";

#[test]
fn action_phases_accumulate_together() {
    // A healthy chart, so the action text gets the full pipeline:
    // `Broke` has a parse error (AL201) and `Bump` references an
    // undeclared name (AL301) — both land in one report.
    let mut sink = DiagnosticSink::new();
    let compiled = compile_sources(
        "event TICK period 100;\n\
         orstate Root { contains A, B; default A; }\n\
         basicstate A { transition { target B; label \"TICK/Bump()\"; } }\n\
         basicstate B { transition { target A; label \"TICK\"; } }\n",
        BROKEN_ACTIONS,
        &PscpArch::dual_md16(true),
        &CodegenOptions::default(),
        &mut sink,
    );
    assert!(compiled.is_none());
    let report = sink.finish();
    let codes: Vec<&str> = report.iter().map(|d| d.code.as_str()).collect();
    assert!(codes.contains(&"AL201"), "action parse error missing: {codes:?}");
    assert!(codes.contains(&"AL301"), "action sema error missing: {codes:?}");
    assert!(report.iter().all(|d| d.span.is_known()), "{report:?}");
}

#[test]
fn binding_errors_join_the_same_report() {
    let mut sink = DiagnosticSink::new();
    let compiled = compile_sources(
        BIND_CHART,
        BIND_ACTIONS,
        &PscpArch::dual_md16(true),
        &CodegenOptions::default(),
        &mut sink,
    );
    assert!(compiled.is_none());
    let report = sink.finish();
    let codes: Vec<&str> = report.iter().map(|d| d.code.as_str()).collect();
    assert!(codes.contains(&"PS401"), "unknown routine missing: {codes:?}");
    assert!(codes.contains(&"PS403"), "arity mismatch missing: {codes:?}");
    assert!(report.iter().all(|d| d.code.starts_with("PS") == (d.source == Source::System)));
}

#[test]
fn good_sources_compile_with_an_empty_sink() {
    let mut sink = DiagnosticSink::new();
    let compiled = compile_sources(
        BIND_CHART,
        GOOD_ACTIONS,
        &PscpArch::dual_md16(true),
        &CodegenOptions::default(),
        &mut sink,
    );
    assert!(!sink.has_errors(), "{:?}", sink.emitted());
    assert!(compiled.is_some());
}

// ---------------------------------------------------------------------
// Wire round-trip: a server's Diagnostics reply is byte-identical to
// the in-process report, and a successful compile's fingerprint equals
// the in-process compile's.
// ---------------------------------------------------------------------

fn served_system() -> CompiledSystem {
    let mut b = ChartBuilder::new("tiny");
    b.event("TICK", Some(400));
    b.state("Top", StateKind::Or).contains(["A", "B"]).default_child("A");
    b.state("A", StateKind::Basic).transition("B", "TICK");
    b.state("B", StateKind::Basic).transition("A", "TICK");
    let chart = b.build().unwrap();
    compile_system(&chart, "", &PscpArch::dual_md16(true), &CodegenOptions::default()).unwrap()
}

#[test]
fn wire_diagnostics_are_byte_identical_to_in_process() {
    let system = Arc::new(served_system());
    let arch = system.arch.clone();
    let server = serve::spawn(Arc::clone(&system), "127.0.0.1:0", ServeOptions::default())
        .expect("loopback server");
    let mut client = ScenarioClient::connect(server.addr()).expect("client connects");

    // Broken sources: fingerprint 0, byte-identical list.
    let mut sink = DiagnosticSink::new();
    let local = compile_sources(
        BROKEN_CHART,
        BROKEN_ACTIONS,
        &arch,
        &CodegenOptions::default(),
        &mut sink,
    );
    assert!(local.is_none());
    let local_report = sink.finish();
    let (fp, wire_report) =
        client.compile(BROKEN_CHART, BROKEN_ACTIONS).expect("compile round-trip");
    assert_eq!(fp, 0, "failed compile has no fingerprint");
    assert_eq!(
        encode_diagnostics(&wire_report),
        encode_diagnostics(&local_report),
        "wire diagnostic bytes differ from the in-process report"
    );
    assert_eq!(wire_report, local_report);

    // Good sources: non-zero fingerprint matching the in-process
    // compile's.
    let mut sink = DiagnosticSink::new();
    let local = compile_sources(BIND_CHART, GOOD_ACTIONS, &arch, &CodegenOptions::default(), &mut sink)
        .expect("good sources compile in-process");
    let (fp, wire_report) = client.compile(BIND_CHART, GOOD_ACTIONS).expect("compile round-trip");
    assert_ne!(fp, 0);
    assert!(wire_report.iter().all(|d| d.severity != Severity::Error));
    assert_eq!(fp, serve::system_fingerprint(&local));

    server.stop().expect("clean shutdown");
}
