#!/usr/bin/env bash
# Tier-1 gate: what CI runs on every PR. Build + facade tests, then the
# full workspace suite, then clippy (warnings are errors) on every
# workspace crate and target.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The benchmark is a workspace of its own, so nothing above compiles
# it; a change to an API it imports must fail here, not in the bench.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# The scenario-server differential suite is the serving layer's spec:
# wire round-trips must be byte-identical to the in-process SimPool.
cargo test --release -p pscp-core --test serve_differential -q
cargo test --release -p pscp-core --test serve_wire -q
cargo test --release -p pscp-core --test serve_backpressure -q

# The gang differential suite is the bit-sliced path's spec: gang
# batches must be byte-identical to the scalar oracle at every width ×
# worker combination, including mid-scenario lane retirement.
cargo test --release -p pscp-core --test gang_differential -q

# The explore differential suite is the reachability engine's spec:
# reports must be byte-identical across worker counts × gang widths
# against the scalar oracle, every witness must replay to its claimed
# state key, and the exhaustive state count must match a brute-force
# enumeration.
cargo test --release -p pscp-core --test explore_differential -q

# The incremental-compilation differential suite is the codegen cache's
# spec: delta compiles must be byte-identical to full compiles across
# random charts x random arch/placement perturbations, and a poisoned
# cache entry must be detected, never served.
cargo test --release -p pscp-core --test compile_incremental -q

# The diagnostics suites are the recovering frontends' spec: every
# phase's findings land in one report, the legacy fail-fast adapters
# return exactly the first accumulated diagnostic, mutilated sources
# never panic, and a server's Diagnostics reply is byte-identical to
# the in-process report.
cargo test --release -p pscp-statechart --test diagnostics -q
cargo test --release -p pscp-action-lang --test diagnostics -q
cargo test --release -p pscp-core --test diagnostics -q

# Perf smoke: the bench binary must run and report the PR-3..PR-10
# workloads. This asserts presence, not thresholds — speedups depend on
# the host.
cargo run --release -p pscp-bench --bin bench-smoke > /dev/null
test -f BENCH_10.json
grep -q '"dse_explore_incremental"' BENCH_10.json
grep -q '"dse_explore_full"' BENCH_10.json
grep -q '"compile_cache"' BENCH_10.json
grep -q '"hit_rate"' BENCH_10.json
grep -q '"results_identical": true' BENCH_10.json
grep -q '"memo_store"' BENCH_10.json
grep -q '"compile_diagnostics"' BENCH_10.json
grep -q '"happy_failfast_us"' BENCH_10.json
grep -q '"happy_sink_us"' BENCH_10.json
grep -q '"error_report_us"' BENCH_10.json
grep -q '"report_deterministic": true' BENCH_10.json
grep -q '"batch_cosim"' BENCH_10.json
grep -q '"gang_cosim"' BENCH_10.json
grep -q '"speedup_w64"' BENCH_10.json
grep -q '"serve_smoke"' BENCH_10.json
grep -q '"latency_speedup_vs_bench5"' BENCH_10.json
grep -q '"outputs_identical": true' BENCH_10.json
grep -q '"stats_scrape"' BENCH_10.json
grep -q '"scrape_overhead_pct"' BENCH_10.json
grep -q '"obs_overhead_pct"' BENCH_10.json
grep -q '"trace_overhead_pct"' BENCH_10.json
grep -q '"trace_sampled_overhead_pct"' BENCH_10.json
grep -q '"explore"' BENCH_10.json
grep -q '"states_per_sec_scalar"' BENCH_10.json
grep -q '"states_per_sec_wide"' BENCH_10.json
grep -q '"dedup_rate"' BENCH_10.json
grep -q '"truncated": false' BENCH_10.json
test -f BENCH_10_metrics.json
python3 -m json.tool BENCH_10_metrics.json > /dev/null

# Serving smoke: a loopback server + 4-client pickup-head session. The
# session now opens with a Compile → Diagnostics round-trip (wire
# report byte-identical to the in-process sink, then a scenario on the
# same connection); every outcome is differentially checked against the
# in-process pool, and the per-connection metrics snapshot must be
# valid JSON.
PSCP_OBS_DIR=target/obs \
    cargo run --release -p pscp-serve -- session --clients 4 > /dev/null
python3 -m json.tool target/obs/serve_metrics.json > /dev/null

# Exploration smoke: a loopback `pscp-serve explore` run must report
# the wire exploration byte-identical to the in-process one, replay
# every witness, and close the pickup head's state space without
# truncation.
cargo run --release -p pscp-serve -- explore --loopback --never-active MoveX \
    > target/tier1-explore.out
grep -q 'differential OK' target/tier1-explore.out
grep -q 'witness replay OK' target/tier1-explore.out
grep -q 'truncated=false' target/tier1-explore.out

# Telemetry smoke: a one-shot wire scrape against a self-contained
# loopback session must expose at least three Prometheus metric
# families — gauges, counters and histograms all travel the Stats
# frame.
cargo run --release -p pscp-serve -- stats --prom --loopback \
    > target/tier1-stats.prom
test "$(grep -c '^# TYPE pscp_' target/tier1-stats.prom)" -ge 3

# Diagnostics CLI smoke: `pscp-serve check` renders a seeded-error
# fixture with spans and exits 1; a clean chart reports OK and exits 0.
printf 'event TICK period 100;\norstate Root { contains A; default Zed; }\nbasicstate A {}\n' \
    > target/tier1-broken.chart
if cargo run --release -p pscp-serve -- check target/tier1-broken.chart > target/tier1-check.out 2>&1; then
    echo "tier1: check should have failed on the broken chart" >&2
    exit 1
fi
grep -q 'SC201' target/tier1-check.out
printf 'event TICK period 100;\norstate Root { contains A, B; default A; }\nbasicstate A { transition { target B; label "TICK"; } }\nbasicstate B { transition { target A; label "TICK"; } }\n' \
    > target/tier1-good.chart
cargo run --release -p pscp-serve -- check target/tier1-good.chart | grep -q 'OK (fingerprint'

# Observability smoke: one traced + waveform-dumped pickup-head run.
# The trace must be valid Chrome trace_event JSON, the VCD and metrics
# snapshot non-empty, and the report tool must render the snapshot.
PSCP_OBS=metrics,trace,vcd PSCP_OBS_DIR=target/obs \
    cargo run --release -p pscp-bench --bin obs_pickup_head > /dev/null
python3 -m json.tool target/obs/trace.json > /dev/null
test -s target/obs/pickup_head.vcd
test -s target/obs/metrics.json
scripts/obs-report.sh target/obs/metrics.json > /dev/null

echo "tier1: OK"
