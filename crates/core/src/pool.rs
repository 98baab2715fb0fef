//! Batched multi-scenario co-simulation.
//!
//! The paper's co-simulation (Fig. 7) exercises one scenario at a time;
//! design-space exploration and regression sweeps want *many* — the
//! same controller driven by different command streams, fault
//! injections, or plant parameters. [`SimPool`] runs N independent
//! scenarios of one [`CompiledSystem`] across a worker pool, each
//! worker reusing a single [`PscpMachine`] via
//! [`PscpMachine::reset`](crate::machine::PscpMachine::reset) instead
//! of reconstructing it per scenario, and returns the per-scenario
//! [`CycleReport`] streams in submission order.
//!
//! Scenarios are fully independent (separate machine state, separate
//! environment), so the batch output is byte-identical for any worker
//! count — `PSCP_THREADS=1` and `PSCP_THREADS=16` produce the same
//! bytes, only wall-clock differs. The same worker-queue primitive
//! ([`run_workers`]) backs state expansion for
//! [`explore`](crate::explore::explore) and the parallel candidate
//! evaluation in [`optimize`](crate::optimize::optimize).
//!
//! On top of the thread pool, each worker's [`Engine`] packs up to
//! `PSCP_GANG` scenarios (default 64) into one bit-sliced gang
//! ([`crate::gang`]) whose SLA/CR plane evaluates word-parallel — also
//! byte-identical, for any gang width. `PSCP_GANG=1` keeps the scalar
//! loop verbatim as the differential oracle.

use crate::compile::CompiledSystem;
use crate::gang::{ExpandJob, GangRig};
use crate::machine::{
    CycleReport, Environment, MachineError, MachineStats, NullEnvironment, PscpMachine,
    SemanticState,
};
use pscp_sla::gang::GANG_WIDTH;
use std::sync::Mutex;

/// Parses a `PSCP_THREADS`-style value; `None`/unparsable/zero fall
/// back to the machine's available parallelism.
pub fn threads_from(var: Option<&str>) -> usize {
    match var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// The worker-pool width configured for this process: the
/// `PSCP_THREADS` environment variable when set to a positive integer,
/// otherwise the available hardware parallelism.
pub fn configured_threads() -> usize {
    threads_from(std::env::var("PSCP_THREADS").ok().as_deref())
}

/// Clamps a *default* worker count to the host's available parallelism
/// (never below 1). Explicit requests — a `PSCP_THREADS` value, an
/// API-level `threads` argument — pass through [`threads_from`] /
/// [`SimPool::with_threads`] unclamped; this helper is only for
/// defaults a caller picked without looking at the host, so e.g. a
/// 4-worker default on a 1-core box degrades to the pool's inline
/// sequential path instead of spawning threads that contend for one
/// core.
pub fn default_workers(requested: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    requested.clamp(1, hw)
}

/// Parses a `PSCP_GANG`-style value: the number of scenarios packed
/// into one bit-sliced gang per worker. Unset, empty, `auto`,
/// unparsable or zero select the full machine-word width
/// ([`GANG_WIDTH`]); explicit values clamp to `1..=64`. Width 1 is the
/// scalar path, kept verbatim as the differential oracle.
pub fn gang_from(var: Option<&str>) -> usize {
    match var.map(str::trim) {
        Some("") | Some("auto") | None => GANG_WIDTH,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n.min(GANG_WIDTH),
            _ => GANG_WIDTH,
        },
    }
}

/// The gang width configured for this process via `PSCP_GANG`
/// (default: the full 64-lane word).
pub fn configured_gang() -> usize {
    gang_from(std::env::var("PSCP_GANG").ok().as_deref())
}

/// Runs `f` over `jobs` on one scoped worker per entry of `states`
/// (at most one per job), pulling from a shared queue, and returns the
/// results in job order. Worker `w` owns `states[w]` for every job it
/// takes and passes `w` on to `f` as its metrics slot. With one worker
/// or at most one job nothing is spawned and the jobs run inline on
/// `states[0]`, so a one-worker pool is *exactly* the sequential loop.
/// `lane` names the workers' trace lanes.
pub(crate) fn run_workers<S, T, R, F>(lane: &str, states: &mut [S], jobs: Vec<T>, f: F) -> Vec<R>
where
    S: Send,
    T: Send,
    R: Send,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let threads = states.len().min(jobs.len());
    if threads <= 1 {
        return jobs.into_iter().map(|job| f(&mut states[0], 0, job)).collect();
    }
    let mut slots: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    std::thread::scope(|s| {
        let workers: Vec<_> = states[..threads]
            .iter_mut()
            .enumerate()
            .map(|(w, state)| {
                let (queue, f) = (&queue, &f);
                s.spawn(move || {
                    if pscp_obs::trace_enabled() {
                        pscp_obs::trace::set_thread_lane_indexed(lane, w);
                    }
                    // Lifetime span so every spawned worker shows up in
                    // the trace, even one the queue starved.
                    let worker_span = pscp_obs::trace::span("worker.run");
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().expect("job queue lock poisoned").next();
                        let Some((i, job)) = next else {
                            pscp_obs::metrics::POOL_IDLE_POLLS.add(w, 1);
                            break;
                        };
                        done.push((i, f(state, w, job)));
                    }
                    // Flush before the closure returns: the scope join
                    // can complete before this thread's TLS destructors
                    // run, so an exit-time flush may land after the
                    // caller exports.
                    drop(worker_span);
                    pscp_obs::trace::flush_current_thread();
                    done
                })
            })
            .collect();
        for worker in workers {
            let done = worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("worker filled every slot")).collect()
}

/// Run limits for one scenario of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Stop once the simulated clock reaches this many cycles.
    pub deadline: u64,
    /// Stop after this many configuration cycles.
    pub max_steps: u64,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { deadline: u64::MAX, max_steps: 1_000_000 }
    }
}

/// The outcome of one scenario: everything the simulation produced plus
/// the environment handed back so callers can read its recorded
/// outputs (port writes, fault logs, …).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome<E> {
    /// Per-configuration-cycle reports, in execution order.
    pub reports: Vec<CycleReport>,
    /// The machine statistics at scenario end.
    pub stats: MachineStats,
    /// Final simulated clock.
    pub clock_cycles: u64,
    /// The scenario's environment, returned by move.
    pub env: E,
    /// The fault that ended the scenario early, if any (the reports up
    /// to the fault are kept).
    pub error: Option<MachineError>,
}

/// A batch driver running independent scenarios of one compiled system
/// across a configurable worker pool.
#[derive(Debug, Clone)]
pub struct SimPool {
    threads: usize,
    gang: usize,
}

impl SimPool {
    /// A pool sized by `PSCP_THREADS` (default: available parallelism)
    /// with the `PSCP_GANG` gang width (default: 64).
    pub fn new() -> Self {
        SimPool { threads: configured_threads(), gang: configured_gang() }
    }

    /// A pool with an explicit worker count (minimum 1); gang width
    /// still comes from `PSCP_GANG`.
    pub fn with_threads(threads: usize) -> Self {
        SimPool { threads: threads.max(1), gang: configured_gang() }
    }

    /// Overrides the gang width: how many scenarios each worker packs
    /// into one bit-sliced gang (clamped to `1..=64`; 1 selects the
    /// scalar differential-oracle path).
    pub fn with_gang(mut self, width: usize) -> Self {
        self.gang = width.clamp(1, GANG_WIDTH);
        self
    }

    /// The worker count this pool dispatches on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The gang width this pool packs scenarios with.
    pub fn gang_width(&self) -> usize {
        self.gang
    }

    /// Runs every scenario to its [`BatchOptions`] limits. Results come
    /// back in submission order regardless of worker interleaving.
    pub fn run_batch<E>(
        &self,
        system: &CompiledSystem,
        envs: Vec<E>,
        limits: &BatchOptions,
    ) -> Vec<BatchOutcome<E>>
    where
        E: Environment + Send,
    {
        self.run_batch_until(system, envs, limits, |_, _, _| false)
    }

    /// Like [`SimPool::run_batch`], but also stops a scenario once
    /// `done` returns true for the cycle just executed (the final
    /// report is kept). `done` must be a pure function of its inputs
    /// for the batch to stay deterministic across worker counts.
    pub fn run_batch_until<E, F>(
        &self,
        system: &CompiledSystem,
        envs: Vec<E>,
        limits: &BatchOptions,
        done: F,
    ) -> Vec<BatchOutcome<E>>
    where
        E: Environment + Send,
        F: Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool + Sync,
    {
        // Shrink the gang width when the batch is too small to keep
        // every worker busy at the configured width: parallel workers
        // beat wide gangs until each worker has a full gang of its own.
        // Deterministic in (envs, threads), so outcomes stay pinned.
        // The engine stays the configured one, so a shrunk gang still
        // runs on a gang rig.
        let width = self.gang.min(envs.len().div_ceil(self.threads)).max(1);
        let mut envs = envs.into_iter().map(|env| (env, *limits)).peekable();
        let mut chunks: Vec<Vec<(E, BatchOptions)>> = Vec::new();
        while envs.peek().is_some() {
            chunks.push(envs.by_ref().take(width).collect());
        }
        let mut engines: Vec<Engine<'_>> =
            (0..self.threads.min(chunks.len())).map(|_| Engine::new(system, self.gang)).collect();
        run_workers("sim-worker", &mut engines, chunks, |engine, w, chunk| {
            engine.run(w, chunk, &done)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Expands state-exploration jobs — `(captured state, injected
    /// events)` pairs borrowed from the caller, each one configuration
    /// cycle — across the pool, returning `(successor, report)` per job
    /// in job order. Jobs are cut into fixed-width chunks of the gang
    /// width (independent of the worker count, so chunk composition is
    /// pinned by the job list alone) and each chunk runs on one
    /// [`Engine`]. Byte-identical for any worker count and gang width —
    /// each job is independent of its lane-mates, and the explore
    /// differential suite pins the whole grid.
    ///
    /// `engines` holds the per-worker engines across calls, so a
    /// multi-layer exploration builds its machines once; it grows to
    /// the worker count on demand.
    pub(crate) fn expand_states<'s>(
        &self,
        system: &'s CompiledSystem,
        jobs: &[ExpandJob<'_>],
        engines: &mut Vec<Engine<'s>>,
    ) -> Vec<ExpandResult> {
        let chunks: Vec<&[ExpandJob<'_>]> = jobs.chunks(self.gang).collect();
        while engines.len() < self.threads.min(chunks.len()).max(1) {
            engines.push(Engine::new(system, self.gang));
        }
        run_workers("sim-worker", engines, chunks, |engine, _, chunk| engine.expand(chunk))
            .into_iter()
            .flatten()
            .collect()
    }
}

/// One exploration job's outcome: the successor state and the cycle's
/// report, or the routine fault it hit.
pub(crate) type ExpandResult = Result<(SemanticState, CycleReport), MachineError>;

/// One worker's simulation machinery, reused across batches and
/// exploration layers. [`Engine::new`] is the one place that chooses
/// between the scalar machine and the bit-sliced gang.
pub(crate) enum Engine<'s> {
    /// One [`PscpMachine`], one scenario or job at a time — the
    /// differential oracle.
    Scalar(Box<PscpMachine<'s>>),
    /// Up to a gang width of scenarios or jobs per [`GangRig`] pass,
    /// sharing one bit-sliced SLA evaluation.
    Gang(Box<GangRig<'s>>),
}

impl<'s> Engine<'s> {
    /// The engine for a configured gang width: scalar at width 1, a
    /// gang rig otherwise.
    pub(crate) fn new(system: &'s CompiledSystem, gang: usize) -> Self {
        if gang <= 1 {
            Engine::Scalar(Box::new(PscpMachine::new(system)))
        } else {
            Engine::Gang(Box::new(GangRig::new(system)))
        }
    }

    /// Runs scenarios to their limits (see [`SimPool::run_batch_until`]),
    /// one outcome per job in job order; `worker` is the metrics slot.
    pub(crate) fn run<E, F>(
        &mut self,
        worker: usize,
        jobs: Vec<(E, BatchOptions)>,
        done: &F,
    ) -> Vec<BatchOutcome<E>>
    where
        E: Environment,
        F: Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool,
    {
        match self {
            Engine::Scalar(machine) => jobs
                .into_iter()
                .map(|(env, limits)| run_scenario(worker, machine, env, &limits, done))
                .collect(),
            Engine::Gang(rig) => rig.run(worker, jobs, done),
        }
    }

    /// Expands exploration jobs by one configuration cycle each (see
    /// [`SimPool::expand_states`]), one result per job in job order.
    pub(crate) fn expand(&mut self, jobs: &[ExpandJob<'_>]) -> Vec<ExpandResult> {
        match self {
            Engine::Scalar(machine) => jobs
                .iter()
                .map(|&(state, events)| {
                    machine.restore(state);
                    machine
                        .step_injected(events, &mut NullEnvironment)
                        .map(|report| (machine.capture(), report))
                })
                .collect(),
            Engine::Gang(rig) => rig.expand(jobs),
        }
    }
}

impl Default for SimPool {
    fn default() -> Self {
        SimPool::new()
    }
}

/// Runs one scenario on a (dirty) machine after resetting it — the
/// scalar [`Engine`]'s step loop, which the scenario server's shard
/// workers share with every in-process [`SimPool`] run.
fn run_scenario<E, F>(
    worker: usize,
    machine: &mut PscpMachine<'_>,
    mut env: E,
    limits: &BatchOptions,
    done: &F,
) -> BatchOutcome<E>
where
    E: Environment,
    F: Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool,
{
    // Scenario spans respect PSCP_OBS_SAMPLE: with a period of N each
    // worker thread records every Nth scenario it runs.
    thread_local! {
        static SCENARIO_SEQ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    let seq = SCENARIO_SEQ.with(|c| {
        let v = c.get();
        c.set(v.wrapping_add(1));
        v
    });
    let _span = pscp_obs::trace::span_sampled("scenario", seq);
    machine.reset();
    let mut reports = Vec::new();
    let mut error = None;
    let mut steps = 0u64;
    while machine.now() < limits.deadline && steps < limits.max_steps {
        match machine.step(&mut env) {
            Ok(report) => {
                let stop = done(machine, &env, &report);
                reports.push(report);
                if stop {
                    break;
                }
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        steps += 1;
    }
    pscp_obs::metrics::POOL_SCENARIOS.add(worker, 1);
    pscp_obs::metrics::POOL_STEPS.add(worker, reports.len() as u64);
    BatchOutcome {
        reports,
        stats: machine.stats().clone(),
        clock_cycles: machine.now(),
        env,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PscpArch;
    use crate::compile::compile_system;
    use crate::machine::ScriptedEnvironment;
    use pscp_statechart::{Chart, ChartBuilder, StateKind};
    use pscp_tep::codegen::CodegenOptions;

    fn counter_chart() -> Chart {
        let mut b = ChartBuilder::new("counter");
        b.event("TICK", Some(400));
        b.condition("OVER", false);
        b.state("Top", StateKind::Or).contains(["Run", "Stop"]).default_child("Run");
        b.state("Run", StateKind::Basic)
            .transition("Run", "TICK [not OVER]/Bump(5)")
            .transition("Stop", "TICK [OVER]");
        b.basic("Stop");
        b.build().unwrap()
    }

    const COUNTER_ACTIONS: &str = r#"
        int:16 total;
        void Bump(int:16 n) {
            total = total + n;
            OVER = total >= 20;
        }
    "#;

    fn system() -> crate::compile::CompiledSystem {
        compile_system(
            &counter_chart(),
            COUNTER_ACTIONS,
            &PscpArch::dual_md16(true),
            &CodegenOptions::default(),
        )
        .unwrap()
    }

    fn scenarios(n: usize) -> Vec<ScriptedEnvironment> {
        (0..n)
            .map(|i| {
                // Scenario i ticks on a different sparse cadence.
                let script: Vec<Vec<&str>> = (0..12)
                    .map(|k| if k % (1 + i % 3) == 0 { vec!["TICK"] } else { vec![] })
                    .collect();
                ScriptedEnvironment::new(script)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_reference() {
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 12 };
        // Reference: a fresh machine per scenario, no pool.
        let reference: Vec<_> = scenarios(7)
            .into_iter()
            .map(|mut env| {
                let mut m = PscpMachine::new(&sys);
                let mut reports = Vec::new();
                for _ in 0..12 {
                    reports.push(m.step(&mut env).unwrap());
                }
                (reports, m.stats().clone(), m.now())
            })
            .collect();
        for threads in [1, 2, 4] {
            let got =
                SimPool::with_threads(threads).run_batch(&sys, scenarios(7), &limits);
            assert_eq!(got.len(), reference.len());
            for (out, (reports, stats, clock)) in got.iter().zip(&reference) {
                assert_eq!(&out.reports, reports, "threads={threads}");
                assert_eq!(&out.stats, stats, "threads={threads}");
                assert_eq!(&out.clock_cycles, clock, "threads={threads}");
                assert!(out.error.is_none());
            }
        }
    }

    #[test]
    fn done_predicate_stops_scenarios() {
        let sys = system();
        let stop_state = sys.chart.state_by_name("Stop").unwrap();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 1_000 };
        let envs: Vec<_> =
            (0..4).map(|_| ScriptedEnvironment::new(vec![vec!["TICK"]; 1_000])).collect();
        let out = SimPool::with_threads(2).run_batch_until(
            &sys,
            envs,
            &limits,
            |m, _, _| m.executor().configuration().is_active(stop_state),
        );
        for o in &out {
            // 4 bumps of 5 reach 20, the 5th tick sees OVER and stops.
            assert_eq!(o.reports.len(), 5);
            assert_eq!(o.stats.transitions, 5);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let sys = system();
        let out = SimPool::with_threads(4)
            .run_batch::<ScriptedEnvironment>(&sys, Vec::new(), &BatchOptions::default());
        assert!(out.is_empty());
    }

    #[test]
    fn empty_batch_with_predicate_is_empty() {
        // Regression pin: the `run_batch_until` early return must fire
        // before any machine is constructed or the predicate consulted.
        let sys = system();
        let out = SimPool::with_threads(4).run_batch_until::<ScriptedEnvironment, _>(
            &sys,
            Vec::new(),
            &BatchOptions::default(),
            |_, _, _| panic!("predicate must not run on an empty batch"),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn predicate_stopping_at_step_zero_keeps_one_report() {
        // Regression pin for the `slots` reassembly path: a predicate
        // that is true for the very first cycle must leave exactly one
        // report per scenario, identically across worker counts —
        // including pools wider than the batch.
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 1_000 };
        let mk = || scenarios(5);
        let reference = SimPool::with_threads(1).run_batch_until(
            &sys,
            mk(),
            &limits,
            |_, _, _| true,
        );
        assert_eq!(reference.len(), 5);
        for o in &reference {
            assert_eq!(o.reports.len(), 1, "stop at step 0 keeps the first report");
            assert_eq!(o.stats.config_cycles, 1);
            assert_eq!(o.clock_cycles, o.reports[0].cycle_length);
        }
        for threads in [2, 4, 8] {
            let got = SimPool::with_threads(threads).run_batch_until(
                &sys,
                mk(),
                &limits,
                |_, _, _| true,
            );
            assert_eq!(got.len(), reference.len(), "threads={threads}");
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.reports, b.reports, "threads={threads}");
                assert_eq!(a.stats, b.stats, "threads={threads}");
                assert_eq!(a.clock_cycles, b.clock_cycles, "threads={threads}");
            }
        }
    }

    #[test]
    fn zero_step_limit_yields_empty_reports() {
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 0 };
        for threads in [1, 4] {
            let out = SimPool::with_threads(threads).run_batch(&sys, scenarios(3), &limits);
            assert_eq!(out.len(), 3, "threads={threads}");
            for o in &out {
                assert!(o.reports.is_empty());
                assert_eq!(o.clock_cycles, 0);
                assert_eq!(o.stats.config_cycles, 0);
                assert!(o.error.is_none());
            }
        }
    }

    #[test]
    fn scenarios_with_empty_scripts_idle_to_the_limit() {
        // An empty script is a valid scenario: the machine idles for
        // `max_steps` cycles. Byte-identical across worker counts.
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 4 };
        let envs = || -> Vec<ScriptedEnvironment> {
            (0..3).map(|_| ScriptedEnvironment::new(Vec::<Vec<&str>>::new())).collect()
        };
        let reference = SimPool::with_threads(1).run_batch(&sys, envs(), &limits);
        for o in &reference {
            assert_eq!(o.reports.len(), 4);
            assert!(o.reports.iter().all(|r| r.fired.is_empty()));
        }
        let got = SimPool::with_threads(2).run_batch(&sys, envs(), &limits);
        for (a, b) in got.iter().zip(&reference) {
            assert_eq!(a.reports, b.reports);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn threads_from_parses_env_shapes() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 8 ")), 8);
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(threads_from(Some("0")), fallback);
        assert_eq!(threads_from(Some("lots")), fallback);
        assert_eq!(threads_from(None), fallback);
    }

    #[test]
    fn default_workers_clamps_to_host_parallelism() {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(default_workers(0), 1);
        assert_eq!(default_workers(1), 1);
        assert_eq!(default_workers(hw), hw);
        assert_eq!(default_workers(hw + 7), hw, "defaults never exceed the host");
        // Explicit values keep passing through unclamped.
        assert_eq!(threads_from(Some("64")), 64);
    }

    #[test]
    fn gang_from_parses_env_shapes() {
        assert_eq!(gang_from(None), GANG_WIDTH);
        assert_eq!(gang_from(Some("")), GANG_WIDTH);
        assert_eq!(gang_from(Some("auto")), GANG_WIDTH);
        assert_eq!(gang_from(Some(" auto ")), GANG_WIDTH);
        assert_eq!(gang_from(Some("0")), GANG_WIDTH);
        assert_eq!(gang_from(Some("bogus")), GANG_WIDTH);
        assert_eq!(gang_from(Some("1")), 1);
        assert_eq!(gang_from(Some("8")), 8);
        assert_eq!(gang_from(Some(" 63 ")), 63);
        assert_eq!(gang_from(Some("64")), 64);
        assert_eq!(gang_from(Some("1000")), GANG_WIDTH, "clamped to the word width");
    }

    #[test]
    fn gang_widths_match_scalar_oracle() {
        // The scalar path (width 1) is the oracle; every other width
        // and thread count must reproduce it byte-for-byte.
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 12 };
        let reference = SimPool::with_threads(1).with_gang(1).run_batch(&sys, scenarios(7), &limits);
        for gang in [2, 8, 64] {
            for threads in [1, 4] {
                let got = SimPool::with_threads(threads)
                    .with_gang(gang)
                    .run_batch(&sys, scenarios(7), &limits);
                assert_eq!(got.len(), reference.len());
                for (a, b) in got.iter().zip(&reference) {
                    assert_eq!(a.reports, b.reports, "gang={gang} threads={threads}");
                    assert_eq!(a.stats, b.stats, "gang={gang} threads={threads}");
                    assert_eq!(a.clock_cycles, b.clock_cycles, "gang={gang} threads={threads}");
                    assert!(a.error.is_none());
                }
            }
        }
    }

    #[test]
    fn run_workers_preserves_order_and_owns_states() {
        for n_jobs in [37, 2] {
            let jobs: Vec<usize> = (0..n_jobs).collect();
            for threads in [1, 3, 8] {
                // Each state counts the jobs its worker ran.
                let mut states = vec![0usize; threads];
                let out = run_workers("worker", &mut states, jobs.clone(), |n, w, j| {
                    *n += 1;
                    assert!(w < threads.min(n_jobs), "worker index within the pool");
                    j * 10
                });
                let ctx = format!("threads={threads} jobs={n_jobs}");
                assert_eq!(out, jobs.iter().map(|j| j * 10).collect::<Vec<_>>(), "{ctx}");
                assert_eq!(states.iter().sum::<usize>(), n_jobs, "{ctx}");
                let used = threads.min(n_jobs);
                assert!(states[used..].iter().all(|&n| n == 0), "{ctx}: idle state touched");
            }
        }
    }
}
