//! Gang simulation: up to 64 scenarios in SLA lock-step.
//!
//! A [`GangRig`] owns one scalar [`PscpMachine`] per scenario lane plus
//! a bit-sliced [`GangSim`] over the system's synthesised SLA. Each
//! gang cycle it samples every live lane's environment, packs the
//! lanes' CR bits into `u64` words (bit `l` = lane `l`), runs *one*
//! word-parallel network pass, and uses the resulting any-fire mask to
//! route each lane:
//!
//! * fire bit clear → the lane takes the machine's idle fast path
//!   ([`PscpMachine::idle_phase`]): no transition selection, no
//!   condition snapshot, no per-transition buffers. This is where the
//!   gang speedup comes from — the per-lane SLA cost collapses into
//!   `1/width` of a shared bitwise pass.
//! * fire bit set → the lane runs the full scalar execute phase
//!   ([`PscpMachine::execute_phase`]), TEP execution and all, then its
//!   state-word column is re-encoded from the executor.
//!
//! **Handoff invariant.** Every lane *is* a scalar machine; the gang
//! only decides which of two bit-identical cycle completions runs.
//! When a lane retires — script/limit reached, `done` predicate,
//! fault — its mask bit clears and the remaining lanes continue
//! unaffected; the retired lane's machine state equals a scalar run's
//! at the same cycle, so falling back to scalar stepping mid-scenario
//! is a no-op. Debug builds re-verify every idle verdict against
//! `select_transitions` (`Executor::step_idle`), and the differential
//! suites pin gang == scalar byte-for-byte.
//!
//! Word-column maintenance: event and condition lanes are rebuilt from
//! the lane's sampled/pending events and condition caches every cycle
//! (events live one cycle; conditions are cheap to re-read); the state
//! part is only re-encoded when a lane fires, because an idle cycle
//! cannot change the configuration. Retired lanes leave stale columns
//! behind — harmless, because bitwise lanes are independent and the
//! fire mask is ANDed with the live mask.

use crate::compile::CompiledSystem;
use crate::machine::{
    CycleReport, Environment, MachineError, NullEnvironment, PscpMachine, SemanticState,
};
use crate::pool::{BatchOptions, BatchOutcome, ExpandResult};
use pscp_statechart::EventId;
use pscp_sla::gang::{GangScratch, GangSim, GANG_WIDTH};

/// One exploration job: a captured state and the external events to
/// inject on its next cycle, both borrowed from the explorer.
pub(crate) type ExpandJob<'a> = (&'a SemanticState, &'a [EventId]);

/// A reusable gang of scalar machines with a shared bit-sliced SLA.
/// Build once per worker, feed it successive job chunks via
/// [`GangRig::run`].
pub(crate) struct GangRig<'s> {
    system: &'s CompiledSystem,
    sim: GangSim<'s>,
    machines: Vec<PscpMachine<'s>>,
    /// CR lane words: one `u64` per CR bit, bit `l` = lane `l`.
    words: Vec<u64>,
    scratch: GangScratch,
    /// Net-pass memo: the lane words of the previous cycle and the
    /// any-fire mask they produced. The network is a pure function of
    /// the words, so an unchanged word vector (the common case across
    /// idle stretches: event columns all zero, state columns untouched)
    /// reuses the previous mask for an O(cr_width) compare instead of
    /// an O(net) evaluation.
    prev_words: Vec<u64>,
    prev_any: Option<u64>,
}

impl<'s> GangRig<'s> {
    pub(crate) fn new(system: &'s CompiledSystem) -> Self {
        GangRig {
            system,
            sim: GangSim::new(&system.chart, &system.layout, &system.sla),
            machines: Vec::new(),
            words: Vec::new(),
            scratch: GangScratch::default(),
            prev_words: Vec::new(),
            prev_any: None,
        }
    }

    /// Runs up to [`GANG_WIDTH`] scenarios in lock-step, returning one
    /// outcome per job in job order — byte-identical to running each
    /// job through `pool::run_scenario` on a scalar machine.
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
        assert!(jobs.len() <= GANG_WIDTH, "at most {GANG_WIDTH} lanes per gang");
        let _span = pscp_obs::trace::span("gang.run");
        let n = jobs.len();
        while self.machines.len() < n {
            self.machines.push(PscpMachine::new(self.system));
        }
        let layout = &self.system.layout;
        let chart = &self.system.chart;
        let state_width = layout.state_width() as usize;

        let mut envs: Vec<E> = Vec::with_capacity(n);
        let mut limits: Vec<BatchOptions> = Vec::with_capacity(n);
        for (env, lim) in jobs {
            envs.push(env);
            limits.push(lim);
        }
        let mut reports: Vec<Vec<CycleReport>> = (0..n).map(|_| Vec::new()).collect();
        let mut errors: Vec<Option<MachineError>> = (0..n).map(|_| None).collect();
        let mut steps = vec![0u64; n];

        self.words.clear();
        self.words.resize(self.sim.cr_width(), 0);
        self.prev_any = None;

        // Reset every lane; lanes whose limits forbid even one step are
        // never live (matching the scalar loop's entry condition).
        let mut live: u64 = 0;
        for (l, lim) in limits.iter().enumerate() {
            self.machines[l].reset();
            if lim.deadline > 0 && lim.max_steps > 0 {
                live |= 1 << l;
                let bits = layout.encode(chart, self.machines[l].executor().configuration());
                write_column(&mut self.words[..state_width], &bits, l);
            }
        }

        let mut gang_cycle = 0u64;
        while live != 0 {
            let _cycle_span = pscp_obs::trace::span_sampled("gang.step", gang_cycle);
            gang_cycle += 1;

            // Sample every live lane, then rebuild the event and
            // condition lane words (the state part persists between
            // cycles and is only touched when a lane fires).
            for w in &mut self.words[state_width..] {
                *w = 0;
            }
            let mut mask = live;
            while mask != 0 {
                let l = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let lane_bit = 1u64 << l;
                let m = &mut self.machines[l];
                m.sample_phase(&mut envs[l]);
                for &e in m.sampled_events() {
                    self.words[layout.event_bit(e) as usize] |= lane_bit;
                }
                for e in m.executor().pending_events() {
                    self.words[layout.event_bit(e) as usize] |= lane_bit;
                }
                for c in chart.condition_ids() {
                    if m.executor().condition(c) {
                        self.words[layout.condition_bit(c) as usize] |= lane_bit;
                    }
                }
            }

            // One shared bit-sliced SLA pass for the whole gang —
            // skipped entirely when the lane words are unchanged from
            // the previous cycle (pure function, same output).
            let raw = match self.prev_any {
                Some(prev) if self.prev_words == self.words => prev,
                _ => {
                    let any = self.sim.any_fire_words(&self.words, &mut self.scratch);
                    self.prev_words.clear();
                    self.prev_words.extend_from_slice(&self.words);
                    self.prev_any = Some(any);
                    any
                }
            };
            let any = raw & live;

            let mut retired = 0u64;
            let mut mask = live;
            while mask != 0 {
                let l = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let lane_bit = 1u64 << l;
                let fired = any & lane_bit != 0;
                let result = if fired {
                    self.machines[l].execute_phase(&mut envs[l])
                } else {
                    Ok(self.machines[l].idle_phase())
                };
                match result {
                    Ok(report) => {
                        if fired {
                            let bits = layout
                                .encode(chart, self.machines[l].executor().configuration());
                            write_column(&mut self.words[..state_width], &bits, l);
                        }
                        let stop = done(&self.machines[l], &envs[l], &report);
                        reports[l].push(report);
                        if stop {
                            retired |= lane_bit;
                        } else {
                            steps[l] += 1;
                            if !(self.machines[l].now() < limits[l].deadline
                                && steps[l] < limits[l].max_steps)
                            {
                                retired |= lane_bit;
                            }
                        }
                    }
                    Err(e) => {
                        errors[l] = Some(e);
                        retired |= lane_bit;
                    }
                }
            }
            live &= !retired;
        }

        let mut out = Vec::with_capacity(n);
        for (l, (env, (reports, error))) in
            envs.into_iter().zip(reports.into_iter().zip(errors)).enumerate()
        {
            pscp_obs::metrics::POOL_SCENARIOS.add(worker, 1);
            pscp_obs::metrics::POOL_STEPS.add(worker, reports.len() as u64);
            out.push(BatchOutcome {
                reports,
                stats: self.machines[l].stats().clone(),
                clock_cycles: self.machines[l].now(),
                env,
                error,
            });
        }
        out
    }

    /// Expands up to [`GANG_WIDTH`] exploration jobs in one shared SLA
    /// pass: each job restores a captured [`SemanticState`] into its
    /// lane machine, injects the given external events, and runs
    /// exactly one configuration cycle against a
    /// [`NullEnvironment`]. Returns `(successor state, report)` per job
    /// in job order — byte-identical to a scalar
    /// [`PscpMachine::step_injected`] on the restored state, by the
    /// same any-enable ⟺ any-fire routing the scripted path uses.
    pub(crate) fn expand(
        &mut self,
        jobs: &[ExpandJob<'_>],
    ) -> Vec<ExpandResult> {
        assert!(jobs.len() <= GANG_WIDTH, "at most {GANG_WIDTH} lanes per gang");
        let n = jobs.len();
        while self.machines.len() < n {
            self.machines.push(PscpMachine::new(self.system));
        }
        let layout = &self.system.layout;
        let chart = &self.system.chart;
        let state_width = layout.state_width() as usize;

        self.words.clear();
        self.words.resize(self.sim.cr_width(), 0);

        // Restore + inject every lane, then build the lane words from
        // scratch (restored configurations invalidate any state columns
        // a previous call left behind).
        for (l, &(state, events)) in jobs.iter().enumerate() {
            let lane_bit = 1u64 << l;
            let m = &mut self.machines[l];
            m.restore(state);
            m.inject_phase(events);
            let bits = layout.encode(chart, m.executor().configuration());
            write_column(&mut self.words[..state_width], &bits, l);
            for &e in m.sampled_events() {
                self.words[layout.event_bit(e) as usize] |= lane_bit;
            }
            for e in m.executor().pending_events() {
                self.words[layout.event_bit(e) as usize] |= lane_bit;
            }
            for c in chart.condition_ids() {
                if m.executor().condition(c) {
                    self.words[layout.condition_bit(c) as usize] |= lane_bit;
                }
            }
        }

        // One bit-sliced SLA pass routes every lane; the memo is a pure
        // function of the words, so it stays valid across `run`/`expand`.
        let any = match self.prev_any {
            Some(prev) if self.prev_words == self.words => prev,
            _ => {
                let any = self.sim.any_fire_words(&self.words, &mut self.scratch);
                self.prev_words.clear();
                self.prev_words.extend_from_slice(&self.words);
                self.prev_any = Some(any);
                any
            }
        };

        let mut out = Vec::with_capacity(n);
        for l in 0..n {
            let m = &mut self.machines[l];
            let result = if any & (1u64 << l) != 0 {
                m.execute_phase(&mut NullEnvironment)
            } else {
                Ok(m.idle_phase())
            };
            out.push(result.map(|report| (m.capture(), report)));
        }
        out
    }
}

/// Writes one lane's bit column into the state-part lane words.
fn write_column(words: &mut [u64], bits: &[bool], lane: usize) {
    let lane_bit = 1u64 << lane;
    for (w, &b) in words.iter_mut().zip(bits) {
        if b {
            *w |= lane_bit;
        } else {
            *w &= !lane_bit;
        }
    }
}
