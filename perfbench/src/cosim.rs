//! `cosim`: one op is one seeded pick-and-place move of the pickup head
//! against the stepper plant, through `SimPool` (1 worker, default gang
//! width). The cycle layer runs in its TEP-bound use here: firing
//! cycles interleaved with plant events. The traced run ends with the
//! design loop's batch (`design.rs`).

use crate::common::{self, Outcome};
use crate::design;
use crate::gen::{self, Rng};
use crate::trace::Tracer;
use crate::Args;
use pscp_core::compile::CompiledSystem;
use pscp_core::machine::{CycleReport, Environment, PscpMachine};
use pscp_core::pool::{BatchOptions, BatchOutcome, SimPool};
use pscp_motors::head::{Move, SmdHead};
use std::sync::Mutex;
use std::time::Instant;

/// Distinct moves per run; ops cycle through them, so the scalar
/// oracle runs once per move rather than once per op. A move's host
/// time also depends on the allocations of the moves before it, so
/// more moves per cycle make the percentiles depend less on the
/// seed's order (one 40/40/20 move took 62 ms of CPU in one seed's
/// order of 16 moves and 71 ms in another's).
const MOVES: usize = 32;

const LIMITS: BatchOptions = BatchOptions {
    deadline: u64::MAX,
    max_steps: 4_000_000,
};

/// A move is over once every byte is streamed, every motor has stopped
/// and the controller is back in `Idle1`.
fn finished(m: &PscpMachine<'_>, head: &SmdHead, idle1: pscp_statechart::StateId) -> bool {
    head.pending_bytes() == 0 && head.all_idle() && m.executor().configuration().is_active(idle1)
}

/// FNV-style digest of everything a move's outcome observably holds.
fn digest<E>(o: &BatchOutcome<E>, head: &SmdHead) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    for r in &o.reports {
        put(r.fired.len() as u64);
        r.fired.iter().for_each(|t| put(t.index() as u64));
        r.transition_cycles.iter().for_each(|&c| put(c));
        r.assigned_tep.iter().for_each(|&t| put(u64::from(t)));
        put(r.cycle_length);
        r.raised
            .iter()
            .for_each(|e| put(e.index() as u64 | 1 << 40));
        put(r.interrupt_latency.map_or(u64::MAX, |l| l));
    }
    let s = &o.stats;
    [
        s.config_cycles,
        s.transitions,
        s.clock_cycles,
        s.max_cycle_length,
        o.clock_cycles,
    ]
    .into_iter()
    .chain(s.tep_busy.iter().copied())
    .for_each(&mut put);
    head.status_writes.iter().for_each(|&(v, c)| {
        put(v as u64);
        put(c);
    });
    for m in [&head.motor_x, &head.motor_y, &head.motor_phi, &head.motor_z] {
        put(m.position() as u64);
    }
    put(head.faults().len() as u64);
    put(head.stops);
    put(o.error.is_some() as u64);
    h
}

/// The move completed cleanly: one move reported, no missed pulse, no
/// motor fault, no TEP fault.
fn healthy<E>(o: &BatchOutcome<E>, head: &SmdHead) -> bool {
    o.error.is_none()
        && head.moves_done() == 1
        && head.missed_pulses() == 0
        && head.faults().is_empty()
}

/// `SmdHead` behind a stopwatch: host time spent in the plant model.
#[derive(Debug)]
struct Timed {
    head: SmdHead,
    ns: u64,
}

impl Timed {
    fn time<R>(&mut self, f: impl FnOnce(&mut SmdHead) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.head);
        self.ns += t0.elapsed().as_nanos() as u64;
        r
    }
}

impl Environment for Timed {
    fn sample_events(&mut self, now: u64) -> Vec<String> {
        self.time(|h| h.sample_events(now))
    }
    fn sample_conditions(&mut self, now: u64) -> Vec<(String, bool)> {
        self.time(|h| h.sample_conditions(now))
    }
    fn port_read(&mut self, address: u16, now: u64) -> i64 {
        self.time(|h| h.port_read(address, now))
    }
    fn port_write(&mut self, address: u16, value: i64, now: u64) {
        self.time(|h| h.port_write(address, value, now))
    }
}

/// Per-cycle host time, split by whether the cycle fired a transition.
#[derive(Debug)]
struct Steps {
    last: Instant,
    env_seen: u64,
    /// [idle, firing]: (cycles, step ns, env ns)
    by_kind: [(u64, u64, u64); 2],
}

struct Setup {
    sys: CompiledSystem,
    pool: SimPool,
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = Rng::new(args.seed);
    let moves = gen::moves(&mut rng, MOVES);
    let make = || Setup {
        sys: common::pickup_head_system(None),
        pool: SimPool::with_threads(1).with_gang(pscp_core::pool::gang_from(None)),
    };
    let (mut setup, Setup { sys, pool }) = common::SetupTimer::start(make);
    let idle1 = sys
        .chart
        .state_by_name("Idle1")
        .expect("pickup head has Idle1");
    let done = |m: &PscpMachine<'_>, head: &SmdHead, _: &CycleReport| finished(m, head, idle1);

    // The oracle: the gang-1 scalar path on the same move.
    let scalar = SimPool::with_threads(1).with_gang(1);
    let expected: Vec<Option<u64>> = moves
        .iter()
        .map(|m| {
            let o =
                one(scalar.run_batch_until(&sys, vec![SmdHead::with_moves(&[*m])], &LIMITS, done));
            healthy(&o, &o.env).then(|| digest(&o, &o.env))
        })
        .collect();

    common::reset_peak_rss();
    let mut out = Outcome::new(MOVES);
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain =
        |m: &Move| one(pool.run_batch_until(&sys, vec![SmdHead::with_moves(&[*m])], &LIMITS, done));
    for m in moves.iter().take(2) {
        std::hint::black_box(plain(m));
    }
    let mut sim_cycles = 0u64;
    let end = common::deadline(window);
    let mut i = 0;
    while Instant::now() < end {
        let c0 = common::cpu_s();
        let o = plain(&moves[i % MOVES]);
        out.serial(common::cpu_ms_since(c0));
        sim_cycles += o.clock_cycles;
        out.fail(healthy(&o, &o.env) && Some(digest(&o, &o.env)) == expected[i % MOVES]);
        i += 1;
        setup.tick(make);
    }
    out.setup_s = setup.median();
    if !args.trace {
        return out;
    }
    out.layer(
        "machine.sim_cycles_per_s",
        common::ratio(sim_cycles as f64, out.busy_s()),
    );
    let (mut t, ops) = traced(args, &mut out, &sys, &pool, &moves, &expected, idle1);
    design::measure(&mut rng, &mut t, ops + 1, &mut out);
    common::front_end_layers(&mut out, &t);
    crate::write_trace(args, &t);
    out
}

fn one<E>(mut v: Vec<BatchOutcome<E>>) -> BatchOutcome<E> {
    v.pop().expect("one scenario in, one outcome out")
}

fn traced(
    args: &Args,
    out: &mut Outcome,
    sys: &CompiledSystem,
    pool: &SimPool,
    moves: &[Move],
    expected: &[Option<u64>],
    idle1: pscp_statechart::StateId,
) -> (Tracer, u64) {
    let mut t = Tracer::new();
    pscp_core::obs::set_flags(pscp_core::obs::METRICS);
    let before = pscp_core::obs::metrics::snapshot();
    let (mut clock, mut configs, mut fired) = (0u64, 0u64, 0u64);
    let mut traced_ms = Vec::new();
    let end = common::deadline(args.seconds / 2.0);
    let mut i = 0;
    while Instant::now() < end {
        t.set_op(i as u64 + 1);
        let c0 = common::cpu_s();
        let op = t.enter("cosim.op");
        let p = t.enter("pool.run_batch_until");
        let started = Instant::now();
        let steps = Mutex::new(Steps {
            last: started,
            env_seen: 0,
            by_kind: [(0, 0, 0); 2],
        });
        let o = one(pool.run_batch_until(
            sys,
            vec![Timed {
                head: SmdHead::with_moves(&[moves[i % MOVES]]),
                ns: 0,
            }],
            &LIMITS,
            |m, env: &Timed, r| {
                let now = Instant::now();
                let mut s = steps.lock().expect("step ledger");
                let (step_ns, env_ns) = ((now - s.last).as_nanos() as u64, env.ns - s.env_seen);
                let kind = &mut s.by_kind[usize::from(!r.fired.is_empty())];
                kind.0 += 1;
                kind.1 += step_ns;
                kind.2 += env_ns;
                s.env_seen = env.ns;
                s.last = now;
                finished(m, &env.head, idle1)
            },
        ));
        t.exit(p);
        t.exit(op);
        let s = steps.into_inner().expect("step ledger");
        for (kind, (n, step_ns, env_ns)) in ["machine.idle_step", "machine.firing_step"]
            .into_iter()
            .zip(s.by_kind)
        {
            let k = t.record(p, kind, started, n, step_ns);
            t.record(k, "motors.env", started, n, env_ns);
        }
        traced_ms.push(common::cpu_ms_since(c0));
        clock += o.clock_cycles;
        configs += o.stats.config_cycles;
        fired += o.stats.transitions;
        out.fail(healthy(&o, &o.env.head) && Some(digest(&o, &o.env.head)) == expected[i % MOVES]);
        i += 1;
    }
    pscp_core::obs::set_flags(0);
    let after = pscp_core::obs::metrics::snapshot();
    let instr: u64 = after.tep_instr.iter().map(|(_, n)| n).sum::<u64>()
        - before.tep_instr.iter().map(|(_, n)| n).sum::<u64>();

    let totals = t.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (idle_n, _, idle_self) = get("machine.idle_step");
    let (fire_n, _, fire_self) = get("machine.firing_step");
    let (env_n, _, env_self) = get("motors.env");
    let (pool_n, _, pool_self) = get("pool.run_batch_until");
    let steps = (idle_n + fire_n) as f64;
    out.layer(
        "machine.step_ns",
        common::ratio((idle_self + fire_self) as f64, steps),
    );
    out.layer(
        "machine.idle_step_ns",
        common::ratio(idle_self as f64, idle_n as f64),
    );
    out.layer(
        "machine.firing_step_ns",
        common::ratio(fire_self as f64, fire_n as f64),
    );
    out.layer("machine.firing_ratio", common::ratio(fire_n as f64, steps));
    out.layer(
        "machine.clock_per_config",
        common::ratio(clock as f64, configs as f64),
    );
    out.layer(
        "tep.instr_per_firing",
        common::ratio(instr as f64, fired as f64),
    );
    out.layer(
        "motors.env_ns",
        common::ratio(env_self as f64, env_n as f64),
    );
    out.layer(
        "pool.dispatch_ms",
        common::ratio(pool_self as f64, pool_n as f64) / 1e6,
    );
    common::trace_overhead(out, &traced_ms);
    (t, i as u64)
}
