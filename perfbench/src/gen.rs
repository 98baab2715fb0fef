//! Seeded input generators. Every input the program sees is made here
//! from the `--seed` argument; the same seed gives the same inputs.
//!
//! Mixes that shape the per-op cost (script length, controller size,
//! the share of broken sources) are drawn as *balanced blocks*: every
//! block holds each class equally often, shuffled by the seed. Two
//! seeds then differ in which inputs they draw, never in how much work
//! the mix asks for, which keeps run-to-run medians comparable.

use pscp_core::explore::Predicate;
use pscp_motors::head::Move;
use pscp_statechart::model::PortDirection::{Input, Output};
use pscp_statechart::{Chart, ChartBuilder, StateKind};

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5053_4350_4245_4e43)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `n` class labels in `0..classes`, each class equally often in
    /// every consecutive block of `classes` labels.
    pub fn balanced(&mut self, n: usize, classes: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut block: Vec<usize> = (0..classes).collect();
            self.shuffle(&mut block);
            out.extend(block);
        }
        out.truncate(n);
        out
    }
}

// --- cosim: pick-and-place moves ----------------------------------------------

/// `n` values in `lo..=hi`, one from each of `n` equal strata, in a
/// seeded order.
fn strata(rng: &mut Rng, n: usize, lo: u64, hi: u64, order: &[usize]) -> Vec<u64> {
    let span = hi - lo + 1;
    order
        .iter()
        .map(|&k| lo + (k as u64 * span + rng.range(0, span - 1)) / n as u64)
        .collect()
}

/// `n` pick-and-place targets, each from the head's home position.
///
/// A move's host time is not linear in its length: the per-cycle report
/// vector doubles its capacity at 2^17 and 2^18 configuration cycles,
/// and a move that crosses a doubling pays for the copy. So the moves
/// come in two bands placed between those thresholds, not across them:
/// three in four are short (X/Y 21–32 steps, φ 10–16: 140k–250k
/// cycles) and one in four is long (X/Y 40–46 steps, φ 20–23: past
/// 2^18 cycles, paying the doubling). Within a band the targets are a
/// stratified sample, one per size stratum, in a seeded order: every
/// run covers the same range of lengths, and seeds differ in the exact
/// targets, not in the work mix.
pub fn moves(rng: &mut Rng, n: usize) -> Vec<Move> {
    let long = n / 4;
    let mut out = Vec::with_capacity(n);
    for (count, lo, hi, phi_lo, phi_hi) in [(n - long, 21, 32, 10, 16), (long, 40, 46, 20, 23)] {
        let order = rng.balanced(count, count);
        let x = strata(rng, count, lo, hi, &order);
        let y = strata(rng, count, lo, hi, &order);
        let phi = strata(rng, count, phi_lo, phi_hi, &order);
        out.extend((0..count).map(|k| Move {
            x: x[k] as u16,
            y: y[k] as u16,
            phi: phi[k] as u16,
        }));
    }
    rng.shuffle(&mut out);
    out
}

// --- explore, traced: sparse scenario scripts for the served pickup head -------

/// Short and long scenarios alternate in balanced blocks: the short
/// ones are dominated by the wire, the long ones by simulation.
const SCRIPT_LENGTHS: [usize; 2] = [16, 256];

/// Sparse scenario scripts over the chart's external events: each
/// cycle carries one event with probability 1/32, so gang lanes idle
/// most cycles and fire out of phase.
pub fn scenario_scripts(rng: &mut Rng, chart: &Chart, n: usize) -> Vec<Vec<Vec<String>>> {
    let events: Vec<String> = chart
        .event_ids()
        .filter(|&e| !chart.event(e).internal)
        .map(|e| chart.event(e).name.clone())
        .collect();
    rng.balanced(n, SCRIPT_LENGTHS.len())
        .into_iter()
        .map(|class| {
            (0..SCRIPT_LENGTHS[class])
                .map(|_| {
                    let roll = rng.next_u64();
                    if roll.is_multiple_of(32) {
                        vec![events[(roll >> 8) as usize % events.len()].clone()]
                    } else {
                        Vec::new()
                    }
                })
                .collect()
        })
        .collect()
}

// --- explore: seeded safety predicates ------------------------------------------

/// Up to three safety predicates over the chart's own states and
/// events. They change the report's violations and witnesses, never
/// the state space, so every op still explores the full closure.
pub fn predicates(rng: &mut Rng, chart: &Chart) -> Vec<Predicate> {
    let states: Vec<String> = chart
        .state_ids()
        .map(|s| chart.state(s).name.clone())
        .collect();
    let events: Vec<String> = chart
        .event_ids()
        .filter(|&e| chart.event(e).internal)
        .map(|e| chart.event(e).name.clone())
        .collect();
    (0..rng.below(4))
        .map(|_| {
            if rng.below(2) == 0 {
                Predicate::StateNeverActive(states[rng.below(states.len())].clone())
            } else {
                Predicate::EventNeverRaised(events[rng.below(events.len())].clone())
            }
        })
        .collect()
}

// --- design: multi-head controllers as source text ------------------------------

/// Controller sizes, drawn in balanced blocks. Four heads is the most
/// the minimal TEP's 128-word internal RAM holds. Three heads make up
/// half the mix so that the median op falls inside one size class, not
/// on the boundary between two.
const HEADS: [usize; 4] = [2, 3, 3, 4];

/// How a design input is broken, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    None,
    /// A misspelt chart keyword (`SC1xx`).
    ChartSyntax,
    /// A missing `;` in a routine (`AL1xx`).
    ActionSyntax,
    /// A use of an undeclared variable (`AL2xx`).
    ActionUndeclared,
    /// A transition label calling a routine that does not exist
    /// (`PS401`).
    UnknownRoutine,
}

const MUTATIONS: [Mutation; 4] = [
    Mutation::ChartSyntax,
    Mutation::ActionSyntax,
    Mutation::ActionUndeclared,
    Mutation::UnknownRoutine,
];

/// One design op's input: chart text and action text.
#[derive(Debug, Clone)]
pub struct DesignInput {
    pub mutation: Mutation,
    pub chart: String,
    pub actions: String,
}

/// `n` seeded design inputs; one in eight carries a source error.
pub fn design_inputs(rng: &mut Rng, n: usize) -> Vec<DesignInput> {
    let sizes = rng.balanced(n, HEADS.len());
    let broken = rng.balanced(n, 8);
    sizes
        .into_iter()
        .zip(broken)
        .map(|(size, slot)| {
            let heads = HEADS[size];
            let (chart, actions) = multi_head_sources(rng, heads);
            let mut input = DesignInput {
                mutation: Mutation::None,
                chart,
                actions,
            };
            if slot == 0 {
                let m = MUTATIONS[rng.below(MUTATIONS.len())];
                mutate(rng, &mut input, m);
            }
            input
        })
        .collect()
}

/// Replaces the `k`-th (mod count) occurrence of `pat` in `text`.
fn replace_nth(text: &mut String, pat: &str, with: &str, k: usize) {
    let hits: Vec<usize> = text.match_indices(pat).map(|(i, _)| i).collect();
    assert!(
        !hits.is_empty(),
        "mutation anchor `{pat}` missing from generated source"
    );
    let at = hits[k % hits.len()];
    text.replace_range(at..at + pat.len(), with);
}

fn mutate(rng: &mut Rng, input: &mut DesignInput, m: Mutation) {
    let k = rng.below(64);
    match m {
        Mutation::None => {}
        Mutation::ChartSyntax => replace_nth(&mut input.chart, "target ", "targte ", k),
        Mutation::ActionSyntax => replace_nth(&mut input.actions, "= 0;", "= 0", k),
        Mutation::ActionUndeclared => {
            replace_nth(&mut input.actions, "moves_done + 1", "moves_dne + 1", k)
        }
        Mutation::UnknownRoutine => replace_nth(&mut input.chart, "/EndMove", "/EndMoov", k),
    }
    input.mutation = m;
}

/// A pickup-head controller driving `heads` gantries on one beam: a
/// shared data-preparation region plus one motion region per head,
/// each with its own ramp routines, finish conditions, pulse events
/// and counter ports, under the paper's Table 2 deadlines. The seed
/// draws the motors' start and φ periods, which change the source text
/// and the initial data but not the code the optimiser has to speed
/// up. Returns (chart text, action text).
pub fn multi_head_sources(rng: &mut Rng, heads: usize) -> (String, String) {
    let mut b = ChartBuilder::new("MultiHead");
    b.event("POWER", None);
    b.event("INIT", None);
    b.event("ALLRESET", None);
    b.event("ERROR", None);
    b.event("DATA_VALID", Some(1500));
    b.event("GRAB_RELEASE", None);
    b.internal_event("BUF_READY");
    b.internal_event("PARAMS_READY");
    b.internal_event("BOUNDS_OK");
    b.internal_event("END_DATA");
    b.condition("MOVEMENT", false);
    b.data_port("BUFFER", 8, 0x10, Input);
    b.data_port("STOPALL_P", 8, 0x11, Output);
    b.data_port("STATUS_P", 16, 0x12, Output);
    for h in 0..heads {
        b.event(format!("X_PULSE{h}"), Some(300));
        b.event(format!("Y_PULSE{h}"), Some(300));
        b.event(format!("PHI_PULSE{h}"), Some(1600));
        b.event(format!("X_STEPS{h}"), None);
        b.event(format!("Y_STEPS{h}"), None);
        b.event(format!("PHI_STEPS{h}"), None);
        b.internal_event(format!("END_MOVE{h}"));
        b.condition(format!("XFINISH{h}"), false);
        b.condition(format!("YFINISH{h}"), false);
        b.condition(format!("PHIFINISH{h}"), false);
        let base = 0x20 + 0x10 * h as u16;
        for (i, (name, width)) in [
            ("XPERIOD", 16),
            ("YPERIOD", 16),
            ("PHIPERIOD", 16),
            ("XSTEPS_P", 16),
            ("YSTEPS_P", 16),
            ("PHISTEPS_P", 16),
            ("XDIR_P", 8),
            ("YDIR_P", 8),
            ("PHIDIR_P", 8),
        ]
        .into_iter()
        .enumerate()
        {
            b.data_port(format!("{name}{h}"), width, base + i as u16, Output);
        }
    }

    let mut regions = vec!["DataPreparation".to_string()];
    regions.extend((0..heads).map(|h| format!("ReachPosition{h}")));
    b.state("Controller", StateKind::Or)
        .contains(["OFF", "Idle1", "Operation", "ErrState"])
        .default_child("OFF");
    b.state("OFF", StateKind::Basic)
        .transition("Idle1", "POWER");
    b.state("Idle1", StateKind::Basic)
        .transition("OpReady", "[DATA_VALID]/GetByte()");
    b.state("Operation", StateKind::And)
        .contains(regions)
        .transition("Idle1", "INIT or ALLRESET/InitializeAll()")
        .transition("ErrState", "ERROR/Stop()")
        .transition("Idle1", "END_DATA/Finish()");
    b.state("ErrState", StateKind::Basic)
        .transition("Idle1", "INIT or ALLRESET/InitializeAll()");
    b.state("DataPreparation", StateKind::Or)
        .contains(["OpReady", "EmptyBuf", "Bounds", "NoData"])
        .default_child("OpReady");
    b.state("OpReady", StateKind::Basic)
        .transition("OpReady", "[DATA_VALID]/GetByte()")
        .transition("EmptyBuf", "BUF_READY/DecodeOpcode()");
    b.state("EmptyBuf", StateKind::Basic)
        .transition("Bounds", "PARAMS_READY/CheckBounds()");
    b.state("Bounds", StateKind::Basic)
        .transition("NoData", "BOUNDS_OK/PrepareMove()");
    b.state("NoData", StateKind::Basic)
        .transition("OpReady", "not (X_PULSE0 or Y_PULSE0)/PhiParameters()")
        .transition("OpReady", "[DATA_VALID]/GetByte()");
    for h in 0..heads {
        b.state(format!("ReachPosition{h}"), StateKind::Or)
            .contains([format!("Idle2_{h}"), format!("Moving{h}")])
            .default_child(format!("Idle2_{h}"));
        b.state(format!("Idle2_{h}"), StateKind::Basic)
            .transition(format!("Moving{h}"), "[MOVEMENT]");
        b.state(format!("Moving{h}"), StateKind::And)
            .contains([
                format!("MoveX{h}"),
                format!("MoveY{h}"),
                format!("MovePhi{h}"),
            ])
            .transition(
                format!("Idle2_{h}"),
                &format!("[XFINISH{h} and YFINISH{h} and PHIFINISH{h}]/EndMove{h}()"),
            );
        for (axis, pulse, steps, delta) in [
            ("X", "X_PULSE", "X_STEPS", "DeltaTX"),
            ("Y", "Y_PULSE", "Y_STEPS", "DeltaTY"),
            ("Phi", "PHI_PULSE", "PHI_STEPS", "DeltaTPhi"),
        ] {
            b.state(format!("Move{axis}{h}"), StateKind::Or)
                .contains([
                    format!("{axis}Start{h}"),
                    format!("Run{axis}{h}"),
                    format!("{axis}End{h}"),
                ])
                .default_child(format!("{axis}Start{h}"));
            b.state(format!("{axis}Start{h}"), StateKind::Basic)
                .transition(format!("Run{axis}{h}"), &format!("/StartMotor{axis}{h}()"));
            b.state(format!("Run{axis}{h}"), StateKind::Basic)
                .transition(format!("Run{axis}{h}"), &format!("{pulse}{h}/{delta}{h}()"))
                .transition(
                    format!("{axis}End{h}"),
                    &format!("{steps}{h}/Finish{axis}{h}()"),
                );
            b.basic(format!("{axis}End{h}"));
        }
    }
    let chart = b.build().expect("multi-head chart is well-formed");
    (
        pscp_statechart::pretty::to_text(&chart),
        multi_head_actions(heads, rng.range(16000, 17600), rng.range(1600, 1800)),
    )
}

fn multi_head_actions(heads: usize, start_period: u64, phi_period: u64) -> String {
    let mut src = format!(
        "uint:8 byte_no;\nuint:8 opcode;\nuint:16 cmd_x;\nuint:16 cmd_y;\nuint:16 cmd_phi;\n\
         int:16 moves_done;\nint:16 min_period_xy = 300;\nint:16 start_period_xy = {start_period};\n\
         int:16 phi_period = {phi_period};\nuint:16 max_coord = 20000;\n",
    );
    for h in 0..heads {
        src.push_str(&format!(
            "uint:16 pos_x{h}; uint:16 pos_y{h}; uint:16 pos_phi{h};\n\
             int:16 xc{h}; int:16 xn{h}; int:16 xleft{h};\n\
             int:16 yc{h}; int:16 yn{h}; int:16 yleft{h};\n"
        ));
    }
    src.push_str(
        r#"
void GetByte() {
    uint:16 b = BUFFER;
    if (byte_no < 3) {
        if (byte_no == 0) {
            opcode = b;
            if (opcode == 255) { raise END_DATA; } else { byte_no = 1; }
        } else if (byte_no == 1) { cmd_x = b; byte_no = 2; }
        else { cmd_x = cmd_x + (b << 8); byte_no = 3; }
    } else if (byte_no < 5) {
        if (byte_no == 3) { cmd_y = b; byte_no = 4; }
        else { cmd_y = cmd_y + (b << 8); byte_no = 5; }
    } else if (byte_no == 5) { cmd_phi = b; byte_no = 6; }
    else {
        cmd_phi = cmd_phi + (b << 8);
        byte_no = 0;
        raise BUF_READY;
    }
}
void DecodeOpcode() {
    if (opcode == 1) { raise PARAMS_READY; } else { raise ERROR; }
}
void CheckBounds() {
    if (cmd_x > max_coord) { raise ERROR; }
    else if (cmd_y > max_coord) { raise ERROR; }
    else if (cmd_phi > 3600) { raise ERROR; }
    else { raise BOUNDS_OK; }
}
void Stop() { STOPALL_P = 1; MOVEMENT = 0; }
void Finish() { STOPALL_P = 0; STATUS_P = moves_done; }
"#,
    );
    src.push_str("void PrepareMove() {\n");
    for h in 0..heads {
        src.push_str(&format!(
            "    if (cmd_x >= pos_x{h}) {{ xleft{h} = cmd_x - pos_x{h}; XDIR_P{h} = 0; }}\n\
             else {{ xleft{h} = pos_x{h} - cmd_x; XDIR_P{h} = 1; }}\n\
             if (cmd_y >= pos_y{h}) {{ yleft{h} = cmd_y - pos_y{h}; YDIR_P{h} = 0; }}\n\
             else {{ yleft{h} = pos_y{h} - cmd_y; YDIR_P{h} = 1; }}\n\
             if (cmd_phi >= pos_phi{h}) {{ PHIDIR_P{h} = 0; }} else {{ PHIDIR_P{h} = 1; }}\n"
        ));
    }
    src.push_str("    MOVEMENT = 1;\n}\n");
    src.push_str("void PhiParameters() { STATUS_P = moves_done; }\n");
    src.push_str("void InitializeAll() {\n    byte_no = 0;\n    opcode = 0;\n    MOVEMENT = 0;\n");
    for h in 0..heads {
        src.push_str(&format!(
            "    XFINISH{h} = 0;\n    YFINISH{h} = 0;\n    PHIFINISH{h} = 0;\n"
        ));
    }
    src.push_str("    STOPALL_P = 1;\n}\n");
    for h in 0..heads {
        src.push_str(&format!(
            r#"
void StartMotorX{h}() {{
    xc{h} = start_period_xy;
    xn{h} = 0;
    if (xleft{h} == 0) {{ XFINISH{h} = 1; }}
    else {{ XFINISH{h} = 0; XPERIOD{h} = xc{h}; XSTEPS_P{h} = xleft{h}; }}
}}
void StartMotorY{h}() {{
    yc{h} = start_period_xy;
    yn{h} = 0;
    if (yleft{h} == 0) {{ YFINISH{h} = 1; }}
    else {{ YFINISH{h} = 0; YPERIOD{h} = yc{h}; YSTEPS_P{h} = yleft{h}; }}
}}
void StartMotorPhi{h}() {{
    uint:16 dphi;
    if (cmd_phi >= pos_phi{h}) {{ dphi = cmd_phi - pos_phi{h}; }}
    else {{ dphi = pos_phi{h} - cmd_phi; }}
    if (dphi == 0) {{ PHIFINISH{h} = 1; }}
    else {{ PHIFINISH{h} = 0; PHIPERIOD{h} = phi_period; PHISTEPS_P{h} = dphi; }}
}}
void DeltaTX{h}() {{
    xn{h} = xn{h} + 1;
    xleft{h} = xleft{h} - 1;
    if (xleft{h} < xn{h}) {{
        xc{h} = xc{h} + (2 * xc{h}) / (4 * xleft{h} + 1);
    }} else if (xc{h} > min_period_xy) {{
        xc{h} = xc{h} - (2 * xc{h}) / (4 * xn{h} + 1);
        if (xc{h} < min_period_xy) {{ xc{h} = min_period_xy; }}
    }}
    XPERIOD{h} = xc{h};
}}
void DeltaTY{h}() {{
    yn{h} = yn{h} + 1;
    yleft{h} = yleft{h} - 1;
    if (yleft{h} < yn{h}) {{
        yc{h} = yc{h} + (2 * yc{h}) / (4 * yleft{h} + 1);
    }} else if (yc{h} > min_period_xy) {{
        yc{h} = yc{h} - (2 * yc{h}) / (4 * yn{h} + 1);
        if (yc{h} < min_period_xy) {{ yc{h} = min_period_xy; }}
    }}
    YPERIOD{h} = yc{h};
}}
void DeltaTPhi{h}() {{ PHIPERIOD{h} = phi_period; }}
void FinishX{h}() {{ XFINISH{h} = 1; pos_x{h} = cmd_x; }}
void FinishY{h}() {{ YFINISH{h} = 1; pos_y{h} = cmd_y; }}
void FinishPhi{h}() {{ PHIFINISH{h} = 1; pos_phi{h} = cmd_phi; }}
void EndMove{h}() {{
    MOVEMENT = 0;
    XFINISH{h} = 0;
    YFINISH{h} = 0;
    PHIFINISH{h} = 0;
    moves_done = moves_done + 1;
    STATUS_P = moves_done;
    raise END_MOVE{h};
}}
"#
        ));
    }
    src
}
