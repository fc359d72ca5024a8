//! The `sim` workload: the simulator alone, one thread, no serving. A
//! BW_S10-shaped NPU runs functional (full BFP) LSTM and GRU h=256 t=25
//! inferences, setup timed apart from repeated runs, and then the 11-point
//! Table V suite in timing-only mode.

use std::time::{Duration, Instant};

use bw_bench::bw_s10_sized;
use bw_bfp::ErrorStats;
use bw_core::isa::Program;
use bw_core::{ExecMode, Npu, NpuConfig, RunStats};
use bw_models::{
    reference, table5_suite, Gru, GruWeights, Lstm, LstmWeights, RnnBenchmark, RnnDims, RnnKind,
};

use crate::ledger::{Ledger, Span};
use crate::schedule::{input_pool, Rng};
use crate::stats::{median, summarize, windowed};
use crate::{Args, Outcome};

/// Hidden size and time steps of both functional models.
pub const HIDDEN: usize = 256;
/// Time steps per functional inference.
pub const STEPS: usize = 25;
/// Weight seed: the model is fixed; `--seed` only picks inputs.
const WEIGHT_SEED: u64 = 5;
/// Distinct input sequences per run.
const SEQUENCES: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The repository's accuracy bound for 2-bit-mantissa BFP against the f32
/// reference (`bw_models::accuracy`, `two_bit_mantissas_still_bounded`).
pub const MIN_SNR_DB: f64 = 3.0;
/// Table V as the repository's golden report prints it.
const TABLE5_GOLDEN: &str = include_str!("../../tests/golden/table5.txt");

/// The two functional models, deployed.
pub struct Deployed {
    /// The LSTM cell program builder.
    pub lstm: Lstm,
    /// Its NPU with weights loaded.
    pub lstm_npu: Npu,
    /// The GRU cell program builder.
    pub gru: Gru,
    /// Its NPU with weights loaded.
    pub gru_npu: Npu,
    /// Host time of the two `load_weights` calls.
    pub load_weights: Duration,
}

/// LSTM weights every run uses.
pub fn lstm_weights() -> LstmWeights {
    LstmWeights::random(RnnDims::square(HIDDEN), WEIGHT_SEED)
}

/// GRU weights every run uses.
pub fn gru_weights() -> GruWeights {
    GruWeights::random(RnnDims::square(HIDDEN), WEIGHT_SEED + 1)
}

/// The BW_S10-shaped configuration sized for the LSTM.
pub fn lstm_config() -> NpuConfig {
    let dims = RnnDims::square(HIDDEN);
    bw_s10_sized(Lstm::new(&NpuConfig::bw_s10(), dims).mrf_entries_required())
}

/// Constructs both NPUs and loads their weights.
pub fn deploy(lw: &LstmWeights, gw: &GruWeights) -> Deployed {
    let dims = RnnDims::square(HIDDEN);
    let lcfg = lstm_config();
    let gcfg = bw_s10_sized(Gru::new(&NpuConfig::bw_s10(), dims).mrf_entries_required());
    let lstm = Lstm::new(&lcfg, dims);
    let gru = Gru::new(&gcfg, dims);
    let mut lstm_npu = Npu::new(lcfg);
    let mut gru_npu = Npu::new(gcfg);
    let t = Instant::now();
    lstm.load_weights(&mut lstm_npu, lw)
        .expect("the sized configuration holds the LSTM");
    gru.load_weights(&mut gru_npu, gw)
        .expect("the sized configuration holds the GRU");
    Deployed {
        lstm,
        lstm_npu,
        gru,
        gru_npu,
        load_weights: t.elapsed(),
    }
}

/// Every step's hidden state of the f32 reference LSTM on `xs`, concatenated.
pub fn lstm_reference(w: &LstmWeights, xs: &[Vec<f32>]) -> Vec<f32> {
    let (mut h, mut c) = (vec![0.0; HIDDEN], vec![0.0; HIDDEN]);
    let mut all = Vec::new();
    for x in xs {
        (h, c) = reference::lstm_cell(&w.w_x, &w.w_h, &w.bias, HIDDEN, HIDDEN, x, &h, &c);
        all.extend_from_slice(&h);
    }
    all
}

fn gru_reference(w: &GruWeights, xs: &[Vec<f32>]) -> Vec<f32> {
    let mut h = vec![0.0; HIDDEN];
    let mut all = Vec::new();
    for x in xs {
        h = reference::gru_cell(&w.w_x, &w.w_h, &w.bias, HIDDEN, HIDDEN, x, &h);
        all.extend_from_slice(&h);
    }
    all
}

/// One functional LSTM + GRU inference pair from reset state.
struct Pair {
    lstm_out: Vec<f32>,
    gru_out: Vec<f32>,
    lstm: RunStats,
    gru: RunStats,
    lstm_time: (Instant, Instant),
    gru_time: (Instant, Instant),
}

fn run_pair(d: &mut Deployed, xs: &[Vec<f32>]) -> Pair {
    let t0 = Instant::now();
    d.lstm.reset_state(&mut d.lstm_npu).expect("state fits");
    let (lo, ls) = d.lstm.run(&mut d.lstm_npu, xs).expect("LSTM runs");
    let t1 = Instant::now();
    d.gru.reset_state(&mut d.gru_npu).expect("state fits");
    let (go, gs) = d.gru.run(&mut d.gru_npu, xs).expect("GRU runs");
    let t2 = Instant::now();
    Pair {
        lstm_out: lo.concat(),
        gru_out: go.concat(),
        lstm: ls,
        gru: gs,
        lstm_time: (t0, t1),
        gru_time: (t1, t2),
    }
}

/// The BW (sim) latencies of Table V, in suite order, as printed.
fn golden_latencies() -> Vec<String> {
    TABLE5_GOLDEN
        .lines()
        .filter_map(|l| l.split("BW (sim)").nth(1))
        .filter_map(|rest| rest.split_whitespace().next().map(str::to_owned))
        .collect()
}

/// An NPU in timing-only mode with its state reserved and inputs queued,
/// and the firmware to run on it, for one Table V point.
fn prepare(b: &RnnBenchmark) -> (Npu, Program) {
    let dims = b.dims();
    let (steps, queued) = (b.timesteps, b.timesteps as usize);
    match b.kind {
        RnnKind::Gru => {
            let cfg = bw_s10_sized(Gru::new(&NpuConfig::bw_s10(), dims).mrf_entries_required());
            let gru = Gru::new(&cfg, dims);
            let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
            gru.prepare_timing_only(&mut npu)
                .expect("the sized configuration holds the GRU");
            npu.push_input_zeros(gru.grid_x() as usize * queued);
            (npu, gru.program(steps))
        }
        RnnKind::Lstm => {
            let cfg = bw_s10_sized(Lstm::new(&NpuConfig::bw_s10(), dims).mrf_entries_required());
            let lstm = Lstm::new(&cfg, dims);
            let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
            lstm.prepare_timing_only(&mut npu)
                .expect("the sized configuration holds the LSTM");
            npu.push_input_zeros(lstm.grid_x() as usize * queued);
            (npu, lstm.program(steps))
        }
    }
}

/// The 11-point Table V suite in timing-only mode, run one point at a
/// time so that passes can interleave with other work. Each point is set
/// up the way `bw_bench::run_bw_s10` does; only `Npu::run` is timed, and
/// each simulated latency is compared with the golden report.
pub struct Suite {
    points: Vec<RnnBenchmark>,
    golden: Vec<String>,
    next: usize,
    cycles: u64,
    run: Duration,
    /// Completed passes: simulated cycles and host time in `Npu::run`.
    pub passes: Vec<(u64, Duration)>,
    /// Points of the first pass whose simulated latency differs from the
    /// golden report.
    pub mismatches: Vec<String>,
}

impl Suite {
    /// A suite about to start its first pass.
    pub fn new() -> Suite {
        let points = table5_suite();
        let golden = golden_latencies();
        let mut mismatches = Vec::new();
        if golden.len() != points.len() {
            mismatches.push(format!(
                "golden Table V has {} BW (sim) rows, the suite {}",
                golden.len(),
                points.len()
            ));
        }
        Suite {
            points,
            golden,
            next: 0,
            cycles: 0,
            run: Duration::ZERO,
            passes: Vec::new(),
            mismatches,
        }
    }

    /// Runs the next point, closing a pass after the last one.
    pub fn step(&mut self) {
        let b = &self.points[self.next];
        let (mut npu, program) = prepare(b);
        let t = Instant::now();
        let stats = npu.run(&program).expect("sized configurations run");
        self.run += t.elapsed();
        self.cycles += stats.cycles;
        let got = format!("{:.4}", stats.latency_ms());
        if self.passes.is_empty() && self.golden.get(self.next) != Some(&got) {
            self.mismatches.push(format!(
                "{}: {got} ms simulated, golden {:?}",
                b.name(),
                self.golden.get(self.next)
            ));
        }
        self.next += 1;
        if self.next == self.points.len() {
            self.passes.push((self.cycles, self.run));
            (self.next, self.cycles, self.run) = (0, 0, Duration::ZERO);
        }
    }

    /// Median host time of a pass inside `Npu::run`, ms.
    pub fn pass_ms(&self) -> f64 {
        let ms: Vec<f64> = self
            .passes
            .iter()
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect();
        median(&ms)
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (lw, gw) = (lstm_weights(), gru_weights());

    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut d = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let dep = deploy(&lw, &gw);
        setups.push(t.elapsed().as_secs_f64());
        loads.push(dep.load_weights.as_secs_f64() * 1e3);
        d = Some(dep);
    }
    let mut d = d.expect("at least one set-up");
    out.metrics.insert("setup_s", median(&setups));
    out.metrics.insert("core.load_weights_ms", median(&loads));

    let mut rng = Rng::new(args.seed, 3);
    let inputs: Vec<Vec<Vec<f32>>> = input_pool(args.seed, HIDDEN, SEQUENCES * STEPS)
        .chunks(STEPS)
        .map(<[Vec<f32>]>::to_vec)
        .collect();
    let mut checker = Checker {
        lw,
        gw,
        first: vec![None; SEQUENCES],
        device: None,
    };

    // Warm up, then measure untraced pairs; a traced run measures a
    // second, traced stretch as well. One Table V point runs after each
    // pair, so both figures sample the whole run.
    run_pair(&mut d, &inputs[0]);
    let mut suite = Suite::new();
    let phases = if args.trace { 2 } else { 1 };
    let mut ledger = Ledger::default();
    let mut pair_us: Vec<Vec<f64>> = vec![Vec::new(); phases];
    let (mut lstm_us, mut gru_us) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for (phase, samples) in pair_us.iter_mut().enumerate() {
        let traced = phase == 1;
        let until = start + args.seconds.mul_f64((phase + 1) as f64 / phases as f64);
        while Instant::now() < until {
            let k = rng.below(SEQUENCES);
            let p = run_pair(&mut d, &inputs[k]);
            let (t0, t2) = (p.lstm_time.0, p.gru_time.1);
            samples.push((t2 - t0).as_secs_f64() * 1e6);
            lstm_us.push((p.lstm_time.1 - p.lstm_time.0).as_secs_f64() * 1e6);
            gru_us.push((p.gru_time.1 - p.gru_time.0).as_secs_f64() * 1e6);
            checker.check(&mut out, &p, k, &inputs[k]);
            suite.step();
            if traced {
                let mut root = Span::root("sim.pair", t0, t2);
                root.args = vec![("lstm_cycles", p.lstm.cycles), ("gru_cycles", p.gru.cycles)];
                ledger.request(vec![
                    root,
                    Span::child("core.lstm", p.lstm_time.0, p.lstm_time.1, 0),
                    Span::child("core.gru", p.gru_time.0, p.gru_time.1, 0),
                ]);
            }
        }
    }

    for m in &suite.mismatches {
        out.failures.push(format!("Table V: {m}"));
    }
    let cycles = suite.passes.first().map_or(0, |p| p.0);
    out.check(suite.passes.iter().all(|p| p.0 == cycles), || {
        "Table V cycles changed between passes".to_owned()
    });
    let rates: Vec<f64> = suite
        .passes
        .iter()
        .map(|(c, d)| *c as f64 / d.as_secs_f64() / 1e6)
        .collect();

    let s = windowed(&pair_us[0], 99.0);
    out.metrics.insert("p50_us", s.p50);
    out.metrics.insert("e2e.p99_us", s.tail);
    // Pairs per host second spent running them (the interleaved suite
    // points excluded).
    let busy_s: f64 = pair_us[0].iter().sum::<f64>() / 1e6;
    out.metrics.insert("rps", pair_us[0].len() as f64 / busy_s);
    out.metrics.insert("sim_mcycles_per_s", median(&rates));
    out.metrics.insert("core.timing_suite_ms", suite.pass_ms());
    let (lstm_ms, gru_ms) = (
        summarize(&lstm_us, 99.0).p50 / 1e3,
        summarize(&gru_us, 99.0).p50 / 1e3,
    );
    out.note(format!(
        "unit of work: one functional LSTM h={HIDDEN} t={STEPS} + one GRU h={HIDDEN} t={STEPS} inference on BW_S10 (full BFP), from reset state"
    ));
    out.note(format!(
        "p99_us {:.1} (ledger: e2e.p99_us): p{} of {} pairs [host]",
        s.tail, s.tail_p, s.n
    ));
    out.note(format!("infer_ms = {lstm_ms:.4} ms LSTM, {gru_ms:.4} ms GRU (p50 per functional inference, set-up excluded) [host]"));
    if let Some((l, g)) = &checker.device {
        out.note(format!(
            "device_us = {:.3} us LSTM ({} cycles), {:.3} us GRU ({} cycles) [device, exact]",
            l.latency_seconds() * 1e6,
            l.cycles,
            g.latency_seconds() * 1e6,
            g.cycles
        ));
        out.metrics
            .insert("core.device_cycles", (l.cycles + g.cycles) as f64);
        out.metrics.insert(
            "core.dep_stall_cycles",
            (l.dep_stall_cycles + g.dep_stall_cycles) as f64,
        );
        out.metrics.insert(
            "core.resource_stall_cycles",
            (l.resource_stall_cycles + g.resource_stall_cycles) as f64,
        );
    }
    out.note(format!(
        "sim_mcycles_per_s: median over {} timing-only Table V passes ({cycles} simulated cycles each, median {:.2} ms in Npu::run) of simulated cycles per host second, set-up excluded [host]",
        rates.len(),
        suite.pass_ms()
    ));
    if args.trace {
        let traced = summarize(&pair_us[1], 99.0).p50;
        out.metrics
            .insert("trace.overhead_pct", (traced / s.p50 - 1.0) * 100.0);
        ledger.finish(&mut out, "sim", args.seed);
    }
    out
}

/// What every functional pair is held to.
struct Checker {
    lw: LstmWeights,
    gw: GruWeights,
    /// Each sequence's first outputs (LSTM, GRU), once checked.
    first: Vec<Option<(Vec<f32>, Vec<f32>)>>,
    /// The first pair's statistics.
    device: Option<(RunStats, RunStats)>,
}

impl Checker {
    /// Checks the pair `p` run on sequence `k` (`xs`) and tallies it.
    fn check(&mut self, out: &mut Outcome, p: &Pair, k: usize, xs: &[Vec<f32>]) {
        out.tally.attempted += 1;
        if let Some((l, g)) = &self.first[k] {
            // A repeat of a sequence must reproduce its first run bit for bit.
            let same =
                |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            if !same(l, &p.lstm_out) || !same(g, &p.gru_out) {
                out.tally.mismatched += 1;
                return;
            }
        } else {
            let mut ok = true;
            for (name, got, want) in [
                ("LSTM", &p.lstm_out, lstm_reference(&self.lw, xs)),
                ("GRU", &p.gru_out, gru_reference(&self.gw, xs)),
            ] {
                let e = ErrorStats::compare(&want, got).expect("same non-empty shapes");
                out.note(format!(
                    "{name} sequence {k} vs f32 reference: SNR {:.1} dB, max |err| {:.4}",
                    e.snr_db, e.max_abs_error
                ));
                if !(e.snr_db > MIN_SNR_DB && got.iter().all(|v| v.is_finite())) {
                    out.failures.push(format!(
                        "{name} sequence {k}: SNR {:.2} dB against the f32 reference, bound {MIN_SNR_DB} dB",
                        e.snr_db
                    ));
                    ok = false;
                }
            }
            self.first[k] = Some((p.lstm_out.clone(), p.gru_out.clone()));
            if !ok {
                out.tally.mismatched += 1;
                return;
            }
        }
        // Simulated time does not depend on the data.
        let (l, g) = self
            .device
            .get_or_insert_with(|| (p.lstm.clone(), p.gru.clone()));
        if l.cycles != p.lstm.cycles || g.cycles != p.gru.cycles {
            out.failures.push(format!(
                "simulated cycles changed between runs: {} / {} then {} / {}",
                l.cycles, g.cycles, p.lstm.cycles, p.gru.cycles
            ));
            out.tally.failed += 1;
            return;
        }
        out.tally.completed += 1;
    }
}
