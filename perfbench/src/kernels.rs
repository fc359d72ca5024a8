//! Workload-independent kernel probes for the traced run: `Npu::run`
//! alone, weight loading, the timing-only suite and the BFP kernels, each
//! on the `sim` workload's shapes. Values a workload already measured are
//! kept. The probes check what they run: the LSTM outputs against the f32
//! reference and across repeats, the suite against the golden Table V.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bw_bfp::{BfpBlock, BfpMatrix, ErrorStats};
use bw_core::Npu;
use bw_models::{Lstm, RnnDims};

use crate::schedule::input_pool;
use crate::sim::{
    deploy, gru_weights, lstm_config, lstm_reference, lstm_weights, Suite, HIDDEN, MIN_SNR_DB,
    STEPS,
};
use crate::stats::median;
use crate::Outcome;

/// Host time each BFP probe runs for.
const BFP_PROBE: Duration = Duration::from_millis(300);
/// Repetitions of the slower probes.
const REPS: usize = 5;

/// Adds the kernel-layer metrics to `out`.
pub fn probe(out: &mut Outcome) {
    let m = &mut out.metrics;
    if !m.contains_key("core.load_weights_ms") || !m.contains_key("core.timing_suite_ms") {
        let lw = lstm_weights();
        let gw = gru_weights();
        let loads: Vec<f64> = (0..REPS)
            .map(|_| deploy(&lw, &gw).load_weights.as_secs_f64() * 1e3)
            .collect();
        m.entry("core.load_weights_ms").or_insert(median(&loads));
        let mut suite = Suite::new();
        while suite.passes.len() < REPS {
            suite.step();
        }
        m.entry("core.timing_suite_ms").or_insert(suite.pass_ms());
        for mismatch in &suite.mismatches {
            out.failures.push(format!("Table V: {mismatch}"));
        }
    }
    let run_ms = npu_run_ms(out);
    let m = &mut out.metrics;
    m.insert("core.run_ms", run_ms);

    // One native tile of the BW_S10 matrix format times one native vector.
    let cfg = lstm_config();
    let (n, fmt) = (cfg.native_dim() as usize, cfg.matrix_format());
    let data: Vec<f32> = input_pool(9, n, n).concat();
    let tile = BfpMatrix::quantize(n, n, &data, fmt).expect("square tile");
    let x = &input_pool(10, n, 1)[0];
    let qx = BfpBlock::quantize(x, fmt);
    let calls = repeat_for(BFP_PROBE, || {
        black_box(tile.mv_mul(black_box(&qx)).expect("shapes match"));
    });
    m.insert(
        "bfp.mv_mul_gmacs",
        calls.0 as f64 * (n * n) as f64 / calls.1.as_secs_f64() / 1e9,
    );
    let calls = repeat_for(BFP_PROBE, || {
        black_box(BfpBlock::quantize(black_box(x), fmt));
    });
    m.insert(
        "bfp.quantize_ns",
        calls.1.as_secs_f64() * 1e9 / calls.0 as f64,
    );
    // Bytes one call reads and writes, from the shapes and format: the
    // quantized tile and vector in, one f32 per row out.
    let bytes = fmt.storage_bytes((n * n) as u64) + fmt.storage_bytes(n as u64) + 4 * n as u64;
    m.insert("bfp.bytes_per_mv_mul", bytes as f64);
}

/// Median host time of `Npu::run` on the LSTM h=256 t=25 program, with
/// the program built and the inputs queued beforehand. The first run's
/// outputs must be within the BFP accuracy bound of the f32 reference and
/// every repeat bit-identical to them; a miss is recorded in `out`.
fn npu_run_ms(out: &mut Outcome) -> f64 {
    let cfg = lstm_config();
    let lstm = Lstm::new(&cfg, RnnDims::square(HIDDEN));
    let mut npu = Npu::new(cfg);
    let weights = lstm_weights();
    lstm.load_weights(&mut npu, &weights)
        .expect("the sized configuration holds the LSTM");
    let program = lstm.program(STEPS as u32);
    let xs = input_pool(11, HIDDEN, STEPS);
    let mut first: Option<Vec<f32>> = None;
    let mut repeats_differ = false;
    let times: Vec<f64> = (0..REPS * 2)
        .map(|_| {
            lstm.reset_state(&mut npu).expect("state fits");
            for x in &xs {
                lstm.push_step_input(&mut npu, x).expect("input fits");
            }
            let t = Instant::now();
            black_box(npu.run(&program).expect("LSTM runs"));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let outputs: Vec<f32> = (0..STEPS)
                .flat_map(|_| {
                    npu.pop_output_concat(lstm.grid_h() as usize, HIDDEN)
                        .expect("one output per step")
                })
                .collect();
            match &first {
                Some(f) => {
                    repeats_differ |= f
                        .iter()
                        .zip(&outputs)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
                }
                None => first = Some(outputs),
            }
            ms
        })
        .collect();
    let got = first.expect("at least one run");
    let e = ErrorStats::compare(&lstm_reference(&weights, &xs), &got).expect("same shapes");
    out.check(
        e.snr_db > MIN_SNR_DB && got.iter().all(|v| v.is_finite()),
        || {
            format!(
                "core.run_ms LSTM: SNR {:.2} dB against the f32 reference, bound {MIN_SNR_DB} dB",
                e.snr_db
            )
        },
    );
    out.check(!repeats_differ, || {
        "core.run_ms LSTM: a repeat differs from the first run".to_owned()
    });
    median(&times)
}

/// Calls `f` until `budget` has passed; returns calls and elapsed time.
fn repeat_for(budget: Duration, mut f: impl FnMut()) -> (u64, Duration) {
    let t = Instant::now();
    let mut calls = 0;
    while t.elapsed() < budget {
        for _ in 0..64 {
            f();
        }
        calls += 64;
    }
    (calls, t.elapsed())
}
