//! Deep-dive profiler: runs one DeepBench RNN on the simulated BW_S10
//! with a span sink armed and emits both a Perfetto-loadable Chrome trace
//! and a bottleneck report rolled up from the same spans.
//!
//! Usage: `cargo run --release -p bw-bench --bin profile [-- flags]`
//!
//! Flags:
//! - `--kind K`        lstm | gru (default lstm)
//! - `--hidden N`      hidden dimension (default 1024; 256 with --quick)
//! - `--steps N`       timesteps (default 25; 5 with --quick)
//! - `--quick`         CI smoke mode: small model, few steps
//! - `--trace-out P`   Chrome trace JSON path (default TRACE_profile.json)
//! - `--report-out P`  bottleneck report path (default REPORT_profile.json)
//! - `--validate`      exit nonzero unless the emitted trace re-parses with
//!   at least one complete span and the report's totals equal the run's
//!   `RunStats` (dep wait, resource wait, MVM busy, chains, end cycle)
//!
//! Open the trace at <https://ui.perfetto.dev> (or `chrome://tracing`):
//! one process per NPU, with lanes for the pipeline, MVM/MFU streams, and
//! exposed stalls.

use bw_bench::bw_s10_sized;
use bw_core::{
    ExecMode, KernelMode, KindSummary, Npu, NpuConfig, SpanCollector, SpanKind, TraceSummary,
};
use bw_models::{Gru, Lstm, RnnBenchmark, RnnKind};
use bw_trace::{chrome_trace_json, spans_to_chrome, validate_chrome_trace};

struct Args {
    kind: RnnKind,
    hidden: Option<usize>,
    steps: Option<u32>,
    quick: bool,
    trace_out: String,
    report_out: String,
    validate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        kind: RnnKind::Lstm,
        hidden: None,
        steps: None,
        quick: false,
        trace_out: "TRACE_profile.json".into(),
        report_out: "REPORT_profile.json".into(),
        validate: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--validate" => args.validate = true,
            "--kind" => {
                args.kind = match value(i).as_str() {
                    "lstm" => RnnKind::Lstm,
                    "gru" => RnnKind::Gru,
                    k => panic!("unknown kind `{k}` (lstm | gru)"),
                };
                i += 1;
            }
            "--hidden" => {
                args.hidden = Some(value(i).parse().expect("--hidden: integer"));
                i += 1;
            }
            "--steps" => {
                args.steps = Some(value(i).parse().expect("--steps: integer"));
                i += 1;
            }
            "--trace-out" => {
                args.trace_out = value(i).clone();
                i += 1;
            }
            "--report-out" => {
                args.report_out = value(i).clone();
                i += 1;
            }
            other => panic!("unknown flag `{other}`"),
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let hidden = args.hidden.unwrap_or(if args.quick { 256 } else { 1024 });
    let steps = args.steps.unwrap_or(if args.quick { 5 } else { 25 });
    let bench = RnnBenchmark::new(args.kind, hidden, steps);
    eprintln!("profiling {} on BW_S10 (timing-only, traced)", bench.name());

    // Same harness as `run_bw_s10`, with a span sink armed: its spans
    // feed both the Perfetto export and the bottleneck rollup.
    let collector = SpanCollector::new();
    let (clock_hz, stats) = {
        let base_cfg = NpuConfig::bw_s10();
        let run = |cfg: NpuConfig, f: &dyn Fn(&mut Npu) -> bw_core::RunStats| {
            let clock_hz = cfg.clock_hz();
            let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
            npu.set_kernel_mode(KernelMode::Fast);
            npu.set_trace_sink(Some(collector.handle()));
            npu.set_trace_context(1, 0);
            (clock_hz, f(&mut npu))
        };
        match bench.kind {
            RnnKind::Lstm => {
                let cfg = bw_s10_sized(Lstm::new(&base_cfg, bench.dims()).mrf_entries_required());
                let lstm = Lstm::new(&cfg, bench.dims());
                run(cfg, &|npu| {
                    lstm.run_timing_only(npu, bench.timesteps)
                        .expect("sized configuration runs")
                })
            }
            RnnKind::Gru => {
                let cfg = bw_s10_sized(Gru::new(&base_cfg, bench.dims()).mrf_entries_required());
                let gru = Gru::new(&cfg, bench.dims());
                run(cfg, &|npu| {
                    gru.run_timing_only(npu, bench.timesteps)
                        .expect("sized configuration runs")
                })
            }
        }
    };
    let spans = collector.drain();

    // Perfetto trace.
    let events = spans_to_chrome(&spans, clock_hz, 0.0);
    let doc = chrome_trace_json(&events);
    std::fs::write(&args.trace_out, &doc).expect("write trace");
    eprintln!(
        "wrote {} ({} spans; open at https://ui.perfetto.dev)",
        args.trace_out,
        spans.len()
    );

    // Bottleneck report.
    let summary = TraceSummary::from_spans(&spans);
    let ops = bench.ops();
    let mut kinds = String::new();
    for (i, (name, k)) in summary.kinds.iter().enumerate() {
        if i > 0 {
            kinds.push(',');
        }
        kinds.push_str(&format!(
            "\n    \"{name}\": {{\"chains\": {}, \"busy_cycles\": {}, \
             \"resource_wait_cycles\": {}, \"dep_wait_cycles\": {}, \
             \"occupancy\": {:.4}}}",
            k.chains,
            k.busy_cycles,
            k.resource_wait_cycles,
            k.dep_wait_cycles,
            summary.occupancy(name)
        ));
    }
    let worst = match summary.worst_dep_stall {
        Some(w) => format!(
            "{{\"chain\": {}, \"exposed_cycles\": {}}}",
            w.chain, w.cycles
        ),
        None => "null".into(),
    };
    let report = format!(
        "{{\n  \"bench\": \"profile\",\n  \"model\": \"{}\",\n  \"mode\": \"{}\",\n  \
         \"cycles\": {},\n  \"latency_ms\": {:.6},\n  \"tflops\": {:.3},\n  \
         \"utilization_pct\": {:.2},\n  \"end_cycle\": {},\n  \
         \"worst_dep_stall\": {worst},\n  \"span_count\": {},\n  \"kinds\": {{{kinds}\n  }}\n}}\n",
        bench.name(),
        if args.quick { "quick" } else { "full" },
        stats.cycles,
        stats.latency_ms(),
        stats.effective_tflops(ops),
        stats.effective_utilization(ops) * 100.0,
        summary.end_cycle,
        spans.len(),
    );
    std::fs::write(&args.report_out, &report).expect("write report");
    println!("{report}");
    eprintln!("wrote {}", args.report_out);

    if args.validate {
        let complete = match validate_chrome_trace(&doc) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("FAIL: emitted trace does not validate: {e}");
                std::process::exit(1);
            }
        };
        let runs = spans.iter().filter(|s| s.kind == SpanKind::Run).count();
        if complete == 0 || runs == 0 {
            eprintln!(
                "FAIL: expected at least one complete span ({complete}) and one run span ({runs})"
            );
            std::process::exit(1);
        }
        let sum = |f: fn(&KindSummary) -> u64| summary.kinds.values().map(f).sum::<u64>();
        let mvm_busy = summary.kinds.get("mvm").map_or(0, |k| k.busy_cycles);
        let identities = [
            (
                "dep wait",
                sum(|k| k.dep_wait_cycles),
                stats.dep_stall_cycles,
            ),
            (
                "resource wait",
                sum(|k| k.resource_wait_cycles),
                stats.resource_stall_cycles,
            ),
            ("mvm busy", mvm_busy, stats.mvm_busy_cycles),
            ("chains", sum(|k| k.chains), stats.chains),
            ("end cycle", summary.end_cycle, stats.cycles),
        ];
        let mut broken = false;
        for (name, report, run) in identities {
            if report != run {
                eprintln!("FAIL: report {name} {report} != RunStats {run}");
                broken = true;
            }
        }
        if broken {
            std::process::exit(1);
        }
        eprintln!(
            "validated: {complete} complete spans, {runs} run spans, report totals equal RunStats"
        );
    }
}
