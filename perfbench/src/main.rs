//! The repository's benchmark: socket-to-socket serving latency and
//! capacity through `TcpFrontend`, setup-free simulator speed, and (with
//! `--trace 1`) a per-layer ledger timed from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lone --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Any failed output check makes `correct` false and the exit code 1.
//! See `README.md` beside this file for the workloads and metrics.

mod kernels;
mod ledger;
mod pipe;
mod schedule;
mod serving;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints: name, unit, clock.
/// The tail (`e2e.p99_us`) is in the ledger instead: on a shared machine
/// it tracks the hypervisor's steal time, so it cannot gate a change.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "host"),
    ("p50_us", "us", "host"),
    ("rps", "1/s", "host"),
    ("sim_mcycles_per_s", "Mcycles/s", "host"),
];

/// The per-layer metrics every traced run prints: name, unit, clock and
/// the end-to-end metric it should move. A layer a workload bypasses
/// reads 0.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    (
        "tcp.residual_us",
        "us",
        "host",
        "p50_us on lone/poisson, rps on fanin; none on sim",
    ),
    ("wire.encode_ns", "ns", "host", "rps on fanin"),
    ("wire.decode_ns", "ns", "host", "rps on fanin"),
    ("batch.hold_us", "us", "host", "p50_us on lone/poisson"),
    ("batch.mean_size", "count", "-", "rps on fanin"),
    ("batch.dispatches", "count", "-", "rps on fanin"),
    ("serve.inproc_p50_us", "us", "host", "p50_us on lone"),
    (
        "serve.group_inproc_p50_us",
        "us",
        "host",
        "sharded_p50_us on lone",
    ),
    (
        "serve.lifecycle_us",
        "us",
        "host",
        "p50_us on lone, rps on fanin",
    ),
    ("serve.queue_wait_p50_us", "us", "host", "p50_us on fanin"),
    (
        "serve.queue_wait_p99_us",
        "us",
        "host",
        "e2e.p99_us on poisson",
    ),
    ("serve.submitted", "count", "-", "accounting"),
    ("serve.completed", "count", "-", "accounting"),
    ("serve.shed", "count", "-", "accounting"),
    ("serve.failed", "count", "-", "accounting"),
    ("worker.service_us", "us", "host", "p50_us on lone"),
    (
        "net.network_us",
        "model_us",
        "modeled",
        "sharded_p50_us on lone",
    ),
    ("net.link_transfers", "count", "-", "sharded_p50_us on lone"),
    ("gir.infer_us", "us", "host", "p50_us on lone"),
    (
        "gir.compile_ms",
        "ms",
        "host",
        "setup_s on lone/poisson/fanin",
    ),
    ("gir.pin_ms", "ms", "host", "setup_s on lone/poisson/fanin"),
    (
        "core.device_cycles",
        "cycles",
        "device",
        "none: any change means the modeled design changed",
    ),
    (
        "core.dep_stall_cycles",
        "cycles",
        "device",
        "none: modeled design",
    ),
    (
        "core.resource_stall_cycles",
        "cycles",
        "device",
        "none: modeled design",
    ),
    ("core.run_ms", "ms", "host", "p50_us on sim"),
    ("core.load_weights_ms", "ms", "host", "setup_s on sim"),
    (
        "core.timing_suite_ms",
        "ms",
        "host",
        "sim_mcycles_per_s on sim",
    ),
    (
        "bfp.mv_mul_gmacs",
        "GMAC/s",
        "host",
        "p50_us on sim, lone partly; none on fanin",
    ),
    (
        "bfp.quantize_ns",
        "ns",
        "host",
        "p50_us on sim; none on fanin",
    ),
    ("bfp.bytes_per_mv_mul", "bytes", "computed", "p50_us on sim"),
    ("obs.scrape_us", "us", "host", "rps and e2e.p99_us on fanin"),
    (
        "obs.metrics_call_us",
        "us",
        "host",
        "rps and e2e.p99_us on fanin",
    ),
    (
        "obs.prometheus_call_us",
        "us",
        "host",
        "rps and e2e.p99_us on fanin",
    ),
    (
        "loadgen.late_p99_us",
        "us",
        "host",
        "none: generator health on poisson",
    ),
    (
        "loadgen.late_max_us",
        "us",
        "host",
        "none: generator health on poisson",
    ),
    (
        "trace.overhead_pct",
        "%",
        "host",
        "none: traced p50 against untraced p50",
    ),
    (
        "e2e.p99_us",
        "us",
        "host",
        "end to end: the tail of p50_us's requests (lone: both models)",
    ),
    (
        "e2e.sharded_p50_us",
        "us",
        "host",
        "end to end: the 2-shard group's median on lone",
    ),
];

/// Request accounting for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Answered correctly within the deadline.
    pub completed: u64,
    /// Refused at admission (every replica queue full).
    pub shed: u64,
    /// Answered after the deadline, or failed in the server.
    pub failed: u64,
    /// Refused before admission, or answered with any other error frame.
    pub rejected: u64,
    /// Answered with an output that differs from the reference.
    pub mismatched: u64,
}

impl Tally {
    /// Adds another tally into this one.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.shed += o.shed;
        self.failed += o.failed;
        self.rejected += o.rejected;
        self.mismatched += o.mismatched;
    }

    /// Everything attempted that did not complete.
    pub fn not_completed(&self) -> u64 {
        self.attempted - self.completed
    }
}

/// What a workload hands back: accounting, metrics, checks and notes.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Request (or inference) accounting.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the JSON.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The workloads, by their fixed names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one request in flight, whole model and 2-shard group.
    Lone,
    /// Open loop, Poisson arrivals at 8,000 req/s.
    Poisson,
    /// Closed loop, 2 connections × 16 pipelined frames.
    Fanin,
    /// The simulator alone.
    Sim,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "lone" => Workload::Lone,
            "poisson" => Workload::Poisson,
            "fanin" => Workload::Fanin,
            "sim" => Workload::Sim,
            _ => return None,
        })
    }
}

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed for inputs and arrival times.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (lone|poisson|fanin|sim)")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds `{value}` (1..=600)"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <lone|poisson|fanin|sim> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload {
        Workload::Sim => sim::run(&args),
        w => serving::run(w, &args),
    };
    if args.trace {
        kernels::probe(&mut out);
    }
    report(&args, &out)
}

fn report(args: &Args, out: &Outcome) -> ExitCode {
    println!(
        "workload {:?} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for line in &out.notes {
        println!("  {line}");
    }
    let t = &out.tally;
    println!(
        "  accounting: attempted {} completed {} shed {} failed {} rejected-or-error-framed {} mismatched {}",
        t.attempted, t.completed, t.shed, t.failed, t.rejected, t.mismatched
    );
    let mut failures = out.failures.clone();
    if t.mismatched > 0 {
        failures.push(format!(
            "{} outputs differ from the reference",
            t.mismatched
        ));
    }
    if t.attempted == 0 {
        failures.push("nothing was attempted".into());
    }
    let mut metrics = Vec::new();
    if args.trace {
        for &(name, unit, clock, moves) in PER_LAYER {
            let v = out.metrics.get(name).copied();
            println!(
                "  {name:<28} {:>14} {unit:<9} [{clock}] moves: {moves}{}",
                fmt_value(v.unwrap_or(0.0)),
                if v.is_none() { " (bypassed)" } else { "" }
            );
            metrics.push((name, v.unwrap_or(0.0), unit));
        }
    } else {
        for &(name, unit, clock) in END_TO_END {
            let v = out.metrics.get(name).copied();
            if v.is_none() {
                failures.push(format!("end-to-end metric {name} was not measured"));
            }
            println!(
                "  {name:<20} {:>14} {unit:<9} [{clock}]",
                fmt_value(v.unwrap_or(0.0))
            );
            metrics.push((name, v.unwrap_or(0.0), unit));
        }
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            failures.push(format!("{name} is not finite"));
        }
    }
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        t.attempted.max(1),
        t.not_completed(),
        body.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1e5 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` at the repository root name
    /// the same metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field present")
                            + f.len()
                            + 5;
                        entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload fanin --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Fanin);
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (9, 3, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload sim --trace 2")).is_err());
    }
}
