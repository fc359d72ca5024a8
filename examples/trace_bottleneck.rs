//! Performance debugging with the span trace: where do a GRU's cycles go
//! on BW_S10, and which chains expose recurrent-dependence latency?
//!
//! This is the §VII-B2 analysis workflow — "microarchitectural
//! inefficiencies such as data and structural hazards, pipeline stalls …
//! conspire to prevent NPU implementations from approaching ideal SDM
//! latencies" — run against the simulator's own span stream.
//!
//! Run with: `cargo run --release --example trace_bottleneck`

use brainwave::core::{SpanCollector, SpanKind, TraceSummary};
use brainwave::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-size GRU where dependence latency is visible next to compute.
    let bench_hidden = 1024usize;
    let steps = 25u32;
    let base = NpuConfig::bw_s10();
    let gru = Gru::new(&base, RnnDims::square(bench_hidden));
    let cfg = NpuConfig::builder()
        .name("BW_S10")
        .native_dim(base.native_dim())
        .lanes(base.lanes())
        .tile_engines(base.tile_engines())
        .mrf_entries(gru.mrf_entries_required())
        .vrf_entries(4096)
        .clock_mhz(250.0)
        .build()?;
    let gru = Gru::new(&cfg, RnnDims::square(bench_hidden));

    let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
    let collector = SpanCollector::new();
    npu.set_trace_sink(Some(collector.handle()));
    let stats = gru.run_timing_only(&mut npu, steps)?;
    let spans = collector.drain();
    let summary = TraceSummary::from_spans(&spans);

    println!(
        "GRU h={bench_hidden}, {steps} steps on BW_S10: {} cycles, {} chains traced\n",
        stats.cycles, stats.chains
    );
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "chain kind", "chains", "busy cyc", "dep wait", "res wait", "occupancy"
    );
    for (kind, k) in &summary.kinds {
        println!(
            "{:<14} {:>8} {:>12} {:>12} {:>12} {:>9.1}%",
            kind,
            k.chains,
            k.busy_cycles,
            k.dep_wait_cycles,
            k.resource_wait_cycles,
            summary.occupancy(kind) * 100.0
        );
    }

    if let Some(worst) = summary.worst_dep_stall {
        let of = |pick: fn(SpanKind) -> bool| {
            spans
                .iter()
                .find(|s| s.chain == worst.chain && pick(s.kind))
                .expect("the worst stall's chain was traced")
        };
        let c = of(|k| matches!(k, SpanKind::Chain(_)));
        let d = of(|k| k == SpanKind::DepStall);
        println!(
            "\nworst dependence stall: chain #{} ({}) waited {} cycles on data\n\
             (free to start at {}, data ready at {}, retired at {})",
            worst.chain,
            c.kind.label(),
            worst.cycles,
            d.start_cycle,
            d.end_cycle,
            c.end_cycle
        );
    }

    println!(
        "\nreading: the MVM keeps ~{:.0}% occupancy; the dependence waits on the\n\
         recurrent chains are exactly the 'deep pipelines delay dependent data'\n\
         effect of §VII-B1 — compare against the batch-interleaved firmware\n\
         (fig8) which fills those waits with other sequences' work.",
        summary.occupancy("mvm") * 100.0
    );
    Ok(())
}
