//! The bottleneck report rolled up from the span stream agrees exactly
//! with the run's own counters, and attributes every stall to the right
//! run and device when several share one stream.

use std::collections::BTreeMap;

use brainwave::bfp::BfpMatrix;
use brainwave::core::isa::{MemId, ProgramBuilder};
use brainwave::core::{
    ExecMode, KindSummary, Npu, NpuConfig, RunStats, SpanCollector, SpanRecord, StallSite,
    TraceSummary,
};
use brainwave::models::{Gru, Lstm, RnnDims};
use bw_bench::bw_s10_sized;

/// A timing-only NPU sized for both an LSTM and a GRU of `hidden`.
fn rnn_npu(hidden: usize) -> (Npu, Lstm, Gru) {
    let dims = RnnDims::square(hidden);
    let base = NpuConfig::bw_s10();
    let mrf = Lstm::new(&base, dims)
        .mrf_entries_required()
        .max(Gru::new(&base, dims).mrf_entries_required());
    let cfg = bw_s10_sized(mrf);
    let (lstm, gru) = (Lstm::new(&cfg, dims), Gru::new(&cfg, dims));
    (Npu::with_mode(cfg, ExecMode::TimingOnly), lstm, gru)
}

/// Runs `f` on `npu` with a sink armed under `(trace_id, device)`.
fn traced(
    npu: &mut Npu,
    trace_id: u64,
    device: u32,
    f: impl FnOnce(&mut Npu) -> RunStats,
) -> (RunStats, Vec<SpanRecord>) {
    let collector = SpanCollector::new();
    npu.set_trace_sink(Some(collector.handle()));
    npu.set_trace_context(trace_id, device);
    let stats = f(npu);
    npu.set_trace_sink(None);
    (stats, collector.drain())
}

/// The two-move program: NetQ -> DRAM, then DRAM -> MRF.
fn matrix_move_run(npu: &mut Npu) -> RunStats {
    let nd = npu.config().native_dim() as usize;
    let format = npu.config().matrix_format();
    npu.push_input_matrix(BfpMatrix::quantize(nd, nd, &vec![0.5; nd * nd], format).unwrap());
    let mut b = ProgramBuilder::new();
    b.set_rows(1).set_cols(1);
    b.m_rd(MemId::NetQ, 0)
        .m_wr(MemId::Dram, 0)
        .end_chain()
        .unwrap();
    b.m_rd(MemId::Dram, 0)
        .m_wr(MemId::MatrixRf, 0)
        .end_chain()
        .unwrap();
    npu.run(&b.build()).unwrap()
}

/// The five identities between the report and `RunStats`.
fn assert_identities(summary: &TraceSummary, stats: &RunStats, what: &str) {
    let sum = |f: fn(&KindSummary) -> u64| summary.kinds.values().map(f).sum::<u64>();
    let mvm_busy = summary.kinds.get("mvm").map_or(0, |k| k.busy_cycles);
    assert_eq!(
        sum(|k| k.dep_wait_cycles),
        stats.dep_stall_cycles,
        "{what}: dep wait"
    );
    assert_eq!(
        sum(|k| k.resource_wait_cycles),
        stats.resource_stall_cycles,
        "{what}: resource wait"
    );
    assert_eq!(mvm_busy, stats.mvm_busy_cycles, "{what}: mvm busy");
    assert_eq!(sum(|k| k.chains), stats.chains, "{what}: chains");
    assert_eq!(summary.end_cycle, stats.cycles, "{what}: end cycle");
}

#[test]
fn report_totals_equal_run_stats() {
    let (mut npu, lstm, _) = rnn_npu(256);
    let (stats, spans) = traced(&mut npu, 1, 0, |npu| lstm.run_timing_only(npu, 5).unwrap());
    let summary = TraceSummary::from_spans(&spans);
    assert!(stats.dep_stall_cycles > 0 && stats.resource_stall_cycles > 0);
    assert_identities(&summary, &stats, "LSTM h=256 t=5");

    let (mut npu, _, gru) = rnn_npu(1024);
    let (stats, spans) = traced(&mut npu, 1, 0, |npu| gru.run_timing_only(npu, 25).unwrap());
    assert_identities(&TraceSummary::from_spans(&spans), &stats, "GRU h=1024 t=25");

    let mut npu = Npu::with_mode(bw_s10_sized(0), ExecMode::TimingOnly);
    let (stats, spans) = traced(&mut npu, 1, 0, matrix_move_run);
    let summary = TraceSummary::from_spans(&spans);
    assert_eq!(summary.kinds["matrix-move"].chains, 2);
    assert_identities(&summary, &stats, "matrix moves");
}

/// Sums per-run kind rollups, as one rollup over all their spans must.
fn merged_kinds(parts: &[&TraceSummary]) -> BTreeMap<String, KindSummary> {
    let mut out = BTreeMap::<String, KindSummary>::new();
    for (name, k) in parts.iter().flat_map(|p| &p.kinds) {
        let o = out.entry(name.clone()).or_default();
        o.chains += k.chains;
        o.busy_cycles += k.busy_cycles;
        o.resource_wait_cycles += k.resource_wait_cycles;
        o.dep_wait_cycles += k.dep_wait_cycles;
    }
    out
}

/// The sum of several runs' statistics.
fn total(stats: &[&RunStats]) -> RunStats {
    let mut out = RunStats::default();
    for s in stats {
        out.accumulate(s);
    }
    out
}

#[test]
fn rollup_attributes_each_run_and_device() {
    // Two runs on one device: chain ordinals restart at 1 and name
    // different kinds in the LSTM and the GRU, so a stall resolved
    // against the wrong run would land on the wrong kind.
    let (mut npu, lstm, gru) = rnn_npu(256);
    let (lstm_stats, lstm_spans) =
        traced(&mut npu, 1, 0, |npu| lstm.run_timing_only(npu, 5).unwrap());
    let (gru_stats, gru_spans) = traced(&mut npu, 1, 0, |npu| gru.run_timing_only(npu, 3).unwrap());
    let lstm_summary = TraceSummary::from_spans(&lstm_spans);
    let gru_summary = TraceSummary::from_spans(&gru_spans);
    assert_ne!(lstm_summary.kinds, gru_summary.kinds);
    let both = TraceSummary::from_spans(&[lstm_spans, gru_spans].concat());
    assert_eq!(both.kinds, merged_kinds(&[&lstm_summary, &gru_summary]));
    assert_identities(&both, &total(&[&lstm_stats, &gru_stats]), "two runs");
    let (lstm_worst, gru_worst) = (
        lstm_summary.worst_dep_stall.unwrap(),
        gru_summary.worst_dep_stall.unwrap(),
    );
    // The GRU's stall sits in the device's second run; the LSTM's run
    // closes first, so it wins a tie.
    let expected = if gru_worst.cycles > lstm_worst.cycles {
        StallSite {
            run: 1,
            ..gru_worst
        }
    } else {
        lstm_worst
    };
    assert_eq!(both.worst_dep_stall, Some(expected));

    // Two devices sharing one collector under one trace id, their spans
    // interleaved as concurrent devices would deliver them.
    let collector = SpanCollector::new();
    let (mut gru_npu, _, _) = rnn_npu(256);
    for (npu, device) in [(&mut npu, 0), (&mut gru_npu, 1)] {
        npu.set_trace_sink(Some(collector.handle()));
        npu.set_trace_context(9, device);
    }
    let lstm_stats = lstm.run_timing_only(&mut npu, 5).unwrap();
    let gru_stats = gru.run_timing_only(&mut gru_npu, 3).unwrap();
    let spans = collector.drain();
    let (dev0, dev1): (Vec<SpanRecord>, Vec<SpanRecord>) =
        spans.iter().partition(|s| s.device == 0);
    let mut interleaved = Vec::with_capacity(spans.len());
    for i in 0..dev0.len().max(dev1.len()) {
        interleaved.extend(dev1.get(i));
        interleaved.extend(dev0.get(i));
    }
    let summary = TraceSummary::from_spans(&interleaved);
    assert_eq!(summary.kinds, merged_kinds(&[&gru_summary, &lstm_summary]));
    assert_identities(&summary, &total(&[&lstm_stats, &gru_stats]), "two devices");
    // Each device made one run under trace 9; the GRU's closes first.
    let on = |device, site: StallSite| StallSite {
        trace_id: 9,
        device,
        ..site
    };
    let expected = if gru_worst.cycles >= lstm_worst.cycles {
        on(1, gru_worst)
    } else {
        on(0, lstm_worst)
    };
    assert_eq!(summary.worst_dep_stall, Some(expected));
}
