//! The bottleneck report, rolled up from the device span stream.
//!
//! The simulator's [`SpanRecord`]s are per-chain; this module rolls them
//! up into the questions a performance engineer asks of the pipeline:
//! where did the cycles go, which resource was the bottleneck, and how
//! much latency did data dependencies expose. Every figure is read from
//! a span, so the report agrees with the Perfetto export and with
//! [`RunStats`](crate::RunStats) by construction.

use std::collections::{BTreeMap, HashMap};

use serde::Serialize;

use crate::npu::ChainKind;
use crate::trace::{SpanKind, SpanRecord, TraceId};

/// Rolled-up statistics for one chain kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct KindSummary {
    /// Chains of this kind: its [`SpanKind::Chain`] spans.
    pub chains: u64,
    /// Cycles in which a chain of this kind held its resource: the union
    /// per run of its [`SpanKind::MvmStream`] or [`SpanKind::MfuStream`]
    /// spans, or of its chain spans (start to retire) for the moves,
    /// which have no stream span. At most [`TraceSummary::end_cycle`].
    pub busy_cycles: u64,
    /// Cycles chains of this kind waited for their resource beyond
    /// dispatch and data: the [`SpanKind::ResourceStall`] spans.
    pub resource_wait_cycles: u64,
    /// Cycles chains of this kind waited on data beyond dispatch and
    /// resource: the [`SpanKind::DepStall`] spans.
    pub dep_wait_cycles: u64,
}

/// Where one stall span sits in a stream that may hold many runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct StallSite {
    /// The run's trace id.
    pub trace_id: TraceId,
    /// The device that made the run.
    pub device: u32,
    /// The run's index among the device's runs under `trace_id`, from 0.
    pub run: u64,
    /// The stalled chain's ordinal within its run.
    pub chain: u64,
    /// Length of the stall.
    pub cycles: u64,
}

/// A whole-stream summary.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct TraceSummary {
    /// Per-kind rollups, in a stable order.
    pub kinds: BTreeMap<String, KindSummary>,
    /// Device cycles summed over every run: the [`SpanKind::Run`] spans.
    /// For one run this is its last completion cycle.
    pub end_cycle: u64,
    /// The largest single [`SpanKind::DepStall`] span. The first wins a
    /// tie, taking runs in the order their [`SpanKind::Run`] spans arrive.
    pub worst_dep_stall: Option<StallSite>,
}

impl TraceSummary {
    /// Rolls up a span stream, which may interleave devices and trace
    /// ids. Spans are grouped by `(trace_id, device)` and then by run, a
    /// run's spans ending with its [`SpanKind::Run`] span; each stall is
    /// charged to the kind of the same-ordinal chain span in its run.
    /// Runs still open and spans no device run emits are left out.
    pub fn from_spans(spans: &[SpanRecord]) -> TraceSummary {
        let mut summary = TraceSummary::default();
        let mut open: HashMap<(TraceId, u32), (u64, Vec<&SpanRecord>)> = HashMap::new();
        for span in spans {
            let (runs, pending) = open.entry((span.trace_id, span.device)).or_default();
            if span.kind == SpanKind::Run {
                summary.add_run(pending, span, *runs);
                pending.clear();
                *runs += 1;
            } else {
                pending.push(span);
            }
        }
        summary
    }

    /// Folds one closed run, the `index`-th of its device, in.
    fn add_run(&mut self, spans: &[&SpanRecord], run: &SpanRecord, index: u64) {
        self.end_cycle += run.cycles();
        let kind_of: HashMap<u64, ChainKind> = spans
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::Chain(kind) => Some((s.chain, kind)),
                _ => None,
            })
            .collect();
        let mut busy_until: HashMap<&str, u64> = HashMap::new();
        for s in spans {
            let Some(&kind) = kind_of.get(&s.chain) else {
                continue;
            };
            // Report names are the chain labels less their prefix: "mvm".
            let name = SpanKind::Chain(kind).label().trim_start_matches("chain-");
            let k = self.kinds.entry(name.to_owned()).or_default();
            let cycles = s.cycles();
            // A resource serves its chains in order, so a kind's busy
            // spans arrive by start: count the cycles past the last one's
            // end, as a vector move frees the path before it retires.
            if matches!(
                s.kind,
                SpanKind::MvmStream
                    | SpanKind::MfuStream
                    | SpanKind::Chain(ChainKind::Move | ChainKind::MatrixMove)
            ) {
                let until = busy_until.entry(name).or_default();
                k.busy_cycles += s.end_cycle.saturating_sub(s.start_cycle.max(*until));
                *until = s.end_cycle.max(*until);
            }
            match s.kind {
                SpanKind::Chain(_) => k.chains += 1,
                SpanKind::ResourceStall => k.resource_wait_cycles += cycles,
                SpanKind::DepStall => {
                    k.dep_wait_cycles += cycles;
                    if self.worst_dep_stall.is_none_or(|w| cycles > w.cycles) {
                        self.worst_dep_stall = Some(StallSite {
                            trace_id: run.trace_id,
                            device: run.device,
                            run: index,
                            chain: s.chain,
                            cycles,
                        });
                    }
                }
                _ => {}
            }
        }
    }

    /// Fraction of the run the given kind kept its resource busy.
    pub fn occupancy(&self, kind: &str) -> f64 {
        if self.end_cycle == 0 {
            return 0.0;
        }
        self.kinds
            .get(kind)
            .map(|k| k.busy_cycles as f64 / self.end_cycle as f64)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{MemId, ProgramBuilder};
    use crate::{Npu, NpuConfig, RunStats, SpanCollector};

    fn tiny_npu() -> Npu {
        let cfg = NpuConfig::builder()
            .native_dim(4)
            .lanes(2)
            .tile_engines(2)
            .mrf_entries(16)
            .vrf_entries(32)
            .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap();
        Npu::new(cfg)
    }

    fn traced_run() -> (Vec<SpanRecord>, RunStats, TraceSummary) {
        let mut npu = tiny_npu();
        let n = 4;
        let mut ident = vec![0.0f32; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        npu.load_tiled_matrix(0, 1, 1, n, n, &ident).unwrap();
        let collector = SpanCollector::new();
        npu.set_trace_sink(Some(collector.handle()));
        npu.push_input(vec![1.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .v_wr(MemId::InitialVrf, 1)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 1)
            .v_tanh()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        let spans = collector.drain();
        let summary = TraceSummary::from_spans(&spans);
        (spans, stats, summary)
    }

    #[test]
    fn summary_counts_every_kind_once() {
        let (_, stats, summary) = traced_run();
        assert_eq!(stats.chains, 3);
        assert_eq!(summary.kinds.len(), 3);
        for kind in ["move", "mvm", "mfu"] {
            assert_eq!(summary.kinds[kind].chains, 1, "{kind}");
            assert!(summary.kinds[kind].busy_cycles > 0, "{kind}");
        }
        assert_eq!(summary.kinds["mvm"].busy_cycles, stats.mvm_busy_cycles);
        assert_eq!(summary.end_cycle, stats.cycles);
    }

    #[test]
    fn dependence_stalls_are_attributed() {
        let (_, stats, summary) = traced_run();
        // The serial copy -> mv_mul -> tanh program exposes dependence
        // latency at each downstream chain.
        let total_dep: u64 = summary.kinds.values().map(|k| k.dep_wait_cycles).sum();
        assert!(total_dep > 0);
        assert_eq!(total_dep, stats.dep_stall_cycles);
        let worst = summary.worst_dep_stall.unwrap();
        assert!(worst.chain > 1, "the head chain has no dependencies");
        assert!(worst.cycles > 0);
    }

    #[test]
    fn occupancy_fractions_are_bounded() {
        let (_, _, summary) = traced_run();
        for kind in ["move", "mvm", "mfu"] {
            let f = summary.occupancy(kind);
            assert!((0.0..=1.0).contains(&f), "{kind}: {f}");
        }
        assert_eq!(summary.occupancy("nonexistent"), 0.0);
    }

    #[test]
    fn overlapping_moves_count_their_busy_cycles_once() {
        // Two independent moves: the second takes the memory path as soon
        // as the first releases it, before the first retires, so their
        // chain spans overlap.
        let mut npu = tiny_npu();
        let collector = SpanCollector::new();
        npu.set_trace_sink(Some(collector.handle()));
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        for slot in 0..2 {
            npu.push_input(vec![1.0; 4]).unwrap();
            b.v_rd(MemId::NetQ, 0)
                .v_wr(MemId::InitialVrf, slot)
                .end_chain()
                .unwrap();
        }
        npu.run(&b.build()).unwrap();
        let spans = collector.drain();
        let moves: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Chain(ChainKind::Move))
            .collect();
        assert_eq!(moves.len(), 2);
        assert!(moves[1].start_cycle < moves[0].end_cycle, "spans overlap");
        let summary = TraceSummary::from_spans(&spans);
        assert_eq!(
            summary.kinds["move"].busy_cycles,
            moves[1].end_cycle - moves[0].start_cycle
        );
        assert!(summary.occupancy("move") <= 1.0);
    }

    #[test]
    fn dep_exposure_is_clamped_by_the_actual_start() {
        // A dependence stall ends where its chain starts, so the rollup
        // never attributes more wait than the chain actually experienced.
        let (spans, _, _) = traced_run();
        let stalls: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::DepStall)
            .collect();
        assert!(!stalls.is_empty());
        for stall in stalls {
            let chain = spans
                .iter()
                .find(|s| matches!(s.kind, SpanKind::Chain(_)) && s.chain == stall.chain)
                .expect("every stall has its chain");
            assert_eq!(stall.end_cycle, chain.start_cycle);
        }
    }

    /// A handcrafted span on trace 1, device 0.
    fn span(kind: SpanKind, chain: u64, start: u64, end: u64) -> SpanRecord {
        on(1, 0, kind, chain, start, end)
    }

    fn on(
        trace_id: u64,
        device: u32,
        kind: SpanKind,
        chain: u64,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id,
            device,
            kind,
            chain,
            start_cycle: start,
            end_cycle: end,
        }
    }

    /// One chain of `kind` with a dependence stall of `dep` cycles before
    /// it.
    fn chain(kind: ChainKind, ordinal: u64, start: u64, dep: u64) -> Vec<SpanRecord> {
        let mut spans = vec![span(SpanKind::Chain(kind), ordinal, start, start + 4)];
        if dep > 0 {
            spans.push(span(SpanKind::DepStall, ordinal, start - dep, start));
        }
        spans
    }

    #[test]
    fn worst_dep_stall_keeps_the_first_on_ties() {
        // Chains 2 and 3 both expose 10 cycles of dependence latency;
        // the strict `>` comparison must keep the earlier chain.
        let mut trace: Vec<SpanRecord> = [
            chain(ChainKind::Mvm, 1, 0, 0),
            chain(ChainKind::Mvm, 2, 14, 10),
            chain(ChainKind::Mfu, 3, 28, 10),
            chain(ChainKind::Mfu, 4, 37, 5), // smaller stall: ignored
        ]
        .concat();
        let mut closed = trace.clone();
        closed.push(span(SpanKind::Run, 0, 0, 41));
        let worst = |spans: &[SpanRecord]| {
            let w = TraceSummary::from_spans(spans).worst_dep_stall.unwrap();
            (w.chain, w.cycles)
        };
        assert_eq!(worst(&closed), (2, 10));
        // A strictly larger stall later does displace the winner.
        trace.extend(chain(ChainKind::Mvm, 5, 60, 19));
        trace.push(span(SpanKind::Run, 0, 0, 64));
        assert_eq!(worst(&trace), (5, 19));
    }

    #[test]
    fn single_kind_trace_rolls_up_into_one_bucket() {
        let mfu = SpanKind::Chain(ChainKind::Mfu);
        let trace = vec![
            span(mfu, 1, 0, 8),
            span(SpanKind::MfuStream, 1, 0, 8),
            span(mfu, 2, 8, 16),
            span(SpanKind::MfuStream, 2, 8, 16),
            span(SpanKind::ResourceStall, 2, 2, 8),
            span(mfu, 3, 20, 28),
            span(SpanKind::MfuStream, 3, 20, 28),
            span(SpanKind::DepStall, 3, 4, 20),
            span(SpanKind::Run, 0, 0, 28),
        ];
        let summary = TraceSummary::from_spans(&trace);
        assert_eq!(summary.kinds.len(), 1);
        let mfu = &summary.kinds["mfu"];
        assert_eq!(mfu.chains, 3);
        assert_eq!(mfu.busy_cycles, 24);
        assert_eq!(mfu.resource_wait_cycles, 6);
        assert_eq!(mfu.dep_wait_cycles, 16);
        assert_eq!(summary.end_cycle, 28);
        assert!((summary.occupancy("mfu") - 24.0 / 28.0).abs() < 1e-12);
        assert_eq!(summary.occupancy("mvm"), 0.0);
    }

    #[test]
    fn ordinals_resolve_within_their_run_and_device() {
        // Chain 1 is an MVM chain in device 0's first run and an MFU chain
        // in its second run and on device 1; the three streams interleave
        // and each stall must follow its own run's chain.
        let mvm = SpanKind::Chain(ChainKind::Mvm);
        let mfu = SpanKind::Chain(ChainKind::Mfu);
        let trace = vec![
            on(1, 0, mvm, 1, 5, 9),
            on(1, 1, mfu, 1, 7, 11),
            on(1, 0, SpanKind::DepStall, 1, 0, 5),
            on(1, 1, SpanKind::DepStall, 1, 0, 7),
            on(1, 0, SpanKind::Run, 0, 0, 9),
            on(1, 0, mfu, 1, 3, 7),
            on(1, 1, SpanKind::Run, 0, 0, 11),
            on(1, 0, SpanKind::DepStall, 1, 0, 3),
            on(1, 0, SpanKind::Run, 0, 0, 7),
            // A run still open when the stream was drained is left out.
            on(2, 0, mvm, 1, 50, 54),
            on(2, 0, SpanKind::DepStall, 1, 0, 50),
        ];
        let summary = TraceSummary::from_spans(&trace);
        assert_eq!(summary.kinds["mvm"].chains, 1);
        assert_eq!(summary.kinds["mvm"].dep_wait_cycles, 5);
        assert_eq!(summary.kinds["mfu"].chains, 2);
        assert_eq!(summary.kinds["mfu"].dep_wait_cycles, 10);
        assert_eq!(summary.end_cycle, 27);
        let site = |trace_id, device, run, cycles| StallSite {
            trace_id,
            device,
            run,
            chain: 1,
            cycles,
        };
        assert_eq!(summary.worst_dep_stall, Some(site(1, 1, 0, 7)));
        // The run index locates a stall among its device's runs: lengthen
        // device 0's second-run stall past device 1's.
        let mut longer = trace.clone();
        longer[7] = on(1, 0, SpanKind::DepStall, 1, 0, 8);
        let summary = TraceSummary::from_spans(&longer);
        assert_eq!(summary.worst_dep_stall, Some(site(1, 0, 1, 8)));
    }

    #[test]
    fn empty_trace_is_all_zeros() {
        let summary = TraceSummary::from_spans(&[]);
        assert_eq!(summary.end_cycle, 0);
        assert!(summary.kinds.is_empty());
        assert!(summary.worst_dep_stall.is_none());
        assert_eq!(summary.occupancy("mvm"), 0.0);
    }
}
