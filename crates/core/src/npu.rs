//! The assembled NPU: functional execution plus the calibrated cycle model.
//!
//! # Timing model
//!
//! The microarchitecture (Figure 3) is a single linear vector pipeline —
//! matrix-vector multiplier at the head, multifunction units in series —
//! fed by the vector arbitration network. The cycle model follows that
//! structure:
//!
//! * The control processor streams compound instructions at a fixed
//!   dispatch interval (§V-C: one per four cycles); a chain cannot begin
//!   before its instructions have been streamed.
//! * A chain containing an `mv_mul` occupies the matrix-vector multiplier
//!   for its streaming time (`ceil(rows·cols / engines) · N / lanes`
//!   cycles); its MFU tail drains in later pipeline stages and overlaps the
//!   next chain's MVM work. Chains without an `mv_mul` bypass the MVM and
//!   occupy the MFU stream for their vector streaming time. This keeps the
//!   pipeline a "continuous, uninterrupted stream of vector elements" (§V).
//! * A chain's results appear after its occupancy plus the pipeline *depth*
//!   it traverses (register file access, MVM accumulation tree, one depth
//!   per MFU operation, network queues). Dependent chains wait for the
//!   producer's completion — the exposed latency that limits small models
//!   (§VII-B1: "the deep pipelines ... delay dependent data from being
//!   written back quickly"). An operand consumed *mid-chain* (e.g. the
//!   `vv_mul` operand after an `mv_mul`) need only be ready when the stream
//!   reaches that stage, so its readiness requirement is credited by the
//!   pipeline depth already traversed — the dataflow forwarding that lets
//!   an RNN's recurrent chains overlap.
//! * Matrix moves (`m_rd`→`m_wr`) ride the memory path concurrently with
//!   the vector pipeline.
//!
//! Chains with an `mv_mul` read `cols` native vectors and emit `rows`;
//! chains without one operate at `rows` width throughout. Binary MFU
//! operations read their operand from the register file of the MFU they
//! execute on: the k-th add/sub operation of a chain reads `AddSubVrf(k)`,
//! the k-th multiply reads `MultiplyVrf(k)`.

use std::fmt;

use bw_bfp::BfpMatrix;

use crate::config::NpuConfig;
use crate::isa::{Chain, Instruction, Item, MemId, Program, ScalarReg};
use crate::mem::{Dram, MatrixFile, NetQueues, VectorFile};
use crate::mfu;
use crate::mvm;
use crate::stats::RunStats;
use crate::trace::{SinkHandle, SpanKind, SpanRecord, TraceId};

/// A chain's exposed stall, as `(DepStall | ResourceStall, from, to)`.
type Stall = Option<(SpanKind, u64, u64)>;

/// Whether a run computes real values or only models time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Execute arithmetic functionally (BFP matrix math, float16 MFU ops)
    /// and model cycles. The default.
    #[default]
    Full,
    /// Model cycles only; data paths move placeholder zeros. Used for large
    /// performance sweeps where computing tens of gigaMACs in software
    /// would dominate run time without changing any timing result.
    TimingOnly,
}

/// Which functional kernel implementation a run uses. Cycle counts and
/// computed values are identical in both modes; only host-side wall-clock
/// cost differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// The optimized kernels: slab-backed register files read as borrowed
    /// slices, reusable MVM quantization scratch, flat-accumulator BFP dot
    /// products. The default.
    #[default]
    Fast,
    /// The retained reference kernels: clone-on-read register files, fresh
    /// quantization and accumulator allocations per chain, naive
    /// element-by-element BFP dot products. Used as the oracle in the
    /// differential test suite and as the measured baseline of the `perf`
    /// benchmark.
    Reference,
}

/// Reusable per-chain buffers, retained across chains and runs so the
/// steady-state hot path performs no allocation.
#[derive(Clone, Debug, Default)]
struct ChainScratch {
    /// The chain's current value: `width` native vectors, flat.
    cur: Vec<f32>,
    /// Double buffer for `mv_mul` output (swapped with `cur`).
    aux: Vec<f32>,
    /// Zero placeholder written by timing-only runs.
    zeros: Vec<f32>,
    /// Pending `v_wr` targets of the chain in flight.
    writes: Vec<(MemId, u32, u32)>,
    /// MVM input-quantization scratch.
    mvm: mvm::MvmScratch,
}

/// The resource class a traced chain executed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub enum ChainKind {
    /// A chain containing an `mv_mul` (occupies the MVM).
    Mvm,
    /// A compute chain without an `mv_mul` (occupies the MFU stream).
    Mfu,
    /// A pure data move (rides the vector arbitration network).
    Move,
    /// A matrix move (`m_rd` → `m_wr`, on the memory path).
    MatrixMove,
}

/// Error produced while loading state or executing a program.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A VRF access fell outside the file's capacity.
    VrfIndexOutOfRange {
        /// Name of the register file.
        file: &'static str,
        /// First entry accessed.
        index: u32,
        /// Number of entries accessed.
        width: u32,
        /// File capacity in entries.
        capacity: u32,
    },
    /// An MRF access fell outside its capacity.
    MrfIndexOutOfRange {
        /// Entry accessed.
        index: u32,
        /// MRF capacity in entries.
        capacity: u32,
    },
    /// An `mv_mul` referenced an MRF entry never written.
    MrfEntryUninitialized {
        /// The uninitialized entry.
        index: u32,
    },
    /// An `m_rd` referenced a DRAM matrix never written.
    DramMatrixUninitialized {
        /// The uninitialized entry.
        index: u32,
    },
    /// The network input queue had fewer vectors than a read required.
    NetQueueEmpty {
        /// Vectors requested.
        requested: u32,
        /// Vectors available.
        available: u32,
    },
    /// A vector or buffer had the wrong length.
    VectorLengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A matrix exceeds the `rows × cols` native tile grid it was loaded
    /// into.
    MatrixDoesNotFitGrid {
        /// Source matrix rows.
        mat_rows: usize,
        /// Source matrix columns.
        mat_cols: usize,
        /// Grid rows (native tiles).
        grid_rows: u32,
        /// Grid columns (native tiles).
        grid_cols: u32,
        /// The configuration's native dimension.
        native_dim: u32,
    },
    /// A chain required more function units of one kind than the
    /// configuration provides.
    MfuCapacityExceeded {
        /// Unit kind (`"add/sub"`, `"multiply"`, `"activation"`).
        kind: &'static str,
        /// Units the chain requires.
        used: usize,
        /// Units available (one per MFU).
        available: u32,
    },
    /// An `AddSubVrf(i)`/`MultiplyVrf(i)` index exceeded the MFU count.
    BadVrfFileIndex {
        /// The offending memory identifier.
        mem: MemId,
        /// Number of MFUs in the configuration.
        mfus: u32,
    },
    /// A tiling register was set to zero.
    BadRegValue {
        /// The register written.
        reg: ScalarReg,
    },
    /// A numeric-layer failure (shape mismatch inside the BFP kernels).
    Numeric(
        /// Description of the underlying numeric error.
        String,
    ),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::VrfIndexOutOfRange {
                file,
                index,
                width,
                capacity,
            } => write!(
                f,
                "{file} access [{index}, {index}+{width}) exceeds capacity {capacity}"
            ),
            SimError::MrfIndexOutOfRange { index, capacity } => {
                write!(f, "MRF entry {index} exceeds capacity {capacity}")
            }
            SimError::MrfEntryUninitialized { index } => {
                write!(f, "MRF entry {index} read before initialization")
            }
            SimError::DramMatrixUninitialized { index } => {
                write!(f, "DRAM matrix {index} read before initialization")
            }
            SimError::NetQueueEmpty {
                requested,
                available,
            } => write!(
                f,
                "network input queue has {available} vectors, read needs {requested}"
            ),
            SimError::VectorLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "vector length {actual} does not match expected {expected}"
                )
            }
            SimError::MatrixDoesNotFitGrid {
                mat_rows,
                mat_cols,
                grid_rows,
                grid_cols,
                native_dim,
            } => write!(
                f,
                "matrix {mat_rows}x{mat_cols} exceeds {grid_rows}x{grid_cols} grid of \
                 {native_dim}x{native_dim} native tiles"
            ),
            SimError::MfuCapacityExceeded {
                kind,
                used,
                available,
            } => write!(
                f,
                "chain uses {used} {kind} operations but only {available} MFUs exist"
            ),
            SimError::BadVrfFileIndex { mem, mfus } => {
                write!(f, "{mem} does not exist in a {mfus}-MFU configuration")
            }
            SimError::BadRegValue { reg } => {
                write!(f, "control register {reg} must be non-zero")
            }
            SimError::Numeric(e) => write!(f, "numeric error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The Brainwave NPU simulator. See the [crate-level docs](crate) for an
/// end-to-end example.
///
/// RAW/WAR dependency scoreboards live inside the storage components
/// themselves (the `mem` module) as dense per-entry cycle arrays, indexed
/// exactly like the hardware's scoreboard.
#[derive(Clone, Debug)]
pub struct Npu {
    config: NpuConfig,
    mode: ExecMode,
    kernel: KernelMode,
    mrf: MatrixFile,
    initial_vrf: VectorFile,
    addsub_vrfs: Vec<VectorFile>,
    multiply_vrfs: Vec<VectorFile>,
    dram: Dram,
    net: NetQueues,
    rows: u32,
    cols: u32,
    scratch: ChainScratch,
    // --- timing state ---
    nios_cursor: u64,
    /// Per-instruction dispatch cost for the current segment iteration:
    /// the full Nios dispatch interval on an iteration's first pass, one
    /// cycle of scheduler replay afterwards (§V-C: the Nios streams "T
    /// iterations of N static instructions" into the buffered top-level
    /// scheduler, which sustains the pipeline beyond the Nios's own rate).
    dispatch_cost: u64,
    mvm_free_at: u64,
    mfu_free_at: u64,
    mem_free_at: u64,
    stats: RunStats,
    /// Structured span stream (see [`crate::trace`]); `None` — the
    /// default — costs one branch per chain and allocates nothing.
    sink: Option<SinkHandle>,
    /// Propagated into every emitted [`SpanRecord`].
    trace_id: TraceId,
    /// Device ordinal propagated into every emitted [`SpanRecord`].
    trace_device: u32,
}

impl Npu {
    /// Creates an NPU in [`ExecMode::Full`].
    pub fn new(config: NpuConfig) -> Self {
        Npu::with_mode(config, ExecMode::Full)
    }

    /// Creates an NPU with an explicit execution mode.
    pub fn with_mode(config: NpuConfig, mode: ExecMode) -> Self {
        let nd = config.native_dim() as usize;
        let vrf_cap = config.vrf_entries() as usize;
        let mfus = config.mfus() as usize;
        Npu {
            mrf: MatrixFile::new(config.mrf_entries() as usize),
            initial_vrf: VectorFile::new("InitialVrf", vrf_cap, nd),
            addsub_vrfs: (0..mfus)
                .map(|_| VectorFile::new("AddSubVrf", vrf_cap, nd))
                .collect(),
            multiply_vrfs: (0..mfus)
                .map(|_| VectorFile::new("MultiplyVrf", vrf_cap, nd))
                .collect(),
            dram: Dram::default(),
            net: NetQueues::default(),
            rows: 1,
            cols: 1,
            scratch: ChainScratch::default(),
            nios_cursor: 0,
            dispatch_cost: 0,
            mvm_free_at: 0,
            mfu_free_at: 0,
            mem_free_at: 0,
            stats: RunStats::default(),
            sink: None,
            trace_id: 0,
            trace_device: 0,
            config,
            mode,
            kernel: KernelMode::Fast,
        }
    }

    /// The configuration this NPU was instantiated with.
    pub fn config(&self) -> &NpuConfig {
        &self.config
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The functional kernel implementation in use.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Selects the functional kernel implementation. Cycle counts and
    /// computed values are unaffected; [`KernelMode::Reference`] trades
    /// speed for the original allocate-per-step execution shape.
    pub fn set_kernel_mode(&mut self, kernel: KernelMode) {
        self.kernel = kernel;
    }

    /// Installs (or removes) a structured span sink. While a sink is
    /// installed every run emits [`SpanRecord`]s — chain, MVM/MFU
    /// streaming, stall, and run-envelope spans — tagged with the context
    /// set by [`Npu::set_trace_context`]. `None` (the default) restores
    /// the zero-cost path.
    pub fn set_trace_sink(&mut self, sink: Option<SinkHandle>) {
        self.sink = sink;
    }

    /// Sets the trace id and device ordinal stamped on every span emitted
    /// from now on. The id is owned by whichever layer defines request
    /// identity (e.g. `bw-serve` uses its request id).
    pub fn set_trace_context(&mut self, trace_id: TraceId, device: u32) {
        self.trace_id = trace_id;
        self.trace_device = device;
    }

    /// Emits one span if a sink is installed.
    #[inline]
    fn emit_span(&self, kind: SpanKind, chain: u64, start_cycle: u64, end_cycle: u64) {
        if let Some(sink) = &self.sink {
            sink.emit(&SpanRecord {
                trace_id: self.trace_id,
                device: self.trace_device,
                kind,
                chain,
                start_cycle,
                end_cycle,
            });
        }
    }

    /// The one stall rule. A chain starts at the latest of its dispatch,
    /// its data dependencies and its resource; the wait is charged to
    /// data if the dependencies cleared strictly last, else to the
    /// resource if it cleared strictly last, else to neither. Charges
    /// `RunStats` and returns the start with the stall interval, which
    /// [`Npu::emit_chain`] emits — so the counters and the stall
    /// spans agree by construction.
    fn schedule(&mut self, dep_ready: u64, resource_free: u64) -> (u64, Stall) {
        let without_deps = self.nios_cursor.max(resource_free);
        let ready = self.nios_cursor.max(dep_ready);
        let stall = if dep_ready > without_deps {
            self.stats.dep_stall_cycles += dep_ready - without_deps;
            Some((SpanKind::DepStall, without_deps, dep_ready))
        } else if resource_free > ready {
            self.stats.resource_stall_cycles += resource_free - ready;
            Some((SpanKind::ResourceStall, ready, resource_free))
        } else {
            None
        };
        (ready.max(resource_free), stall)
    }

    /// Emits one chain's spans, if a sink is installed: the chain itself
    /// (start to retire), its MVM or MFU stream of `stream` cycles, and
    /// its stall interval from [`Npu::schedule`].
    fn emit_chain(&self, kind: ChainKind, start: u64, stream: u64, end: u64, stall: Stall) {
        if self.sink.is_none() {
            return;
        }
        let ordinal = self.stats.chains;
        self.emit_span(SpanKind::Chain(kind), ordinal, start, end);
        match kind {
            ChainKind::Mvm => self.emit_span(SpanKind::MvmStream, ordinal, start, start + stream),
            ChainKind::Mfu => self.emit_span(SpanKind::MfuStream, ordinal, start, start + stream),
            ChainKind::Move | ChainKind::MatrixMove => {}
        }
        if let Some((kind, from, to)) = stall {
            self.emit_span(kind, ordinal, from, to);
        }
    }

    // ------------------------------------------------------------------
    // Host-side loading (the role of the toolflow / runtime, §II-B)
    // ------------------------------------------------------------------

    /// Enqueues one native input vector on the network queue, arriving at
    /// cycle 0.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VectorLengthMismatch`] unless the vector is
    /// exactly `native_dim` long.
    pub fn push_input(&mut self, vector: Vec<f32>) -> Result<(), SimError> {
        self.push_input_at(vector, 0)
    }

    /// Enqueues one native input vector arriving at the given cycle — used
    /// by the serving simulator to model request arrival.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VectorLengthMismatch`] unless the vector is
    /// exactly `native_dim` long.
    pub fn push_input_at(&mut self, vector: Vec<f32>, at_cycle: u64) -> Result<(), SimError> {
        let nd = self.config.native_dim() as usize;
        if vector.len() != nd {
            return Err(SimError::VectorLengthMismatch {
                expected: nd,
                actual: vector.len(),
            });
        }
        self.net.push_input(vector, at_cycle);
        Ok(())
    }

    /// Splits an arbitrary-length vector into zero-padded native vectors and
    /// enqueues them all; returns how many native vectors were pushed.
    pub fn push_input_padded(&mut self, data: &[f32]) -> usize {
        let nd = self.config.native_dim() as usize;
        let count = data.len().div_ceil(nd).max(1);
        for i in 0..count {
            let mut v = vec![0.0f32; nd];
            let start = i * nd;
            if start < data.len() {
                let n = nd.min(data.len() - start);
                v[..n].copy_from_slice(&data[start..start + n]);
            }
            self.net.push_input(v, 0);
        }
        count
    }

    /// Enqueues `count` zero native vectors (cheap placeholder inputs for
    /// [`ExecMode::TimingOnly`] sweeps).
    pub fn push_input_zeros(&mut self, count: usize) {
        let nd = self.config.native_dim() as usize;
        for _ in 0..count {
            self.net.push_input(vec![0.0; nd], 0);
        }
    }

    /// Enqueues a native matrix tile on the network queue for a program to
    /// move into the MRF with `m_rd(NetQ)` → `m_wr(MatrixRf)`.
    pub fn push_input_matrix(&mut self, tile: BfpMatrix) {
        self.net.push_input_matrix(tile);
    }

    /// Quantizes and pins an `mat_rows × mat_cols` row-major `f32` matrix
    /// into the MRF as a `grid_rows × grid_cols` native tile grid starting
    /// at `base` — the host runtime's model-pinning step. Returns the number
    /// of MRF entries consumed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the matrix exceeds the grid, the grid
    /// exceeds MRF capacity, or the data length mismatches the shape.
    pub fn load_tiled_matrix(
        &mut self,
        base: u32,
        grid_rows: u32,
        grid_cols: u32,
        mat_rows: usize,
        mat_cols: usize,
        data: &[f32],
    ) -> Result<u32, SimError> {
        let tiles = mvm::tile_matrix(&self.config, mat_rows, mat_cols, data, grid_rows, grid_cols)?;
        for (i, tile) in tiles.into_iter().enumerate() {
            self.mrf.store(base + i as u32, tile)?;
        }
        Ok(grid_rows * grid_cols)
    }

    /// Reserves the MRF entries of a `grid_rows × grid_cols` grid with
    /// zero-valued tiles without computing a quantization — the
    /// [`ExecMode::TimingOnly`] counterpart of [`Npu::load_tiled_matrix`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MrfIndexOutOfRange`] if the grid exceeds MRF
    /// capacity.
    pub fn reserve_matrix_grid(
        &mut self,
        base: u32,
        grid_rows: u32,
        grid_cols: u32,
    ) -> Result<u32, SimError> {
        if !self.mrf.has_zero_template() || self.kernel == KernelMode::Reference {
            let nd = self.config.native_dim() as usize;
            let zero =
                BfpMatrix::quantize(nd, nd, &vec![0.0; nd * nd], self.config.matrix_format())
                    .map_err(|e| SimError::Numeric(e.to_string()))?;
            if self.kernel == KernelMode::Reference {
                // The reference execution shape: one full tile clone per
                // reserved entry, as the original implementation did.
                for i in 0..grid_rows * grid_cols {
                    self.mrf.store(base + i, zero.clone())?;
                }
                return Ok(grid_rows * grid_cols);
            }
            self.mrf.set_zero_template(zero);
        }
        for i in 0..grid_rows * grid_cols {
            self.mrf.reserve(base + i)?;
        }
        Ok(grid_rows * grid_cols)
    }

    /// Writes an arbitrary-length vector into consecutive entries of a
    /// vector register file, zero-padded to native vectors (used to stage
    /// biases and initial state). Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow or a non-VRF target.
    pub fn load_vector(&mut self, mem: MemId, index: u32, data: &[f32]) -> Result<u32, SimError> {
        let nd = self.config.native_dim() as usize;
        let count = data.len().div_ceil(nd).max(1);
        let mut flat = vec![0.0f32; count * nd];
        flat[..data.len()].copy_from_slice(data);
        self.vrf_mut(mem)?.write(index, &flat)?;
        Ok(count as u32)
    }

    /// Stages a DRAM matrix tile (for `m_rd(DRAM)` initialization paths).
    pub fn load_dram_matrix(&mut self, index: u32, tile: BfpMatrix) {
        self.dram.write_matrix(index, tile);
    }

    /// Pops one native vector from the network output queue.
    pub fn pop_output(&mut self) -> Option<Vec<f32>> {
        self.net.pop_output()
    }

    /// Pops and concatenates `count` native output vectors, truncated to
    /// `len` elements. Returns `None` if fewer than `count` are available.
    pub fn pop_output_concat(&mut self, count: usize, len: usize) -> Option<Vec<f32>> {
        if self.net.output_len() < count {
            return None;
        }
        let mut out = Vec::with_capacity(count * self.config.native_dim() as usize);
        for _ in 0..count {
            out.extend(self.net.pop_output().expect("length checked"));
        }
        out.truncate(len);
        Some(out)
    }

    /// Native vectors currently waiting in the output queue.
    pub fn output_len(&self) -> usize {
        self.net.output_len()
    }

    /// Native vectors currently waiting in the input queue.
    pub fn input_len(&self) -> usize {
        self.net.input_len()
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Runs a program to completion and returns its cycle statistics.
    ///
    /// Register file and queue contents persist across runs (models stay
    /// pinned); the cycle clock restarts at zero for each run.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised by validation or execution.
    pub fn run(&mut self, program: &Program) -> Result<RunStats, SimError> {
        self.run_batch(program, 1)
    }

    /// Runs a program `batch` times inside one run envelope — the
    /// multi-column entry point the serving batcher dispatches through.
    ///
    /// Column 0 streams from the Nios exactly as [`Npu::run`] does;
    /// every later column replays the already-buffered instructions at
    /// one cycle each, which is where coalescing a micro-batch wins its
    /// throughput: the matrix stays resident in the MRF and the
    /// dispatch cost is paid once. Functional execution is independent
    /// of timing state, so the per-column outputs are bit-identical to
    /// `batch` sequential [`Npu::run`] calls over the same inputs.
    ///
    /// Statistics accumulate across columns into one [`RunStats`]; with
    /// `batch > 1` a [`SpanKind::BatchColumn`] span is emitted per
    /// column (chain ordinal = column + 1) inside the usual run
    /// envelope. `batch == 0` is an empty run.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised by validation or execution.
    pub fn run_batch(&mut self, program: &Program, batch: usize) -> Result<RunStats, SimError> {
        self.nios_cursor = 0;
        self.mvm_free_at = 0;
        self.mfu_free_at = 0;
        self.mem_free_at = 0;
        self.initial_vrf.clear_ready();
        for f in &mut self.addsub_vrfs {
            f.clear_ready();
        }
        for f in &mut self.multiply_vrfs {
            f.clear_ready();
        }
        self.mrf.clear_ready();
        self.dram.clear_ready();
        self.stats = RunStats {
            peak_flops_per_cycle: self.config.peak_flops_per_cycle(),
            clock_hz: self.config.clock_hz(),
            ..RunStats::default()
        };

        let interval = u64::from(self.config.timing().dispatch_interval);
        for column in 0..batch {
            let column_start = self.high_water();
            for segment in &program.segments {
                for iteration in 0..segment.iterations {
                    // First pass streams from the Nios at the dispatch
                    // interval; replays — later iterations and every
                    // batch column after the first — come from the
                    // scheduler's instruction buffer at one cycle per
                    // instruction.
                    self.dispatch_cost = if column == 0 && iteration == 0 {
                        interval
                    } else {
                        1
                    };
                    for item in &segment.items {
                        match item {
                            Item::SetReg { reg, value } => self.exec_set_reg(*reg, *value)?,
                            Item::Chain(chain) => self.exec_chain(chain)?,
                        }
                    }
                }
            }
            if batch > 1 {
                let column_end = self.high_water();
                self.emit_span(
                    SpanKind::BatchColumn,
                    column as u64 + 1,
                    column_start,
                    column_end,
                );
            }
        }
        // The run ends when the last effect lands. Every published ready
        // time is bounded by a chain completion already folded into
        // `stats.cycles`, so only the resource frontiers can extend it.
        self.stats.cycles = self.high_water();
        self.emit_span(SpanKind::Run, 0, 0, self.stats.cycles);
        Ok(self.stats.clone())
    }

    /// The latest architecturally visible effect so far in this run:
    /// completed chains folded into `stats.cycles`, extended by any
    /// still-draining resource frontier.
    fn high_water(&self) -> u64 {
        self.stats
            .cycles
            .max(self.mvm_free_at)
            .max(self.mfu_free_at)
            .max(self.mem_free_at)
    }

    fn exec_set_reg(&mut self, reg: ScalarReg, value: u32) -> Result<(), SimError> {
        if value == 0 {
            return Err(SimError::BadRegValue { reg });
        }
        self.nios_cursor += self.dispatch_cost;
        self.stats.instructions += 1;
        match reg {
            ScalarReg::Rows => self.rows = value,
            ScalarReg::Cols => self.cols = value,
        }
        Ok(())
    }

    fn vrf(&self, mem: MemId) -> Result<&VectorFile, SimError> {
        let mfus = self.config.mfus();
        match mem {
            MemId::InitialVrf => Ok(&self.initial_vrf),
            MemId::AddSubVrf(i) => self
                .addsub_vrfs
                .get(i as usize)
                .ok_or(SimError::BadVrfFileIndex { mem, mfus }),
            MemId::MultiplyVrf(i) => self
                .multiply_vrfs
                .get(i as usize)
                .ok_or(SimError::BadVrfFileIndex { mem, mfus }),
            _ => unreachable!("vrf() called on non-VRF target"),
        }
    }

    fn vrf_mut(&mut self, mem: MemId) -> Result<&mut VectorFile, SimError> {
        let mfus = self.config.mfus();
        match mem {
            MemId::InitialVrf => Ok(&mut self.initial_vrf),
            MemId::AddSubVrf(i) => self
                .addsub_vrfs
                .get_mut(i as usize)
                .ok_or(SimError::BadVrfFileIndex { mem, mfus }),
            MemId::MultiplyVrf(i) => self
                .multiply_vrfs
                .get_mut(i as usize)
                .ok_or(SimError::BadVrfFileIndex { mem, mfus }),
            _ => unreachable!("vrf_mut() called on non-VRF target"),
        }
    }

    fn validate_chain(&self, chain: &Chain) -> Result<(), SimError> {
        let mfus = self.config.mfus();
        let checks = [
            ("add/sub", chain.addsub_ops()),
            ("multiply", chain.multiply_ops()),
            ("activation", chain.activation_ops()),
        ];
        for (kind, used) in checks {
            if used > mfus as usize {
                return Err(SimError::MfuCapacityExceeded {
                    kind,
                    used,
                    available: mfus,
                });
            }
        }
        Ok(())
    }

    fn exec_chain(&mut self, chain: &Chain) -> Result<(), SimError> {
        // Dispatch cost: every chain instruction plus its end_chain on the
        // first streaming of a segment; a single replay cycle afterwards
        // (the scheduler re-issues the already-buffered chain as a unit).
        let n_instr = chain.len() as u64 + 1;
        let interval = u64::from(self.config.timing().dispatch_interval);
        self.nios_cursor += if self.dispatch_cost == interval {
            n_instr * interval
        } else {
            self.dispatch_cost
        };
        self.stats.instructions += n_instr;
        self.stats.chains += 1;

        if chain.is_matrix_chain() {
            return self.exec_matrix_chain(chain);
        }
        self.validate_chain(chain)?;
        self.exec_vector_chain(chain)
    }

    fn exec_matrix_chain(&mut self, chain: &Chain) -> Result<(), SimError> {
        let count = self.rows * self.cols;
        let (src_mem, src_index) = match chain.instructions()[0] {
            Instruction::MRd { mem, index } => (mem, index),
            _ => unreachable!("matrix chain head validated"),
        };
        let (dst_mem, dst_index) = match chain.instructions()[1] {
            Instruction::MWr { mem, index } => (mem, index),
            _ => unreachable!("matrix chain tail validated"),
        };

        let mut dep_ready = 0u64;
        if dst_mem == MemId::MatrixRf {
            // Write-after-read: do not overwrite tiles an earlier mv_mul is
            // still streaming.
            dep_ready = dep_ready.max(self.mrf.read_until_at(dst_index, count));
        }
        let mut tiles = Vec::with_capacity(count as usize);
        for i in 0..count {
            let tile = match src_mem {
                MemId::NetQ => self.net.pop_input_matrix()?,
                MemId::Dram => {
                    dep_ready = dep_ready.max(self.dram.matrix_ready_at(src_index + i));
                    self.dram.read_matrix(src_index + i)?
                }
                _ => unreachable!("matrix source validated"),
            };
            tiles.push(tile);
        }

        let occupancy = u64::from(count) * u64::from(self.config.timing().dram_tile_cycles);
        let (start, stall) = self.schedule(dep_ready, self.mem_free_at);
        self.mem_free_at = start + occupancy;
        let completion = start + occupancy;
        self.stats.cycles = self.stats.cycles.max(completion);
        self.emit_chain(ChainKind::MatrixMove, start, occupancy, completion, stall);

        for (i, tile) in tiles.into_iter().enumerate() {
            let i = i as u32;
            match dst_mem {
                MemId::MatrixRf => {
                    self.mrf.store(dst_index + i, tile)?;
                    self.mrf.mark_ready(dst_index + i, completion);
                }
                MemId::Dram => {
                    self.dram.write_matrix(dst_index + i, tile);
                    self.dram.mark_matrix_ready(dst_index + i, completion);
                }
                _ => unreachable!("matrix destination validated"),
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn exec_vector_chain(&mut self, chain: &Chain) -> Result<(), SimError> {
        let timing = *self.config.timing();
        let has_mvm = chain.has_mv_mul();
        let rows = self.rows;
        let cols = self.cols;
        let w_in = if has_mvm { cols } else { rows };
        let w_out = rows;
        let nd = self.config.native_dim() as usize;
        let functional = self.mode == ExecMode::Full;
        let reference = self.kernel == KernelMode::Reference;

        // Reusable chain buffers: taken out of `self` so the borrow checker
        // sees them as disjoint from the register files, and returned on
        // success (an error path simply reallocates on the next chain).
        let mut s = std::mem::take(&mut self.scratch);
        s.cur.clear();
        s.writes.clear();

        // `dep_ready` accumulates the earliest legal chain start implied by
        // each operand: an operand consumed at pipeline offset `depth` may
        // arrive `depth` cycles after the chain starts streaming.
        let mut dep_ready = 0u64;
        let mut depth = 0u64;
        let mut mvm_occ = 0u64;
        // Wide counters so chains with pathological op counts reach the
        // capacity fault instead of wrapping an 8-bit index in debug builds.
        let mut addsub_seen: usize = 0;
        let mut multiply_seen: usize = 0;
        let mut mvm_tiles: Option<(u32, u32)> = None; // (base, count)

        for instr in chain.instructions() {
            match *instr {
                Instruction::VRd { mem, index } => {
                    match mem {
                        MemId::NetQ => {
                            s.cur.clear();
                            let arrival = self
                                .net
                                .pop_input_into(w_in, functional.then_some(&mut s.cur))?;
                            dep_ready = dep_ready.max(arrival.saturating_sub(depth));
                            self.stats.net_vectors_in += u64::from(w_in);
                            depth += u64::from(timing.net_depth);
                        }
                        MemId::Dram => {
                            let t = self.dram.vector_ready_at(index, w_in);
                            dep_ready = dep_ready.max(t.saturating_sub(depth));
                            if functional {
                                s.cur.clear();
                                self.dram.read_vectors_into(index, w_in, nd, &mut s.cur);
                                if reference {
                                    // Reference shape: one clone per vector.
                                    let _c: Vec<Vec<f32>> =
                                        s.cur.chunks(nd).map(<[f32]>::to_vec).collect();
                                }
                            }
                        }
                        vrf => {
                            // Bounds are validated even in timing-only mode.
                            let file = self.vrf(vrf)?;
                            let flat = file.read(index, w_in)?;
                            let t = file.ready_at(index, w_in);
                            dep_ready = dep_ready.max(t.saturating_sub(depth));
                            if reference {
                                // Reference shape: clone-on-read regardless
                                // of execution mode, as the original
                                // register files did.
                                let cloned: Vec<Vec<f32>> =
                                    flat.chunks(nd).map(<[f32]>::to_vec).collect();
                                if functional {
                                    s.cur.clear();
                                    for v in &cloned {
                                        s.cur.extend_from_slice(v);
                                    }
                                }
                            } else if functional {
                                s.cur.clear();
                                s.cur.extend_from_slice(flat);
                            }
                        }
                    }
                    depth += u64::from(timing.vrf_access_depth);
                }
                Instruction::MvMul { mrf_index } => {
                    mvm_occ = mvm::occupancy(&self.config, rows, cols);
                    mvm_tiles = Some((mrf_index, rows * cols));
                    let t = self.mrf.ready_at(mrf_index, rows * cols);
                    dep_ready = dep_ready.max(t.saturating_sub(depth));
                    self.stats.mvm_macs += mvm::macs(&self.config, rows, cols);
                    if functional {
                        if reference {
                            let inputs: Vec<Vec<f32>> =
                                s.cur.chunks(nd).map(<[f32]>::to_vec).collect();
                            let out = mvm::compute_naive(
                                &self.config,
                                &self.mrf,
                                mrf_index,
                                rows,
                                cols,
                                &inputs,
                            )?;
                            s.cur.clear();
                            for v in out {
                                s.cur.extend_from_slice(&v);
                            }
                        } else {
                            mvm::compute_into(
                                &self.config,
                                &self.mrf,
                                mrf_index,
                                rows,
                                cols,
                                &s.cur,
                                &mut s.aux,
                                &mut s.mvm,
                            )?;
                            std::mem::swap(&mut s.cur, &mut s.aux);
                        }
                    }
                    depth += u64::from(timing.mvm_depth);
                }
                Instruction::VWr { mem, index } => {
                    depth += u64::from(timing.vrf_access_depth);
                    if mem == MemId::NetQ {
                        depth += u64::from(timing.net_depth);
                    }
                    s.writes.push((mem, index, w_out));
                }
                ref op if op.opcode().is_mfu_op() => {
                    self.stats.mfu_element_ops += u64::from(w_out) * nd as u64;
                    let opcode = op.opcode();
                    match *instr {
                        Instruction::VvAdd { index }
                        | Instruction::VvASubB { index }
                        | Instruction::VvBSubA { index }
                        | Instruction::VvMax { index }
                        | Instruction::VvMul { index } => {
                            let mem = if matches!(*instr, Instruction::VvMul { .. }) {
                                let m = MemId::MultiplyVrf(
                                    u8::try_from(multiply_seen).unwrap_or(u8::MAX),
                                );
                                multiply_seen += 1;
                                m
                            } else {
                                let m =
                                    MemId::AddSubVrf(u8::try_from(addsub_seen).unwrap_or(u8::MAX));
                                addsub_seen += 1;
                                m
                            };
                            let file = self.vrf(mem)?;
                            let operand = file.read(index, w_out)?;
                            let t = file.ready_at(index, w_out);
                            dep_ready = dep_ready.max(t.saturating_sub(depth));
                            if reference {
                                let _c: Vec<Vec<f32>> =
                                    operand.chunks(nd).map(<[f32]>::to_vec).collect();
                            }
                            if functional {
                                mfu::apply_binary(opcode, &mut s.cur, operand)?;
                            }
                        }
                        _ => {
                            if functional {
                                mfu::apply_activation(opcode, &mut s.cur);
                            }
                        }
                    }
                    depth += u64::from(timing.mfu_op_depth);
                }
                _ => unreachable!("chain contents validated at construction"),
            }
        }

        // Chains with an mv_mul are throughput-bound by the MVM (input
        // vectors stream into the tile engines as part of the tile
        // occupancy) unless their output side outruns the MFU stream;
        // compute chains without one stream through the MFU pipeline; pure
        // data moves (v_rd → v_wr with no arithmetic) ride the vector
        // arbitration network and leave both compute resources free.
        let mfu_stream = u64::from(self.config.mfu_stream_cycles());
        let (kind, resource_free, occupancy) = if mvm_occ > 0 {
            let out_occ = u64::from(w_out) * mfu_stream;
            (ChainKind::Mvm, self.mvm_free_at, mvm_occ.max(out_occ))
        } else {
            let stream_occ = u64::from(w_in.max(w_out)) * mfu_stream;
            if chain.mfu_ops() > 0 {
                (ChainKind::Mfu, self.mfu_free_at, stream_occ)
            } else {
                (ChainKind::Move, self.mem_free_at, stream_occ)
            }
        };

        let (start, stall) = self.schedule(dep_ready, resource_free);
        match kind {
            ChainKind::Mvm => {
                self.mvm_free_at = start + occupancy;
                self.stats.mvm_busy_cycles += mvm_occ;
            }
            ChainKind::Mfu => self.mfu_free_at = start + occupancy,
            ChainKind::Move | ChainKind::MatrixMove => self.mem_free_at = start + occupancy,
        }
        self.stats.pipeline_busy_cycles += occupancy;
        let completion = start + occupancy + depth;
        self.stats.cycles = self.stats.cycles.max(completion);
        if let Some((base, count)) = mvm_tiles {
            self.mrf.mark_read_until(base, count, start + occupancy);
        }
        let stream = if mvm_occ > 0 { mvm_occ } else { occupancy };
        self.emit_chain(kind, start, stream, completion, stall);

        // Apply writes and publish ready times.
        if functional && s.cur.len() != w_out as usize * nd {
            return Err(SimError::VectorLengthMismatch {
                expected: w_out as usize,
                actual: s.cur.len() / nd.max(1),
            });
        }
        if !functional {
            s.zeros.clear();
            s.zeros.resize(w_out as usize * nd, 0.0);
            if reference {
                // Reference shape: a fresh zero placeholder per chain.
                let _placeholder: Vec<Vec<f32>> = vec![vec![0.0; nd]; w_out as usize];
            }
        }
        let values: &[f32] = if functional { &s.cur } else { &s.zeros };
        for &(mem, index, width) in &s.writes {
            match mem {
                MemId::NetQ => {
                    self.net.push_output(values, nd);
                    self.stats.net_vectors_out += u64::from(width);
                }
                MemId::Dram => {
                    self.dram.write_vectors(index, values, nd);
                    self.dram.mark_vectors_ready(index, width, completion);
                }
                vrf => {
                    if reference {
                        // Reference shape: clone-per-entry into the file.
                        let _c: Vec<Vec<f32>> = values.chunks(nd).map(<[f32]>::to_vec).collect();
                    }
                    let file = self.vrf_mut(vrf)?;
                    file.write(index, values)?;
                    file.mark_ready(index, width, completion);
                }
            }
        }
        self.scratch = s;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ProgramBuilder;

    fn tiny_config() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(4)
            .lanes(2)
            .tile_engines(2)
            .mfus(2)
            .mrf_entries(64)
            .vrf_entries(64)
            // Functional tests use the 5-bit-mantissa format; the default
            // 2-bit format is intentionally coarse (§VI).
            .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    fn identity_grid(npu: &mut Npu, base: u32, grid: u32) {
        let nd = npu.config().native_dim() as usize;
        let n = grid as usize * nd;
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        npu.load_tiled_matrix(base, grid, grid, n, n, &data)
            .unwrap();
    }

    #[test]
    fn relu_pass_through_netq() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        assert_eq!(npu.pop_output().unwrap(), vec![1.0, 0.0, 3.0, 0.0]);
        assert!(stats.cycles > 0);
        assert_eq!(stats.chains, 1);
        assert_eq!(stats.net_vectors_in, 1);
        assert_eq!(stats.net_vectors_out, 1);
    }

    #[test]
    fn identity_mv_mul_through_vrfs() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.push_input(vec![0.5, 1.5, -2.0, 3.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        for (got, want) in out.iter().zip([0.5, 1.5, -2.0, 3.0]) {
            assert!((got - want).abs() < 0.2, "{got} vs {want}");
        }
    }

    #[test]
    fn tiled_mv_mul_widths() {
        // rows=2, cols=2 with an identity over an 8-dim space.
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 2);
        let x: Vec<f32> = (0..8).map(|i| i as f32 / 2.0).collect();
        npu.push_input_padded(&x);
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        let out = npu.pop_output_concat(2, 8).unwrap();
        for (got, want) in out.iter().zip(&x) {
            assert!((got - want).abs() < 0.3, "{got} vs {want}");
        }
        // 2x2 grid of 4x4 tiles = 64 MACs.
        assert_eq!(stats.mvm_macs, 64);
    }

    #[test]
    fn bias_add_uses_addsub_vrf() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.load_vector(MemId::AddSubVrf(0), 3, &[10.0, 20.0, 30.0, 40.0])
            .unwrap();
        npu.push_input(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .vv_add(3)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        for (got, want) in out.iter().zip([11.0, 22.0, 33.0, 44.0]) {
            assert!((got - want).abs() < 0.5, "{got} vs {want}");
        }
    }

    #[test]
    fn second_addsub_op_reads_mfu1_file() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.load_vector(MemId::AddSubVrf(0), 0, &[1.0; 4]).unwrap();
        npu.load_vector(MemId::AddSubVrf(1), 0, &[100.0; 4])
            .unwrap();
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .vv_add(0) // reads AddSubVrf(0)
            .vv_add(0) // reads AddSubVrf(1)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        assert_eq!(npu.pop_output().unwrap(), vec![101.0; 4]);
    }

    #[test]
    fn mfu_capacity_enforced() {
        let mut npu = Npu::new(tiny_config()); // 2 MFUs
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .vv_add(0)
            .vv_add(1)
            .vv_add(2)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let err = npu.run(&b.build()).unwrap_err();
        assert_eq!(
            err,
            SimError::MfuCapacityExceeded {
                kind: "add/sub",
                used: 3,
                available: 2
            }
        );
    }

    #[test]
    fn net_queue_underflow_detected() {
        let mut npu = Npu::new(tiny_config());
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        assert_eq!(
            npu.run(&b.build()).unwrap_err(),
            SimError::NetQueueEmpty {
                requested: 1,
                available: 0
            }
        );
    }

    #[test]
    fn zero_reg_rejected() {
        let mut npu = Npu::new(tiny_config());
        let mut b = ProgramBuilder::new();
        b.set_rows(0);
        assert_eq!(
            npu.run(&b.build()).unwrap_err(),
            SimError::BadRegValue {
                reg: ScalarReg::Rows
            }
        );
    }

    #[test]
    fn dependent_chains_serialize_independent_chains_overlap() {
        let cfg = tiny_config();
        // Dependent: chain 2 reads what chain 1 writes.
        let mut npu = Npu::new(cfg.clone());
        npu.push_input(vec![1.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let dependent = npu.run(&b.build()).unwrap();

        // Independent: chain 2 reads a different, preloaded slot.
        let mut npu2 = Npu::new(cfg);
        npu2.push_input(vec![1.0; 4]).unwrap();
        npu2.load_vector(MemId::InitialVrf, 8, &[1.0; 4]).unwrap();
        let mut b2 = ProgramBuilder::new();
        b2.set_rows(1).set_cols(1);
        b2.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b2.v_rd(MemId::InitialVrf, 8)
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let independent = npu2.run(&b2.build()).unwrap();

        assert!(
            dependent.cycles > independent.cycles,
            "dependent {} vs independent {}",
            dependent.cycles,
            independent.cycles
        );
        assert!(dependent.dep_stall_cycles > 0);
        assert_eq!(independent.dep_stall_cycles, 0);
    }

    #[test]
    fn input_arrival_time_delays_start() {
        let cfg = tiny_config();
        let mut npu = Npu::new(cfg);
        npu.push_input_at(vec![1.0; 4], 10_000).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        assert!(stats.cycles > 10_000);
    }

    #[test]
    fn timing_only_matches_full_cycle_count() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.set_rows(2).set_cols(2);
            b.v_rd(MemId::NetQ, 0)
                .mv_mul(0)
                .vv_add(0)
                .v_tanh()
                .v_wr(MemId::InitialVrf, 0)
                .v_wr(MemId::NetQ, 0)
                .end_chain()
                .unwrap();
            b.build()
        };
        let mut full = Npu::new(tiny_config());
        identity_grid(&mut full, 0, 2);
        full.push_input_padded(&[1.0; 8]);
        let fs = full.run(&build()).unwrap();

        let mut timing = Npu::with_mode(tiny_config(), ExecMode::TimingOnly);
        timing.reserve_matrix_grid(0, 2, 2).unwrap();
        timing.push_input_zeros(2);
        let ts = timing.run(&build()).unwrap();

        assert_eq!(fs.cycles, ts.cycles);
        assert_eq!(fs.mvm_macs, ts.mvm_macs);
    }

    #[test]
    fn matrix_chain_moves_tile_from_dram() {
        let mut npu = Npu::new(tiny_config());
        let nd = 4;
        let data: Vec<f32> = (0..16).map(|i| i as f32 / 8.0).collect();
        let tile = BfpMatrix::quantize(nd, nd, &data, npu.config().matrix_format()).unwrap();
        npu.load_dram_matrix(5, tile);
        npu.push_input(vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.m_rd(MemId::Dram, 5)
            .m_wr(MemId::MatrixRf, 2)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(2)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        // First column of the tile.
        for (r, got) in out.iter().enumerate() {
            let want = data[r * nd];
            assert!((got - want).abs() < 0.1, "{got} vs {want}");
        }
        // The mv_mul waited on the DRAM move.
        assert!(stats.dep_stall_cycles > 0 || stats.cycles >= 400);
    }

    #[test]
    fn matrix_chain_initializes_weights_from_the_network() {
        // §IV-C: "Matrices can be read only from the network (for
        // initialization) or from DRAM" — the program-driven model
        // deployment path.
        let mut npu = Npu::new(tiny_config());
        let nd = 4;
        let data: Vec<f32> = (0..16).map(|i| ((i % 5) as f32 - 2.0) / 4.0).collect();
        let tile = BfpMatrix::quantize(nd, nd, &data, npu.config().matrix_format()).unwrap();
        npu.push_input_matrix(tile);
        npu.push_input(vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 5)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(5)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        // Second column of the tile.
        for (r, got) in out.iter().enumerate() {
            let want = data[r * nd + 1];
            assert!((got - want).abs() < 0.1, "{got} vs {want}");
        }
        // Underflow of the matrix queue is detected.
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 6)
            .end_chain()
            .unwrap();
        assert!(matches!(
            npu.run(&b.build()).unwrap_err(),
            SimError::NetQueueEmpty { .. }
        ));
    }

    #[test]
    fn matrix_chain_spills_mrf_to_dram_and_back() {
        // m_wr(DRAM) is the spill direction of Table II's matrix moves.
        let mut npu = Npu::new(tiny_config());
        let nd = 4;
        let data: Vec<f32> = (0..16).map(|i| i as f32 / 8.0).collect();
        let tile = BfpMatrix::quantize(nd, nd, &data, npu.config().matrix_format()).unwrap();
        npu.load_dram_matrix(0, tile);
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        // DRAM -> DRAM round trip through the matrix path.
        b.m_rd(MemId::Dram, 0)
            .m_wr(MemId::Dram, 9)
            .end_chain()
            .unwrap();
        b.m_rd(MemId::Dram, 9)
            .m_wr(MemId::MatrixRf, 0)
            .end_chain()
            .unwrap();
        npu.push_input(vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let out = npu.pop_output().unwrap();
        for (r, got) in out.iter().enumerate() {
            let want = data[r * nd];
            assert!((got - want).abs() < 0.1, "{got} vs {want}");
        }
    }

    #[test]
    fn uninitialized_mrf_entry_errors() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(7)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        assert_eq!(
            npu.run(&b.build()).unwrap_err(),
            SimError::MrfEntryUninitialized { index: 7 }
        );
    }

    #[test]
    fn vrf_bounds_checked() {
        let mut npu = Npu::new(tiny_config()); // 64 vrf entries
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 63)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap(); // index 63 is the last valid entry

        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 64)
            .end_chain()
            .unwrap();
        assert!(matches!(
            npu.run(&b.build()).unwrap_err(),
            SimError::VrfIndexOutOfRange { .. }
        ));
    }

    #[test]
    fn multicast_write_lands_everywhere() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![2.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 1)
            .v_wr(MemId::MultiplyVrf(0), 2)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 1)
            .vv_mul(2)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        assert_eq!(npu.pop_output().unwrap(), vec![2.0; 4]);
        assert_eq!(npu.pop_output().unwrap(), vec![4.0; 4]);
    }

    #[test]
    fn stats_expose_busy_and_peak() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
        npu.push_input(vec![1.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let stats = npu.run(&b.build()).unwrap();
        assert!(stats.mvm_busy_cycles > 0);
        assert!(stats.pipeline_busy_cycles >= stats.mvm_busy_cycles);
        assert_eq!(
            stats.peak_flops_per_cycle,
            npu.config().peak_flops_per_cycle()
        );
        assert!(stats.latency_seconds() > 0.0);
    }

    /// Runs `program` with a span sink armed; returns the stats and spans.
    fn traced(npu: &mut Npu, program: &Program) -> (RunStats, Vec<SpanRecord>) {
        let collector = crate::SpanCollector::new();
        npu.set_trace_sink(Some(collector.handle()));
        let stats = npu.run(program).unwrap();
        npu.set_trace_sink(None);
        (stats, collector.drain())
    }

    /// Σ cycles of the spans of one kind.
    fn span_cycles(spans: &[SpanRecord], kind: SpanKind) -> u64 {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(SpanRecord::cycles)
            .sum()
    }

    #[test]
    fn trace_records_every_chain_with_consistent_times() {
        let mut npu = Npu::new(tiny_config());
        identity_grid(&mut npu, 0, 1);
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
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let (stats, spans) = traced(&mut npu, &b.build());
        let chains: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Chain(_)))
            .collect();
        let kinds: Vec<SpanKind> = chains.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [ChainKind::Move, ChainKind::Mvm, ChainKind::Mfu].map(SpanKind::Chain)
        );
        for (i, c) in chains.iter().enumerate() {
            assert_eq!(c.chain, i as u64 + 1, "ordinals are 1-based and dense");
            assert!(c.end_cycle > c.start_cycle);
            assert!(c.end_cycle <= stats.cycles);
        }
        // The dependent chains start only after their producers complete.
        assert!(chains[1].start_cycle >= chains[0].end_cycle);
        assert!(chains[2].start_cycle >= chains[1].end_cycle);
        // The run envelope closes the run's spans.
        let last = spans.last().unwrap();
        assert_eq!((last.kind, last.end_cycle), (SpanKind::Run, stats.cycles));
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![0.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let program = b.build();
        assert!(npu.sink.is_none());
        npu.run(&program).unwrap();
        // A sink sees only runs made while it is installed.
        npu.push_input(vec![0.0; 4]).unwrap();
        let (_, spans) = traced(&mut npu, &program);
        assert_eq!(spans.iter().filter(|s| s.kind == SpanKind::Run).count(), 1);
    }

    /// The stall spans sum to the `RunStats` stall counters.
    fn assert_stalls_match(stats: &RunStats, spans: &[SpanRecord]) {
        assert_eq!(
            span_cycles(spans, SpanKind::DepStall),
            stats.dep_stall_cycles
        );
        assert_eq!(
            span_cycles(spans, SpanKind::ResourceStall),
            stats.resource_stall_cycles
        );
    }

    #[test]
    fn matrix_move_stalls_match_run_stats() {
        let mut npu = Npu::new(tiny_config());
        let format = npu.config().matrix_format();
        let tile = || BfpMatrix::quantize(4, 4, &[0.5; 16], format).unwrap();
        // NetQ -> DRAM, then DRAM -> MRF: the second move's data and the
        // memory path clear on the same cycle, so its wait is charged to
        // neither stall class and no stall span may claim it either.
        npu.push_input_matrix(tile());
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
        let (stats, spans) = traced(&mut npu, &b.build());
        assert_stalls_match(&stats, &spans);

        // A move into the MRF tile an mv_mul is still streaming waits on
        // that read (a data stall); a move queued behind it waits on the
        // memory path (a resource stall).
        identity_grid(&mut npu, 1, 1);
        npu.load_dram_matrix(1, tile());
        npu.push_input_at(vec![1.0; 4], 5_000).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(1)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.m_rd(MemId::Dram, 1)
            .m_wr(MemId::MatrixRf, 1)
            .end_chain()
            .unwrap();
        b.m_rd(MemId::Dram, 1)
            .m_wr(MemId::Dram, 2)
            .end_chain()
            .unwrap();
        let (stats, spans) = traced(&mut npu, &b.build());
        let stalled =
            |kind: SpanKind, chain: u64| spans.iter().any(|s| s.kind == kind && s.chain == chain);
        assert!(stalled(SpanKind::DepStall, 2), "WAR on MRF tile 1");
        assert!(stalled(SpanKind::ResourceStall, 3), "memory path busy");
        assert_stalls_match(&stats, &spans);
    }

    #[test]
    fn run_resets_clock_but_keeps_state() {
        let mut npu = Npu::new(tiny_config());
        npu.push_input(vec![5.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 9)
            .end_chain()
            .unwrap();
        let s1 = npu.run(&b.build()).unwrap();

        // Second run reads the value the first run pinned.
        let mut b2 = ProgramBuilder::new();
        b2.set_rows(1).set_cols(1);
        b2.v_rd(MemId::InitialVrf, 9)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let s2 = npu.run(&b2.build()).unwrap();
        assert_eq!(npu.pop_output().unwrap(), vec![5.0; 4]);
        // Clock restarted: second run is not longer than first plus slack.
        assert!(s2.cycles <= s1.cycles + 100);
    }
}
