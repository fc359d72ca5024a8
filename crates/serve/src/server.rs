//! The serving runtime: a pool of NPU-backed workers behind a routing
//! policy, with deadlines, retry-with-failover, load shedding, and
//! network-partitioned (sharded) model execution.
//!
//! One [`Server`] is one published pool of hardware-microservice
//! instances (§II-A): every worker pins every registered whole model, a
//! [`Router`] picks replicas per request, and the [`Client`] drives one
//! request lifecycle for every request shape — k columns (batch-1 or a
//! coalesced batch) over a plan of stages, each fanned out over shards
//! (one stage of one shard for a whole model):
//!
//! 1. **admission** — validate model and each column, count `submitted`,
//!    dispatch stage 0; if every live replica's queue is full, *shed*
//!    immediately;
//! 2. **attempt** — wait for each shard up to the attempt timeout (or
//!    the remaining deadline, whichever is sooner);
//! 3. **failover** — on worker fault, worker death, or attempt timeout,
//!    re-dispatch that shard to a replica that has not served it yet,
//!    up to `max_retries` times within the deadline;
//! 4. **termination** — exactly one of completed / shed / failed per
//!    column, always recorded in the metrics:
//!    `completed + shed + failed == submitted` once nothing is in
//!    flight.
//!
//! # Scale-out: shard groups over the network
//!
//! A model registered via [`ServerBuilder::sharded_model`] spans
//! cooperating workers, reproducing §II-A's spatial distribution of one
//! model across accelerators on the datacenter network. Each shard of
//! each scatter/gather segment pins on a distinct owner set (worker `w`
//! owns shard `k` of a `K`-wide segment iff `w % K == k`); a request for
//! the group name runs segment by segment — scatter the segment input to
//! one owner per shard, gather, concatenate the row-shard outputs in
//! shard order, feed the next segment. Every transfer leg is charged
//! against the server's [`NetworkModel`] (and slept, so measured latency
//! reflects it); a lost shard fails over to another owner exactly like a
//! whole-model attempt. Row sharding keeps the result bit-identical to
//! single-device execution because BFP block exponents are shared only
//! along a row's column blocks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bw_core::{RunStats, SpanKind, SpanRecord};
use bw_gir::{ModelArtifact, ShardedArtifact};
use bw_system::{NetworkModel, PreloadModel, Routing};
use parking_lot::{Mutex, RwLock};

use crate::metrics::{
    render_prometheus, snapshot_model, LinkMetrics, LinkRow, MetricsSnapshot, ModelMetrics,
    ModelResidency, WorkerRow,
};
use crate::registry::{GroupSegment, ModelRegistry, RegistryError};
use crate::request::{
    Attribution, FlightOutcome, FlightRecord, RequestId, RequestTrace, Response, ServeError,
};
use crate::router::Router;
use crate::worker::{
    spawn_worker, Completion, Control, DispatchRefused, Job, Served, WorkerHandle,
};

/// Sampled request traces retained before the oldest is dropped.
const TRACE_LOG_CAP: usize = 256;

/// Tail-sampling flight-recorder settings ([`ServerConfig::flight_recorder`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightRecorderConfig {
    /// Completed requests slower than this are retained with their full
    /// span tree.
    pub latency_objective: Duration,
    /// Bounded ring capacity: once full, the oldest record is dropped
    /// for each new one.
    pub capacity: usize,
}

/// Tunables of one server pool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerConfig {
    /// Workers in the pool; every worker pins every registered model.
    pub replicas: usize,
    /// Bounded per-worker queue capacity (jobs).
    pub queue_cap: usize,
    /// The routing policy (shared vocabulary with `bw-system`).
    pub policy: Routing,
    /// Failover retries permitted per request beyond the first attempt.
    pub max_retries: u32,
    /// Per-attempt timeout. `None` gives each attempt the full remaining
    /// deadline (failover then only triggers on faults and death).
    pub attempt_timeout: Option<Duration>,
    /// Seed for the random routing policy.
    pub seed: u64,
    /// Span-trace sampling: collect full NPU span traces for one request
    /// in every `trace_sample` (by request id). `0` disables span
    /// collection entirely; `1` traces every request. Counter
    /// attribution (cycles, MACs, stalls, queue/service split) is always
    /// on regardless.
    pub trace_sample: u64,
    /// The datacenter network between the client and the workers: every
    /// request/response and scatter/gather leg is charged (and slept)
    /// per this model, and a down link makes its worker unreachable. The
    /// default ideal network charges nothing, preserving the
    /// single-machine behavior.
    pub network: NetworkModel,
    /// The weight-preload cost model: what pinning a replica at runtime
    /// costs in simulated time ([`Server::pin_model`]). The default free
    /// model preloads instantly, preserving pre-fleet behavior.
    pub preload: PreloadModel,
    /// Tail-sampling flight recorder: when set, every request is traced
    /// and the full span tree of each request that breached the latency
    /// objective or failed is retained in a bounded ring
    /// ([`Server::take_flight_records`]). Unlike `trace_sample` (head
    /// sampling, decided at admission), retention is decided at
    /// termination when the outcome is known. `None` (the default)
    /// disables the recorder.
    pub flight_recorder: Option<FlightRecorderConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            replicas: 2,
            queue_cap: 32,
            policy: Routing::RoundRobin,
            max_retries: 1,
            attempt_timeout: None,
            seed: 0,
            trace_sample: 0,
            network: NetworkModel::ideal(),
            preload: PreloadModel::free(),
            flight_recorder: None,
        }
    }
}

/// Error produced while spawning a server.
#[derive(Debug)]
pub enum SpawnError {
    /// The builder had no registered models.
    NoModels,
    /// A model name collided.
    Registry(RegistryError),
    /// Pinning an artifact onto a worker failed.
    Pin {
        /// The model that failed to pin.
        model: String,
        /// The deployment error.
        error: bw_gir::DeployError,
    },
    /// The configuration is unusable (zero replicas or queue capacity).
    BadConfig(
        /// What is wrong.
        String,
    ),
    /// A declared SLA budget is provably unmeetable: the model's static
    /// cycle lower bound already exceeds it, so no request could ever
    /// finish in time. The registry refuses to pin the model.
    SlaUnmeetable {
        /// The model whose budget cannot be met.
        model: String,
        /// The static lower bound on one inference, in microseconds.
        bound_us: u64,
        /// The declared budget, in microseconds.
        budget_us: u64,
    },
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::NoModels => write!(f, "no models registered"),
            SpawnError::Registry(e) => write!(f, "{e}"),
            SpawnError::Pin { model, error } => write!(f, "pinning `{model}` failed: {error}"),
            SpawnError::BadConfig(msg) => write!(f, "bad config: {msg}"),
            SpawnError::SlaUnmeetable {
                model,
                bound_us,
                budget_us,
            } => write!(
                f,
                "sla unmeetable: `{model}` has a static lower bound of \
                 {bound_us}us against a {budget_us}us budget"
            ),
        }
    }
}

impl std::error::Error for SpawnError {}

impl From<RegistryError> for SpawnError {
    fn from(e: RegistryError) -> Self {
        SpawnError::Registry(e)
    }
}

/// Pre-admission SLA gate: a request whose deadline budget the model's
/// static lower bound already exceeds is dead on arrival — reject it
/// before it is counted as submitted.
fn check_sla(model: &str, bound: Option<u64>, deadline: Duration) -> Result<(), ServeError> {
    if let Some(bound_us) = bound {
        let budget_us = u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX);
        if bound_us > budget_us {
            return Err(ServeError::SlaUnmeetable {
                model: model.to_owned(),
                bound_us,
                budget_us,
            });
        }
    }
    Ok(())
}

/// Whether `trace_sample` head sampling selects this request for the
/// trace log.
fn head_sampled(cfg: &ServerConfig, request_id: RequestId) -> bool {
    cfg.trace_sample > 0 && request_id.is_multiple_of(cfg.trace_sample)
}

/// Ceil-converts a cycle count into whole microseconds on `clock_hz`.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn cycles_to_us_ceil(cycles: u64, clock_hz: f64) -> u64 {
    #[allow(clippy::cast_precision_loss)]
    let us = (cycles as f64) * 1e6 / clock_hz;
    if !us.is_finite() {
        return u64::MAX;
    }
    us.ceil() as u64
}

pub(crate) struct ServerInner {
    /// The model registry. Behind a lock because models can be
    /// registered at runtime ([`Server::register_model`]); shard groups
    /// are fixed at spawn.
    pub registry: RwLock<ModelRegistry>,
    /// Static lower bound on one inference in microseconds per model
    /// slot (`None` where no bound is provable); grows in lockstep with
    /// the registry. Admission rejects requests whose deadline budget
    /// the bound already exceeds. Lock order: `registry` before
    /// `slot_bounds` / `model_metrics`.
    pub slot_bounds: RwLock<Vec<Option<u64>>>,
    /// Static lower bound per shard group, fixed at spawn.
    pub group_bounds: Vec<Option<u64>>,
    pub workers: Vec<WorkerHandle>,
    /// One metrics row per registry model slot; grows in lockstep with
    /// the registry. Rows are `Arc` so the request lifecycle resolves
    /// its row once at admission and never re-locks.
    pub model_metrics: RwLock<Vec<Arc<ModelMetrics>>>,
    /// One metrics row per shard group, fixed at spawn.
    pub group_metrics: Vec<Arc<ModelMetrics>>,
    /// One client↔worker link per worker, in worker order.
    pub links: Vec<LinkMetrics>,
    pub router: Router,
    pub cfg: ServerConfig,
    /// The live network model. Replaceable at runtime
    /// ([`Server::set_network`]) so a fleet controller can inject and
    /// repair link faults while traffic flows.
    pub net: RwLock<NetworkModel>,
    next_id: AtomicU64,
    /// Sampled request traces, oldest first, bounded at
    /// [`TRACE_LOG_CAP`].
    trace_log: Mutex<VecDeque<RequestTrace>>,
    /// Tail-sampled flight records, oldest first, bounded at
    /// `cfg.flight_recorder.capacity`. Empty unless the recorder is
    /// configured.
    flight_log: Mutex<VecDeque<FlightRecord>>,
    /// Extra Prometheus renderers appended to the server's own
    /// exposition — how higher layers (fleet counters, SLO/alert gauges)
    /// publish through the one TAG_PROM scrape target. Each must render
    /// a complete, valid text exposition with family names disjoint from
    /// every other contributor's.
    extra_prom: RwLock<Vec<Arc<dyn Fn() -> String + Send + Sync>>>,
}

impl ServerInner {
    fn next_request_id(&self) -> RequestId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A copy of the live network model.
    fn network(&self) -> NetworkModel {
        *self.net.read()
    }

    /// The metrics row for model slot `slot`.
    fn model_metric(&self, slot: usize) -> Arc<ModelMetrics> {
        Arc::clone(&self.model_metrics.read()[slot])
    }

    /// `(name, metrics)` rows: registry models first, then shard groups.
    fn metric_rows(&self) -> Vec<(String, Arc<ModelMetrics>)> {
        let registry = self.registry.read();
        let models = self.model_metrics.read();
        let mut rows: Vec<(String, Arc<ModelMetrics>)> = registry
            .artifacts()
            .iter()
            .zip(models.iter())
            .map(|(a, m)| (a.name().to_owned(), Arc::clone(m)))
            .collect();
        rows.extend(
            registry
                .groups()
                .iter()
                .zip(&self.group_metrics)
                .map(|(g, m)| (g.name.clone(), Arc::clone(m))),
        );
        rows
    }

    /// Per-worker model residency: `(model name, seconds pinned)` for
    /// every slot currently pinned on the worker.
    fn residency(&self) -> Vec<Vec<ModelResidency>> {
        let names: Vec<String> = {
            let registry = self.registry.read();
            registry.names().into_iter().map(str::to_owned).collect()
        };
        self.workers
            .iter()
            .map(|w| {
                w.resident_slots()
                    .into_iter()
                    .filter_map(|(slot, age)| {
                        names.get(slot).map(|n| ModelResidency {
                            model: n.clone(),
                            pinned_for_s: age.as_secs_f64(),
                        })
                    })
                    .collect()
            })
            .collect()
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            models: self
                .metric_rows()
                .into_iter()
                .map(|(name, m)| snapshot_model(&name, &m))
                .collect(),
            queue_depths: self.workers.iter().map(WorkerHandle::queue_depth).collect(),
            workers_alive: self.workers.iter().map(WorkerHandle::is_alive).collect(),
            worker_processed: self
                .workers
                .iter()
                .map(WorkerHandle::processed_count)
                .collect(),
            worker_models: self.residency(),
            link_transfers: self
                .links
                .iter()
                .map(|l| l.transfers.load(Ordering::Relaxed))
                .collect(),
            link_bytes: self
                .links
                .iter()
                .map(|l| l.bytes.load(Ordering::Relaxed))
                .collect(),
            link_busy_s: self
                .links
                .iter()
                .map(|l| l.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9)
                .collect(),
        }
    }

    fn push_trace(&self, trace: RequestTrace) {
        let mut log = self.trace_log.lock();
        if log.len() >= TRACE_LOG_CAP {
            log.pop_front();
        }
        log.push_back(trace);
    }

    /// Retains one flight record, bounded at the configured capacity
    /// (oldest dropped first). No-op when the recorder is off.
    fn push_flight(&self, record: FlightRecord) {
        let Some(fr) = self.cfg.flight_recorder else {
            return;
        };
        if fr.capacity == 0 {
            return;
        }
        let mut log = self.flight_log.lock();
        if log.len() >= fr.capacity {
            log.pop_front();
        }
        log.push_back(record);
    }

    fn prometheus(&self) -> String {
        let mut text = self.prometheus_base();
        for render in self.extra_prom.read().iter() {
            let extra = render();
            if !extra.is_empty() {
                text.push_str(&extra);
            }
        }
        text
    }

    fn prometheus_base(&self) -> String {
        let rows = self.metric_rows();
        let models: Vec<(&str, &ModelMetrics)> = rows
            .iter()
            .map(|(name, m)| (name.as_str(), m.as_ref()))
            .collect();
        let residency = self.residency();
        let workers: Vec<WorkerRow> = self
            .workers
            .iter()
            .zip(residency)
            .enumerate()
            .map(|(id, (w, resident))| WorkerRow {
                id,
                queue_depth: w.queue_depth(),
                alive: w.is_alive(),
                processed: w.processed_count(),
                resident,
            })
            .collect();
        let links: Vec<LinkRow> = self
            .links
            .iter()
            .enumerate()
            .map(|(id, l)| LinkRow {
                id,
                transfers: l.transfers.load(Ordering::Relaxed),
                bytes: l.bytes.load(Ordering::Relaxed),
                busy_s: l.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            })
            .collect();
        render_prometheus(&models, &workers, &links)
    }

    /// Records one modeled transfer leg of `bytes` over worker `worker`'s
    /// link, returning the leg's modeled seconds (zero on an ideal
    /// network). A degraded link multiplies the leg's cost. The caller
    /// decides how to sleep — parallel scatter legs overlap, so only the
    /// longest leg is slept.
    fn charge_leg(&self, worker: usize, bytes: usize) -> f64 {
        let net = self.network();
        if net.is_ideal() {
            return 0.0;
        }
        let s = net.one_way_on(worker, bytes);
        self.links[worker].record(bytes, s);
        s
    }
}

enum DispatchStopped {
    /// Every candidate's queue was full.
    AllFull,
    /// No live, untried candidate exists.
    NoReplica,
}

/// Builds a [`Server`]: register models, set the pool shape, spawn.
#[derive(Default)]
pub struct ServerBuilder {
    registry: ModelRegistry,
    cfg: ServerConfig,
    registry_error: Option<RegistryError>,
    sla_budgets: Vec<(String, Duration)>,
    placements: Vec<(String, Vec<usize>)>,
}

impl ServerBuilder {
    /// Registers a model artifact.
    pub fn model(mut self, artifact: ModelArtifact) -> Self {
        if self.registry_error.is_none() {
            if let Err(e) = self.registry.register(artifact) {
                self.registry_error = Some(e);
            }
        }
        self
    }

    /// Registers a sharded model: its member artifacts pin on disjoint
    /// owner sets and a request for the group name runs scatter/gather
    /// across them. Requires `replicas >=` the group's widest segment at
    /// spawn.
    pub fn sharded_model(mut self, sharded: ShardedArtifact) -> Self {
        if self.registry_error.is_none() {
            if let Err(e) = self.registry.register_sharded(sharded) {
                self.registry_error = Some(e);
            }
        }
        self
    }

    /// Declares a deadline budget the registry must prove `model` (a
    /// whole model or a shard group) can meet: spawn refuses with
    /// [`SpawnError::SlaUnmeetable`] if the model's static cycle lower
    /// bound already exceeds `budget`.
    pub fn sla_budget(mut self, model: impl Into<String>, budget: Duration) -> Self {
        self.sla_budgets.push((model.into(), budget));
        self
    }

    /// Sets the client↔worker network model.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.cfg.network = network;
        self
    }

    /// Sets the weight-preload cost model charged by
    /// [`Server::pin_model`].
    pub fn preload(mut self, preload: PreloadModel) -> Self {
        self.cfg.preload = preload;
        self
    }

    /// Restricts a whole model's boot-time placement to the given
    /// workers instead of pinning it everywhere. The fleet layer uses
    /// this to start a model at a small replica count and let the
    /// controller grow it. Shard-group members keep their ownership rule
    /// and cannot be placed.
    pub fn pin_on(mut self, model: impl Into<String>, workers: impl Into<Vec<usize>>) -> Self {
        self.placements.push((model.into(), workers.into()));
        self
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: ServerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the worker count.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.cfg.replicas = replicas;
        self
    }

    /// Sets the bounded per-worker queue capacity.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.cfg.queue_cap = cap;
        self
    }

    /// Sets the routing policy.
    pub fn policy(mut self, policy: Routing) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Sets the failover retry budget.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.cfg.max_retries = retries;
        self
    }

    /// Sets the per-attempt timeout.
    pub fn attempt_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.attempt_timeout = Some(timeout);
        self
    }

    /// Sets span-trace sampling: full NPU span traces for one request in
    /// every `n` (0 disables, 1 traces all).
    pub fn trace_sample(mut self, n: u64) -> Self {
        self.cfg.trace_sample = n;
        self
    }

    /// Arms the tail-sampling flight recorder: completed requests slower
    /// than `latency_objective` (and failed requests) are retained with
    /// their full span trees in a ring of `capacity` records, drained
    /// via [`Server::take_flight_records`].
    pub fn flight_recorder(mut self, latency_objective: Duration, capacity: usize) -> Self {
        self.cfg.flight_recorder = Some(FlightRecorderConfig {
            latency_objective,
            capacity,
        });
        self
    }

    /// Spawns the pool: every worker pins every whole model; shard
    /// members pin only on their owner set (worker `w` owns shard `k` of
    /// a `K`-wide segment iff `w % K == k`, so owner sets are disjoint
    /// across the segment and every shard has `replicas / K` owners).
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError`] on an empty registry, a bad configuration
    /// (including fewer replicas than the widest shard segment), or a
    /// pin failure.
    pub fn spawn(self) -> Result<Server, SpawnError> {
        if let Some(e) = self.registry_error {
            return Err(e.into());
        }
        if self.registry.is_empty() {
            return Err(SpawnError::NoModels);
        }
        if self.cfg.replicas == 0 {
            return Err(SpawnError::BadConfig("replicas must be positive".into()));
        }
        if self.cfg.queue_cap == 0 {
            return Err(SpawnError::BadConfig("queue_cap must be positive".into()));
        }
        let widest = self
            .registry
            .groups()
            .iter()
            .map(|g| g.max_width())
            .max()
            .unwrap_or(1);
        if self.cfg.replicas < widest {
            return Err(SpawnError::BadConfig(format!(
                "{} replicas cannot host a {widest}-shard segment (one distinct worker per shard)",
                self.cfg.replicas
            )));
        }

        // Static admission bounds: one row per registry slot, then one
        // per shard group (stage bounds add; scatter/gather members take
        // the max — the gather waits on the slowest shard).
        let slot_bounds: Vec<Option<u64>> = self
            .registry
            .artifacts()
            .iter()
            .map(|a| {
                a.static_bounds()
                    .map(|b| cycles_to_us_ceil(b.lower, a.config().clock_hz()))
            })
            .collect();
        let mut group_bounds = Vec::with_capacity(self.registry.groups().len());
        for group in self.registry.groups() {
            let total = group.segments.iter().try_fold(0u64, |acc, segment| {
                let slowest = segment
                    .members()
                    .iter()
                    .map(|&m| slot_bounds[m])
                    .try_fold(0u64, |mx, b| b.map(|v| mx.max(v)))?;
                Some(acc.saturating_add(slowest))
            });
            group_bounds.push(total);
        }

        // Declared budgets are a registration-time contract: refuse to
        // pin a model whose bound proves its budget unmeetable.
        for (model, budget) in &self.sla_budgets {
            let bound = self
                .registry
                .index_of(model)
                .map(|s| slot_bounds[s])
                .or_else(|| self.registry.group_index_of(model).map(|g| group_bounds[g]));
            let Some(bound) = bound else {
                return Err(SpawnError::BadConfig(format!(
                    "sla budget declared for unregistered model `{model}`"
                )));
            };
            let Some(bound) = bound else {
                return Err(SpawnError::BadConfig(format!(
                    "sla budget declared for `{model}` but no static cycle \
                     bound is provable"
                )));
            };
            let budget_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
            if bound > budget_us {
                return Err(SpawnError::SlaUnmeetable {
                    model: model.clone(),
                    bound_us: bound,
                    budget_us,
                });
            }
        }

        // Shard ownership: slot -> (shard ordinal, segment width). Group
        // membership (sharded or single-segment) disqualifies a slot
        // from explicit placement.
        let mut shard_of: Vec<Option<(usize, usize)>> = vec![None; self.registry.len()];
        let mut in_group: Vec<bool> = vec![false; self.registry.len()];
        for group in self.registry.groups() {
            for segment in &group.segments {
                for slot in segment.members() {
                    in_group[slot] = true;
                }
                if let GroupSegment::Sharded(members) = segment {
                    for (k, &slot) in members.iter().enumerate() {
                        shard_of[slot] = Some((k, members.len()));
                    }
                }
            }
        }

        // Explicit boot placements: whole models only, on known workers,
        // at least one replica each.
        let mut placement_of: Vec<Option<Vec<usize>>> = vec![None; self.registry.len()];
        for (model, workers) in &self.placements {
            let Some(slot) = self.registry.index_of(model) else {
                return Err(SpawnError::BadConfig(format!(
                    "placement declared for unregistered model `{model}`"
                )));
            };
            if in_group[slot] {
                return Err(SpawnError::BadConfig(format!(
                    "placement declared for shard-group member `{model}`"
                )));
            }
            if workers.is_empty() {
                return Err(SpawnError::BadConfig(format!(
                    "placement for `{model}` names no workers"
                )));
            }
            if let Some(&bad) = workers.iter().find(|&&w| w >= self.cfg.replicas) {
                return Err(SpawnError::BadConfig(format!(
                    "placement for `{model}` names worker {bad} but the pool \
                     has {} replicas",
                    self.cfg.replicas
                )));
            }
            placement_of[slot] = Some(workers.clone());
        }

        let mut workers = Vec::with_capacity(self.cfg.replicas);
        for id in 0..self.cfg.replicas {
            let mut pinned = Vec::with_capacity(self.registry.len());
            for (slot, artifact) in self.registry.artifacts().iter().enumerate() {
                let owns = shard_of[slot].is_none_or(|(k, width)| id % width == k)
                    && placement_of[slot]
                        .as_ref()
                        .is_none_or(|set| set.contains(&id));
                if !owns {
                    pinned.push(None);
                    continue;
                }
                let pin = artifact.pin().map_err(|error| SpawnError::Pin {
                    model: artifact.name().to_owned(),
                    error,
                })?;
                pinned.push(Some(pin));
            }
            workers.push(spawn_worker(id, pinned, self.cfg.queue_cap));
        }

        let model_metrics = (0..self.registry.len())
            .map(|_| Arc::new(ModelMetrics::default()))
            .collect();
        let group_metrics = (0..self.registry.groups().len())
            .map(|_| Arc::new(ModelMetrics::default()))
            .collect();
        let links = (0..self.cfg.replicas)
            .map(|_| LinkMetrics::default())
            .collect();
        Ok(Server {
            inner: Arc::new(ServerInner {
                router: Router::new(self.cfg.policy, self.cfg.seed),
                registry: RwLock::new(self.registry),
                slot_bounds: RwLock::new(slot_bounds),
                group_bounds,
                workers,
                model_metrics: RwLock::new(model_metrics),
                group_metrics,
                links,
                net: RwLock::new(self.cfg.network),
                cfg: self.cfg,
                next_id: AtomicU64::new(1),
                trace_log: Mutex::new(VecDeque::new()),
                flight_log: Mutex::new(VecDeque::new()),
                extra_prom: RwLock::new(Vec::new()),
            }),
        })
    }
}

/// Error produced by the runtime pin/unpin control plane
/// ([`Server::pin_model`], [`Server::unpin_model`],
/// [`Server::drain_worker`]).
#[derive(Debug)]
pub enum PinError {
    /// The model name is not registered.
    UnknownModel(
        /// The unknown name.
        String,
    ),
    /// The name addresses a shard group; groups have fixed placement.
    GroupName(
        /// The group name.
        String,
    ),
    /// The worker id is outside the pool.
    UnknownWorker(
        /// The unknown id.
        usize,
    ),
    /// The worker is dead and cannot serve control operations.
    WorkerDead(
        /// The dead worker's id.
        usize,
    ),
    /// The model is already pinned on that worker.
    AlreadyPinned {
        /// The model.
        model: String,
        /// The worker already holding it.
        worker: usize,
    },
    /// The model is not pinned on that worker.
    NotPinned {
        /// The model.
        model: String,
        /// The worker.
        worker: usize,
    },
    /// Refusing to unpin the last live replica: doing so would strand
    /// the model with no serving capacity. Pin another replica first
    /// (that is what migration's dual-pin phase does).
    LastReplica {
        /// The model.
        model: String,
    },
    /// Deploying the artifact onto the simulated device failed.
    Pin {
        /// The model.
        model: String,
        /// The deployment error.
        error: bw_gir::DeployError,
    },
}

impl std::fmt::Display for PinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinError::UnknownModel(m) => write!(f, "unknown model `{m}`"),
            PinError::GroupName(m) => {
                write!(f, "`{m}` is a shard group; groups have fixed placement")
            }
            PinError::UnknownWorker(w) => write!(f, "unknown worker {w}"),
            PinError::WorkerDead(w) => write!(f, "worker {w} is dead"),
            PinError::AlreadyPinned { model, worker } => {
                write!(f, "`{model}` is already pinned on worker {worker}")
            }
            PinError::NotPinned { model, worker } => {
                write!(f, "`{model}` is not pinned on worker {worker}")
            }
            PinError::LastReplica { model } => {
                write!(f, "refusing to unpin the last live replica of `{model}`")
            }
            PinError::Pin { model, error } => write!(f, "pinning `{model}` failed: {error}"),
        }
    }
}

impl std::error::Error for PinError {}

/// A running serving pool. Dropping the server stops every worker after
/// the work already queued (injected-fault workers stop immediately).
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Starts building a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// An in-process client for this server. Clients are cheap to clone
    /// and usable from any thread.
    pub fn client(&self) -> Client {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// Number of workers (live or dead).
    pub fn worker_count(&self) -> usize {
        self.inner.workers.len()
    }

    /// Per-worker liveness, in worker order.
    pub fn workers_alive(&self) -> Vec<bool> {
        self.inner
            .workers
            .iter()
            .map(WorkerHandle::is_alive)
            .collect()
    }

    /// Injects a fault into worker `id`: it stops accepting work
    /// immediately and its thread dies at the next queue pop, dropping
    /// queued jobs (their requests fail over). Returns `false` for an
    /// unknown id.
    pub fn kill_worker(&self, id: usize) -> bool {
        match self.inner.workers.get(id) {
            Some(w) => {
                w.kill();
                true
            }
            None => false,
        }
    }

    /// Pins `model` onto worker `worker` at runtime, paying the
    /// configured weight-preload cost: the worker is busy streaming
    /// weights for the modeled interval (queued work waits behind it)
    /// and the preload transfer is charged against the worker's link.
    /// Returns the simulated preload duration. The model becomes
    /// routable the moment the worker finishes the preload.
    ///
    /// # Errors
    ///
    /// Returns [`PinError`] on an unknown model/worker, a shard-group
    /// name, a dead worker, a double pin, or a deployment failure.
    pub fn pin_model(&self, model: &str, worker: usize) -> Result<Duration, PinError> {
        let inner = &self.inner;
        let Some(handle) = inner.workers.get(worker) else {
            return Err(PinError::UnknownWorker(worker));
        };
        if !handle.is_alive() {
            return Err(PinError::WorkerDead(worker));
        }
        let (slot, artifact) = {
            let registry = inner.registry.read();
            if registry.group_index_of(model).is_some() {
                return Err(PinError::GroupName(model.to_owned()));
            }
            let Some(slot) = registry.index_of(model) else {
                return Err(PinError::UnknownModel(model.to_owned()));
            };
            (slot, Arc::clone(registry.get(slot).expect("slot valid")))
        };
        if handle.pins(slot) {
            return Err(PinError::AlreadyPinned {
                model: model.to_owned(),
                worker,
            });
        }
        // Deploy on the caller's thread; the worker only sleeps the
        // modeled preload and installs the finished instance.
        let pin = artifact.pin().map_err(|error| PinError::Pin {
            model: model.to_owned(),
            error,
        })?;
        let bytes = usize::try_from(artifact.mrf_fill_bytes()).unwrap_or(usize::MAX);
        let net = inner.network();
        let preload_s = inner.cfg.preload.preload_s(bytes, &net, worker);
        if preload_s > 0.0 && bytes > 0 {
            inner.links[worker].record(bytes, preload_s);
        }
        handle
            .control(Control::Pin {
                slot,
                model: Box::new(pin),
                preload_s,
            })
            .map_err(|_| PinError::WorkerDead(worker))?;
        Ok(Duration::from_secs_f64(preload_s))
    }

    /// Unpins `model` from worker `worker`. Routing stops immediately;
    /// jobs already queued on the worker still drain (the unpin rides
    /// the same FIFO queue), so in-flight requests are never dropped.
    ///
    /// # Errors
    ///
    /// Returns [`PinError`]; notably [`PinError::LastReplica`] when the
    /// unpin would leave the model with no live replica.
    pub fn unpin_model(&self, model: &str, worker: usize) -> Result<(), PinError> {
        let inner = &self.inner;
        let Some(handle) = inner.workers.get(worker) else {
            return Err(PinError::UnknownWorker(worker));
        };
        let slot = {
            let registry = inner.registry.read();
            if registry.group_index_of(model).is_some() {
                return Err(PinError::GroupName(model.to_owned()));
            }
            let Some(slot) = registry.index_of(model) else {
                return Err(PinError::UnknownModel(model.to_owned()));
            };
            slot
        };
        if !handle.pins(slot) {
            return Err(PinError::NotPinned {
                model: model.to_owned(),
                worker,
            });
        }
        let live_replicas = inner
            .workers
            .iter()
            .filter(|w| w.is_alive() && w.pins(slot))
            .count();
        if handle.is_alive() && live_replicas <= 1 {
            return Err(PinError::LastReplica {
                model: model.to_owned(),
            });
        }
        // Clear the routing flag first so no new work lands, then let
        // the queued unpin drain behind the work already accepted. A
        // worker that died in between has already dropped its queue;
        // the unpin still holds.
        handle.clear_pin(slot);
        let _ = handle.control(Control::Unpin { slot });
        Ok(())
    }

    /// Blocks until every job worker `worker` had queued when the call
    /// was made has been served (a FIFO barrier). Returns immediately
    /// for a dead worker — its queue is already gone.
    ///
    /// # Errors
    ///
    /// Returns [`PinError::UnknownWorker`] for an id outside the pool.
    pub fn drain_worker(&self, worker: usize) -> Result<(), PinError> {
        let Some(handle) = self.inner.workers.get(worker) else {
            return Err(PinError::UnknownWorker(worker));
        };
        let _ = handle.control(Control::Flush);
        Ok(())
    }

    /// Registers a whole model at runtime without pinning it anywhere;
    /// follow with [`Server::pin_model`] to give it capacity. Returns
    /// the model's registry slot.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] on a name collision.
    pub fn register_model(&self, artifact: ModelArtifact) -> Result<usize, RegistryError> {
        let bound = artifact
            .static_bounds()
            .map(|b| cycles_to_us_ceil(b.lower, artifact.config().clock_hz()));
        let inner = &self.inner;
        let mut registry = inner.registry.write();
        let slot = registry.register(artifact)?;
        // Grown under the registry write lock so readers never observe a
        // model without its bound and metrics rows.
        inner.slot_bounds.write().push(bound);
        inner
            .model_metrics
            .write()
            .push(Arc::new(ModelMetrics::default()));
        Ok(slot)
    }

    /// Replaces the live network model (fault injection and repair).
    /// Routing, transfer charging, and preload costs see the new model
    /// immediately; requests already sleeping a leg finish at the old
    /// cost.
    pub fn set_network(&self, net: NetworkModel) {
        *self.inner.net.write() = net;
    }

    /// A copy of the live network model.
    pub fn network(&self) -> NetworkModel {
        self.inner.network()
    }

    /// The live workers currently pinning `model`, in worker order
    /// (empty for an unknown name).
    pub fn pinned_workers(&self, model: &str) -> Vec<usize> {
        let Some(slot) = self.inner.registry.read().index_of(model) else {
            return Vec::new();
        };
        self.inner
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_alive() && w.pins(slot))
            .map(|(id, _)| id)
            .collect()
    }

    /// What pinning `model` onto `worker` would cost right now, given
    /// the live network model (None for an unknown model).
    pub fn preload_cost(&self, model: &str, worker: usize) -> Option<Duration> {
        let bytes = {
            let registry = self.inner.registry.read();
            usize::try_from(registry.lookup(model)?.mrf_fill_bytes()).unwrap_or(usize::MAX)
        };
        let net = self.inner.network();
        Some(Duration::from_secs_f64(
            self.inner.cfg.preload.preload_s(bytes, &net, worker),
        ))
    }

    /// A point-in-time metrics reading.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// The live metrics as a Prometheus text exposition (format 0.0.4).
    pub fn prometheus(&self) -> String {
        self.inner.prometheus()
    }

    /// Drains the sampled request traces collected so far (oldest
    /// first). Traces accumulate only when `trace_sample > 0`; the log
    /// keeps the most recent 256.
    pub fn take_traces(&self) -> Vec<RequestTrace> {
        self.inner.trace_log.lock().drain(..).collect()
    }

    /// Drains the tail-sampled flight records collected so far (oldest
    /// first): the full span tree of every request that breached the
    /// configured latency objective or failed, bounded at the
    /// recorder's capacity. Empty unless
    /// [`ServerBuilder::flight_recorder`] armed the recorder.
    pub fn take_flight_records(&self) -> Vec<FlightRecord> {
        self.inner.flight_log.lock().drain(..).collect()
    }

    /// Registers an extra Prometheus renderer whose output is appended
    /// to this server's exposition — every scrape of
    /// [`Server::prometheus`] (and the TCP `TAG_PROM` endpoint) then
    /// serves the combined document, so one scrape target carries
    /// serve, fleet, and SLO series together. `render` must produce a
    /// complete, valid text exposition whose family names are disjoint
    /// from the server's own (`bw_requests_*`, `bw_request_*`,
    /// `bw_npu_*`, `bw_worker_*`, `bw_link_*`) and from every other
    /// registered source.
    pub fn add_prometheus_source(&self, render: impl Fn() -> String + Send + Sync + 'static) {
        self.inner.extra_prom.write().push(Arc::new(render));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        for worker in &self.inner.workers {
            worker.stop_and_join();
        }
    }
}

/// An in-process handle for submitting requests.
#[derive(Clone)]
pub struct Client {
    inner: Arc<ServerInner>,
}

impl Client {
    /// Validates, admits, and dispatches a request; the returned
    /// [`Pending`] drives the rest of the lifecycle. `deadline` is the
    /// total end-to-end budget from this call.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] / [`ServeError::BadInput`]
    /// before admission (not counted), or [`ServeError::Shed`] /
    /// [`ServeError::NoReplica`] at admission (counted).
    pub fn submit(
        &self,
        model: &str,
        input: &[f32],
        deadline: Duration,
    ) -> Result<Pending, ServeError> {
        let item = BatchItem::new(input.to_vec(), deadline);
        let (mut rejected, life) = self.admit(model, std::slice::from_ref(&item), false)?;
        if let Some(err) = rejected.pop().flatten() {
            return Err(err);
        }
        let life = life.expect("an admitted request has a lifecycle");
        match &life.cols[0].outcome {
            Some(Err(err)) => Err(err.clone()),
            _ => Ok(Pending { life }),
        }
    }

    /// [`Client::submit`] + [`Pending::wait`] in one call.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`] and [`Pending::wait`].
    pub fn call(
        &self,
        model: &str,
        input: &[f32],
        deadline: Duration,
    ) -> Result<Response, ServeError> {
        self.submit(model, input, deadline)?.wait()
    }

    /// Serves a coalesced micro-batch of same-model requests as **one**
    /// multi-column dispatch per shard, splitting the result back into
    /// one [`Response`] (or [`ServeError`]) per member, in input order.
    ///
    /// The admission ledger treats every member as its own request:
    /// each gets a request id, counts toward `submitted` when admitted,
    /// and terminates exactly once as completed, shed, or failed — the
    /// accounting identity holds under coalescing, including mid-batch
    /// worker kill (the whole batch fails over together; members whose
    /// deadlines lapse fail individually). Members that fail validation
    /// ([`ServeError::BadInput`], [`ServeError::SlaUnmeetable`]) are
    /// rejected without admission and without blocking the rest.
    ///
    /// Latency is measured from each member's [`BatchItem::arrived_at`],
    /// so time spent coalescing in a batcher window is charged to the
    /// request that waited. Shard groups coalesce too: every shard of
    /// every stage runs all k columns in one dispatch.
    pub fn call_batch(
        &self,
        model: &str,
        items: &[BatchItem],
    ) -> Vec<Result<Response, ServeError>> {
        let (rejected, life) = match self.admit(model, items, true) {
            Ok(admitted) => admitted,
            Err(err) => return items.iter().map(|_| Err(err.clone())).collect(),
        };
        let mut served = life.map(Lifecycle::run).unwrap_or_default().into_iter();
        rejected
            .into_iter()
            .map(|r| match r {
                Some(err) => Err(err),
                None => served.next().expect("one outcome per admitted member"),
            })
            .collect()
    }

    /// Admission, shared by every request shape: resolves `model` to its
    /// stage plan, validates each item (a rejected item is `Some` in the
    /// returned list and never counts as submitted), counts the rest as
    /// submitted, and dispatches stage 0 of them as one k-column
    /// [`Lifecycle`]. A full pool sheds here and only here.
    fn admit(
        &self,
        model: &str,
        items: &[BatchItem],
        batched: bool,
    ) -> Result<(Vec<Option<ServeError>>, Option<Lifecycle>), ServeError> {
        let inner = &self.inner;
        let (metrics, bound, input_dim, plan, members) = {
            let registry = inner.registry.read();
            if let Some(g) = registry.group_index_of(model) {
                let group = registry.group(g).expect("index valid");
                let plan = group.segments.iter().map(GroupSegment::members).collect();
                let metrics = Arc::clone(&inner.group_metrics[g]);
                (metrics, inner.group_bounds[g], group.input_dim, plan, true)
            } else if let Some(slot) = registry.index_of(model) {
                let input_dim = registry.get(slot).expect("index valid").input_dim();
                let bound = inner.slot_bounds.read()[slot];
                let metrics = inner.model_metric(slot);
                (metrics, bound, input_dim, vec![vec![slot]], false)
            } else {
                return Err(ServeError::UnknownModel(model.to_owned()));
            }
        };
        let now = Instant::now();
        let rejected: Vec<Option<ServeError>> = items
            .iter()
            .map(|item| {
                if item.input.len() != input_dim {
                    return Some(ServeError::BadInput {
                        expected: input_dim,
                        got: item.input.len(),
                    });
                }
                check_sla(model, bound, item.slack(now)).err()
            })
            .collect();
        let admitted: Vec<&BatchItem> = items
            .iter()
            .zip(&rejected)
            .filter_map(|(item, r)| r.is_none().then_some(item))
            .collect();
        if admitted.is_empty() {
            return Ok((rejected, None));
        }
        let k = admitted.len() as u64;
        metrics.submitted.fetch_add(k, Ordering::Relaxed);
        if batched {
            metrics.batches.fetch_add(1, Ordering::Relaxed);
            metrics.batched_requests.fetch_add(k, Ordering::Relaxed);
        }
        let cols: Vec<Column> = admitted
            .iter()
            .map(|item| Column {
                id: inner.next_request_id(),
                arrived_at: item.arrived_at,
                deadline_at: item.deadline_at,
                outcome: None,
            })
            .collect();
        // The flight recorder decides retention at termination, but
        // workers only emit spans when asked at dispatch — so an armed
        // recorder traces every request and discards the uninteresting
        // ones, while head sampling keeps feeding the trace log.
        let collect_spans = cols.iter().any(|c| head_sampled(&inner.cfg, c.id))
            || inner.cfg.flight_recorder.is_some();
        let mut life = Lifecycle {
            inner: Arc::clone(inner),
            name: model.to_owned(),
            metrics,
            plan,
            members,
            deadline: cols.iter().map(|c| c.deadline_at).max().expect("k >= 1"),
            trace_id: cols[0].id,
            cols,
            collect_spans,
            stage: 0,
            shards: Vec::new(),
            carry: Arc::new(admitted.iter().map(|item| item.input.clone()).collect()),
            retries: 0,
            queue_wait_s: 0.0,
            service_s: 0.0,
            network_s: 0.0,
            stats: RunStats::default(),
            spans: Vec::new(),
            last_worker: 0,
        };
        match life.dispatch_stage() {
            Ok(()) => {}
            Err(DispatchStopped::AllFull) => life.fail(Some(Why::Shed)),
            Err(DispatchStopped::NoReplica) => life.fail(Some(Why::NoReplica)),
        }
        Ok((rejected, Some(life)))
    }

    /// A point-in-time metrics reading (same as [`Server::metrics`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// The live metrics as a Prometheus text exposition (same as
    /// [`Server::prometheus`]).
    pub fn prometheus(&self) -> String {
        self.inner.prometheus()
    }

    /// The static lower bound on one inference of `model` in
    /// microseconds, when provable (whole models and shard groups
    /// alike). This is the bound admission compares deadlines against.
    pub fn static_bound_us(&self, model: &str) -> Option<u64> {
        let inner = &self.inner;
        let registry = inner.registry.read();
        if let Some(slot) = registry.index_of(model) {
            return inner.slot_bounds.read()[slot];
        }
        registry
            .group_index_of(model)
            .and_then(|g| inner.group_bounds[g])
    }

    /// The input width `model` expects, if registered (whole models and
    /// shard groups alike).
    pub fn input_dim_of(&self, model: &str) -> Option<usize> {
        let registry = self.inner.registry.read();
        registry.lookup(model).map(|a| a.input_dim()).or_else(|| {
            registry
                .group_index_of(model)
                .and_then(|g| registry.group(g))
                .map(|g| g.input_dim)
        })
    }

    /// Addressable model names: registry models in index order, then
    /// shard-group names.
    pub fn model_names(&self) -> Vec<String> {
        let registry = self.inner.registry.read();
        let mut names: Vec<String> = registry.names().into_iter().map(str::to_owned).collect();
        names.extend(registry.groups().iter().map(|g| g.name.clone()));
        names
    }
}

/// One member of a coalesced micro-batch handed to
/// [`Client::call_batch`]. Deadlines are absolute so a batcher can hold
/// a request without eroding its budget bookkeeping, and `arrived_at`
/// anchors the member's reported latency to when it actually entered
/// the system (not when the batch flushed).
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The member's input vector.
    pub input: Vec<f32>,
    /// Absolute deadline for this member.
    pub deadline_at: Instant,
    /// When the member entered the system (latency epoch).
    pub arrived_at: Instant,
}

impl BatchItem {
    /// A member arriving now with a relative deadline budget.
    pub fn new(input: Vec<f32>, deadline: Duration) -> BatchItem {
        let now = Instant::now();
        BatchItem {
            input,
            deadline_at: now + deadline,
            arrived_at: now,
        }
    }

    /// The member's remaining deadline slack from `now`.
    pub fn slack(&self, now: Instant) -> Duration {
        self.deadline_at.saturating_duration_since(now)
    }
}

/// An admitted, dispatched request (whole-model or shard-group). Call
/// [`Pending::wait`] to drive failover and obtain the outcome. Dropping
/// an unwaited `Pending` records the request as failed (abandoned),
/// keeping the metrics identity intact.
pub struct Pending {
    life: Lifecycle,
}

impl Pending {
    /// The server-assigned request id.
    pub fn request_id(&self) -> RequestId {
        self.life.cols[0].id
    }

    /// Drives the request to termination: waits on every shard of the
    /// current stage, failing over to replicas on fault, death, or
    /// attempt timeout, until completion, the deadline, or the retry
    /// budget ends it.
    ///
    /// # Errors
    ///
    /// Returns the terminal [`ServeError`]; every error path is recorded
    /// in the metrics exactly once.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.life.run().pop().expect("one column")
    }
}

/// One admitted request riding a [`Lifecycle`].
struct Column {
    id: RequestId,
    /// When the request entered the system (latency epoch).
    arrived_at: Instant,
    deadline_at: Instant,
    /// The terminal outcome, set exactly once.
    outcome: Option<Result<Response, ServeError>>,
}

/// One shard of the in-flight stage.
struct Shard {
    /// The registry slot this shard runs.
    slot: usize,
    /// Attempt ordinal (monotone across this shard's failovers).
    attempt: u32,
    /// Workers that already tried this shard.
    tried: Vec<usize>,
    /// Failover retries this shard consumed.
    retries: u32,
    /// When the shard's first attempt was dispatched (member latency).
    dispatched_at: Instant,
    rx: Receiver<Completion>,
    /// The gathered result, once the shard completes.
    done: Option<Served>,
}

/// Why the open columns of a lifecycle end without a response.
enum Why {
    Shed,
    Deadline,
    Fault(String),
    NoReplica,
}

/// The one request lifecycle: **k columns over a plan of stages, each
/// stage fanned out over shards.** Batch-1 is k = 1, a coalesced batch
/// is k > 1; a whole model is one stage with one shard (its own slot),
/// a shard group is its segment plan.
///
/// Stages run in plan order. For each stage the lifecycle scatters the
/// carried columns to one owner per shard as one multi-column job,
/// gathers every shard in shard order (driving per-shard failover within
/// the retry budget), charges the stage's network once, concatenates the
/// row-shard outputs per column in shard order, and feeds the next
/// stage. Every column terminates exactly once on the addressed row;
/// shards of a group also account on their member rows, one count per
/// dispatch, and attempts abandoned by a terminal error fail there.
struct Lifecycle {
    inner: Arc<ServerInner>,
    /// The addressed model or group name.
    name: String,
    /// The addressed metrics row, resolved at admission.
    metrics: Arc<ModelMetrics>,
    /// Registry slots per stage, in shard order.
    plan: Vec<Vec<usize>>,
    /// Whether shards are group members with their own metrics rows
    /// (otherwise the one shard is the addressed model itself).
    members: bool,
    cols: Vec<Column>,
    /// The latest column deadline: the job expiry and the wait budget.
    deadline: Instant,
    trace_id: u64,
    collect_spans: bool,
    /// Stage currently in flight (index into `plan`).
    stage: usize,
    shards: Vec<Shard>,
    /// The in-flight stage's input, one vector per column.
    carry: Arc<Vec<Vec<f32>>>,
    /// Total failover retries across all shards and stages.
    retries: u32,
    queue_wait_s: f64,
    service_s: f64,
    network_s: f64,
    stats: RunStats,
    spans: Vec<SpanRecord>,
    last_worker: usize,
}

impl Lifecycle {
    /// Drives every column to termination and returns the outcomes in
    /// column order.
    fn run(mut self) -> Vec<Result<Response, ServeError>> {
        while self.cols.iter().any(|c| c.outcome.is_none()) {
            if let Err(why) = self.gather() {
                self.fail(Some(why));
                continue;
            }
            self.finish_stage();
            self.stage += 1;
            if self.stage == self.plan.len() {
                self.complete();
            } else if self.dispatch_stage().is_err() {
                // Post-admission: shedding is an admission-time outcome,
                // so a mid-pipeline full pool is a failure.
                self.fail(Some(Why::NoReplica));
            }
        }
        std::mem::take(&mut self.cols)
            .into_iter()
            .map(|c| c.outcome.expect("every column settled"))
            .collect()
    }

    /// The metrics row of shard slot `slot`, when it is a group member.
    fn member_row(&self, slot: usize) -> Option<Arc<ModelMetrics>> {
        self.members.then(|| self.inner.model_metric(slot))
    }

    /// Walks the router's plan and enqueues the carried columns for
    /// `slot` on the first replica that both pins the slot and is
    /// reachable over a live link, skipping `tried`.
    fn dispatch(
        &self,
        slot: usize,
        attempt: u32,
        tried: &[usize],
    ) -> Result<(usize, Receiver<Completion>), DispatchStopped> {
        let inner = &self.inner;
        let net = inner.network();
        let plan = inner.router.plan_eligible(&inner.workers, tried, |w| {
            inner.workers[w].pins(slot) && net.link_up(w)
        });
        if plan.is_empty() {
            return Err(DispatchStopped::NoReplica);
        }
        let mut all_full = true;
        for worker in plan {
            let (tx, rx) = std::sync::mpsc::channel();
            let job = Job {
                attempt,
                model: slot,
                payload: Arc::clone(&self.carry),
                deadline: self.deadline,
                reply: tx,
                trace_id: self.trace_id,
                enqueued_at: Instant::now(),
                collect_spans: self.collect_spans,
            };
            match inner.workers[worker].try_dispatch(job) {
                Ok(()) => return Ok((worker, rx)),
                Err(DispatchRefused::QueueFull) => {}
                Err(DispatchRefused::Dead) => all_full = false,
            }
        }
        Err(if all_full {
            DispatchStopped::AllFull
        } else {
            DispatchStopped::NoReplica
        })
    }

    /// Dispatches every shard of the current stage. On error the
    /// already-dispatched shards stay in `shards` for terminal
    /// accounting.
    fn dispatch_stage(&mut self) -> Result<(), DispatchStopped> {
        for shard in 0..self.plan[self.stage].len() {
            let slot = self.plan[self.stage][shard];
            let row = self.member_row(slot);
            if let Some(row) = &row {
                row.submitted.fetch_add(1, Ordering::Relaxed);
            }
            match self.dispatch(slot, 0, &[]) {
                Ok((worker, rx)) => self.shards.push(Shard {
                    slot,
                    attempt: 0,
                    tried: vec![worker],
                    retries: 0,
                    dispatched_at: Instant::now(),
                    rx,
                    done: None,
                }),
                Err(stop) => {
                    // Admitted on the member row but never dispatched.
                    if let Some(row) = row {
                        row.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(stop);
                }
            }
        }
        Ok(())
    }

    /// Waits for every shard of the in-flight stage, in shard order,
    /// driving per-shard failover, until the stage gathers or the
    /// lifecycle becomes terminal.
    fn gather(&mut self) -> Result<(), Why> {
        let mut i = 0;
        while i < self.shards.len() {
            let now = Instant::now();
            if now >= self.deadline {
                return Err(Why::Deadline);
            }
            let budget = self.deadline - now;
            let slice = self
                .inner
                .cfg
                .attempt_timeout
                .map_or(budget, |t| t.min(budget));
            let shard = &self.shards[i];
            match shard.rx.recv_timeout(slice) {
                Ok(Completion::Done(served)) if served.attempt == shard.attempt => {
                    if let Some(row) = self.member_row(shard.slot) {
                        // Network legs are attributed on the addressed row.
                        row.record_completed(shard.dispatched_at.elapsed().as_secs_f64());
                        row.record_attribution(
                            served.queue_wait_s,
                            served.service_s,
                            0.0,
                            &served.stats,
                        );
                    }
                    self.shards[i].done = Some(served);
                    i += 1;
                }
                Ok(Completion::Fault {
                    attempt,
                    worker,
                    message,
                }) if attempt == shard.attempt => {
                    self.failover(i, Some(format!("worker {worker}: {message}")))?;
                }
                // The worker saw the job after its deadline: terminal.
                Ok(Completion::Expired { attempt }) if attempt == shard.attempt => {
                    return Err(Why::Deadline);
                }
                // A stale attempt; keep waiting.
                Ok(_) => {}
                // Out of budget: the deadline check above ends it.
                Err(RecvTimeoutError::Timeout) if Instant::now() >= self.deadline => {}
                // Attempt timeout with budget left, or the worker died
                // with the job (injected fault or shutdown): fail over.
                Err(_) => self.failover(i, None)?,
            }
        }
        Ok(())
    }

    /// Re-dispatches shard `i` to an untried owner, or says why the
    /// lifecycle is terminal instead.
    fn failover(&mut self, i: usize, fault: Option<String>) -> Result<(), Why> {
        if self.shards[i].retries >= self.inner.cfg.max_retries {
            return Err(fault.map_or(Why::Deadline, Why::Fault));
        }
        // Every column the retried shard carries counts one retry.
        let k = self.cols.len() as u64;
        self.retries += 1;
        self.metrics.retries.fetch_add(k, Ordering::Relaxed);
        if let Some(row) = self.member_row(self.shards[i].slot) {
            row.retries.fetch_add(k, Ordering::Relaxed);
        }
        let shard = &self.shards[i];
        let (slot, attempt) = (shard.slot, shard.attempt + 1);
        let (worker, rx) = self
            .dispatch(slot, attempt, &shard.tried)
            .map_err(|_| fault.map_or(Why::NoReplica, Why::Fault))?;
        let shard = &mut self.shards[i];
        shard.retries += 1;
        shard.attempt = attempt;
        shard.tried.push(worker);
        shard.rx = rx;
        Ok(())
    }

    /// Charges the stage's network legs, accumulates attribution and
    /// spans, and concatenates each column's shard outputs (in shard
    /// order) into the next stage's input.
    ///
    /// Per shard, one input message and one output message carry every
    /// column, so the per-message hop is paid once per direction and
    /// amortized over the columns. The shards run in parallel, so the
    /// stage's queue wait, service, and network are each the slowest
    /// shard's; the network is slept once and, like service, each
    /// column is attributed a 1/k share.
    fn finish_stage(&mut self) {
        let inner = Arc::clone(&self.inner);
        let k = self.cols.len();
        let in_bytes: usize = self.carry.iter().map(|c| c.len() * 4).sum();
        let (mut net_s, mut queue_s, mut service_s) = (0.0f64, 0.0f64, 0.0f64);
        let mut gathered = vec![Vec::new(); k];
        for (ordinal, shard) in std::mem::take(&mut self.shards).into_iter().enumerate() {
            let done = shard.done.expect("stage gathered");
            let out_bytes: usize = done.outputs.iter().map(|o| o.len() * 4).sum();
            let leg_s =
                inner.charge_leg(done.worker, in_bytes) + inner.charge_leg(done.worker, out_bytes);
            net_s = net_s.max(leg_s);
            queue_s = queue_s.max(done.queue_wait_s);
            service_s = service_s.max(done.service_s);
            self.stats.accumulate(&done.stats);
            self.last_worker = done.worker;
            if self.collect_spans {
                // Re-stamp a member's NPU spans with its owning worker
                // as the device, so a gathered trace reads as the
                // spatially distributed execution it was.
                for mut span in done.spans {
                    if self.members {
                        span.device = done.worker as u32;
                    }
                    self.spans.push(span);
                }
                if leg_s > 0.0 {
                    let clock_hz = inner
                        .registry
                        .read()
                        .get(shard.slot)
                        .map_or(0.0, |a| a.config().clock_hz());
                    self.spans.push(SpanRecord {
                        trace_id: self.trace_id,
                        device: done.worker as u32,
                        kind: SpanKind::NetTransfer,
                        chain: ordinal as u64 + 1,
                        start_cycle: 0,
                        end_cycle: (leg_s * clock_hz) as u64,
                    });
                }
            }
            for (column, output) in gathered.iter_mut().zip(done.outputs) {
                column.extend(output);
            }
        }
        if net_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(net_s));
        }
        self.network_s += net_s / k as f64;
        self.queue_wait_s += queue_s;
        self.service_s += service_s / k as f64;
        self.carry = Arc::new(gathered);
    }

    /// Settles every column after the last stage: a column that finished
    /// at or after its own deadline fails; the rest complete, each with
    /// its latency from arrival and an exact integer share of the
    /// accelerator counters (remainders to the earliest columns, so the
    /// per-model totals equal the dispatched totals).
    fn complete(&mut self) {
        let cfg = self.inner.cfg;
        let completed_at = Instant::now();
        let k = self.cols.len() as u64;
        let outputs =
            Arc::try_unwrap(std::mem::take(&mut self.carry)).unwrap_or_else(|c| c.to_vec());
        for (p, output) in outputs.into_iter().enumerate() {
            let (id, arrived_at) = (self.cols[p].id, self.cols[p].arrived_at);
            if completed_at >= self.cols[p].deadline_at {
                self.settle_failed(p, Some(self.error(&Why::Deadline)));
                continue;
            }
            let latency = completed_at.saturating_duration_since(arrived_at);
            let share = |total: u64| total / k + u64::from((p as u64) < total % k);
            let stats = RunStats {
                cycles: share(self.stats.cycles),
                mvm_macs: share(self.stats.mvm_macs),
                dep_stall_cycles: share(self.stats.dep_stall_cycles),
                resource_stall_cycles: share(self.stats.resource_stall_cycles),
                ..self.stats.clone()
            };
            self.metrics.record_completed(latency.as_secs_f64());
            self.metrics.record_attribution(
                self.queue_wait_s,
                self.service_s,
                self.network_s,
                &stats,
            );
            let attribution = Attribution {
                queue_wait: Duration::from_secs_f64(self.queue_wait_s),
                service: Duration::from_secs_f64(self.service_s),
                network: Duration::from_secs_f64(self.network_s),
                npu_cycles: stats.cycles,
                npu_macs: stats.mvm_macs,
                dep_stall_cycles: stats.dep_stall_cycles,
                resource_stall_cycles: stats.resource_stall_cycles,
            };
            let trace = || RequestTrace {
                request_id: id,
                trace_id: self.trace_id,
                model: self.name.clone(),
                worker: self.last_worker,
                attribution,
                stats: stats.clone(),
                spans: self.spans.clone(),
            };
            // Tail sampling: now that the outcome is known, keep the
            // full span tree iff the latency objective was breached.
            if let Some(fr) = cfg.flight_recorder {
                if latency > fr.latency_objective {
                    self.inner.push_flight(FlightRecord {
                        trace: trace(),
                        outcome: FlightOutcome::LatencyBreach {
                            latency,
                            objective: fr.latency_objective,
                        },
                    });
                }
            }
            if head_sampled(&cfg, id) && !self.spans.is_empty() {
                self.inner.push_trace(trace());
            }
            self.cols[p].outcome = Some(Ok(Response {
                request_id: id,
                output,
                latency,
                worker: self.last_worker,
                retries: self.retries,
                attribution,
            }));
        }
    }

    /// Terminal accounting for every open column and for the in-flight
    /// shard attempts the lifecycle abandons (gathered shards already
    /// recorded `completed`; the rest fail on their member rows).
    /// `None` means the request was dropped unwaited.
    fn fail(&mut self, why: Option<Why>) {
        for shard in std::mem::take(&mut self.shards) {
            if let (None, Some(row)) = (&shard.done, self.member_row(shard.slot)) {
                row.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        for p in 0..self.cols.len() {
            if self.cols[p].outcome.is_none() {
                self.settle_failed(p, why.as_ref().map(|w| self.error(w)));
            }
        }
    }

    /// The terminal error a column reports for `why`.
    fn error(&self, why: &Why) -> ServeError {
        let (model, retries) = (self.name.clone(), self.retries);
        match why {
            Why::Shed => ServeError::Shed { model },
            Why::Deadline => ServeError::DeadlineExceeded { model, retries },
            Why::Fault(message) => ServeError::WorkerFault {
                model,
                message: message.clone(),
                retries,
            },
            Why::NoReplica => ServeError::NoReplica { model },
        }
    }

    /// Settles column `p` as shed or failed (`None`: abandoned). Shed
    /// requests never got capacity — an admission outcome, not a serving
    /// failure worth a flight record.
    fn settle_failed(&mut self, p: usize, err: Option<ServeError>) {
        if err.as_ref().is_some_and(ServeError::is_shed) {
            self.metrics.shed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics.failed.fetch_add(1, Ordering::Relaxed);
            if self.inner.cfg.flight_recorder.is_some() {
                let error = err
                    .as_ref()
                    .map_or("abandoned".to_owned(), ToString::to_string);
                self.inner
                    .push_flight(flight_failure(self.cols[p].id, &self.name, &error));
            }
        }
        self.cols[p].outcome = err.map(Err);
    }
}

impl Drop for Lifecycle {
    fn drop(&mut self) {
        // Abandoned without waiting: account the open columns and their
        // in-flight shards as failed so every row's identity holds.
        self.fail(None);
    }
}

/// A failure flight record: no completed inference means no span tree —
/// the record carries the identity and the terminal error. `worker` is
/// `usize::MAX` because no worker produced an accepted attempt.
fn flight_failure(request_id: RequestId, model: &str, error: &str) -> FlightRecord {
    FlightRecord {
        trace: RequestTrace {
            request_id,
            trace_id: request_id,
            model: model.to_owned(),
            worker: usize::MAX,
            attribution: Attribution::default(),
            stats: RunStats::default(),
            spans: Vec::new(),
        },
        outcome: FlightOutcome::Failed {
            error: error.to_owned(),
        },
    }
}
