//! The serving workloads, driven through a real `Server` + `TcpFrontend`
//! on loopback with at most two generator threads and two connections:
//!
//! - `lone`: closed loop, one request in flight, alternating between an
//!   MLP [64,512,256,64] and its 2-shard group over a 50 µs-hop network;
//! - `poisson`: open loop at 8,000 req/s on MLP [16,64,32,8], latency
//!   timed from each request's due time;
//! - `fanin`: closed loop, 2 connections × 16 pipelined frames on MLP
//!   [16,64,32,8], every 1,000th frame on connection 0 a Prometheus scrape.
//!
//! Every answer is checked bit for bit against `PinnedModel::infer` of the
//! same input. A traced run adds spans, then interleaves in-process probes
//! (`PinnedModel::infer`, `Client::call`, `Batcher::call`, one TCP call) on
//! the same server and model, whose differences give the per-layer costs.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use bw_serve::demo::{mlp_artifact, sharded_mlp};
use bw_serve::{
    BatchConfig, Batcher, MetricsSnapshot, NetworkModel, PinnedModel, Server, TcpFrontend,
    WireRequest, WireResponse,
};

use crate::ledger::{Ledger, Span};
use crate::pipe::{self, Received};
use crate::schedule::{input_pool, poisson_schedule, Rng};
use crate::stats::{median, sliced_rate, summarize, windowed, RATE_SLICES};
use crate::{Args, Outcome, Tally, Workload};

/// Layer widths of the `lone` model.
const BIG: &[usize] = &[64, 512, 256, 64];
/// Layer widths of the `poisson` and `fanin` model.
const SMALL: &[usize] = &[16, 64, 32, 8];
/// Weight seed: models are fixed; `--seed` picks inputs and arrivals.
const MODEL_SEED: u64 = 11;
/// Distinct inputs per run, each checked against its reference output.
const POOL: usize = 256;
/// Set-ups per run; `setup_s` is their median. A small model sets up in
/// about half a millisecond; on a shared two-core Xeon the median of 21
/// set-ups spread 13-19% between runs, the median of 101 about 5%.
const SETUP_REPS: usize = 101;
/// One-way hop latency of the `lone` network.
const HOP_S: f64 = 50e-6;
/// Offered rate of `poisson`.
const POISSON_RATE: f64 = 8_000.0;
/// Request deadlines.
const POISSON_DEADLINE: Duration = Duration::from_millis(250);
const CLOSED_DEADLINE: Duration = Duration::from_secs(1);
/// Frames in flight per `fanin` connection.
const WINDOW: usize = 16;
/// Every this many frames on `fanin` connection 0 is a scrape.
const SCRAPE_EVERY: u64 = 1_000;
/// Untimed traffic before measuring.
const WARMUP: Duration = Duration::from_millis(500);
/// In-process probe time of a traced run.
const PROBE_TIME: Duration = Duration::from_millis(1_500);
/// A generator whose p99 lateness exceeds this fell behind: the run
/// measured the machine, not the program.
const BEHIND_US: f64 = 1_000.0;
/// How long a reader waits for a response before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The running server and its front end (dropped front end first).
struct Stack {
    front: TcpFrontend,
    server: Server,
}

/// What the generators share: where to send, what, and what must come
/// back.
struct Traffic {
    addr: SocketAddr,
    /// Model names; `lone` has the whole model first, then the group.
    models: Vec<&'static str>,
    inputs: Vec<Vec<f32>>,
    expected: Vec<Vec<f32>>,
    deadline: Duration,
}

impl Traffic {
    fn infer(&self, tag: &Tag) -> WireRequest {
        WireRequest::Infer {
            model: self.models[tag.model].to_owned(),
            deadline_us: self.deadline.as_micros() as u64,
            input: self.inputs[tag.input].clone(),
        }
    }

    fn connect(&self, timed: bool) -> (pipe::PipeWriter<Tag>, pipe::PipeReader<Tag>) {
        pipe::connect(self.addr, timed, READ_TIMEOUT).expect("the front end accepts")
    }
}

/// The generator's record of one frame.
#[derive(Debug)]
struct Tag {
    model: usize,
    input: usize,
    /// Open loop: when the request was due (latency counts from here).
    due: Option<Instant>,
    scrape: bool,
}

fn model_names(w: Workload) -> Vec<&'static str> {
    match w {
        Workload::Lone => vec!["lone-mlp", "lone-mlp-x2"],
        _ => vec!["small-mlp"],
    }
}

/// A per-worker weight budget that splits the largest `BIG` layer in two.
fn half_budget() -> u64 {
    let largest = BIG.windows(2).map(|w| w[0] * w[1]).max().expect("layers");
    let widest = *BIG.iter().max().expect("layers");
    largest.div_ceil(2).max(widest) as u64
}

/// Compiles, spawns and binds; returns the stack and the compile time.
fn build(w: Workload) -> (Stack, Duration) {
    let t = Instant::now();
    let names = model_names(w);
    let builder = match w {
        Workload::Lone => Server::builder()
            .model(mlp_artifact(names[0], BIG, MODEL_SEED))
            .sharded_model(sharded_mlp(names[1], BIG, MODEL_SEED, half_budget()))
            .network(NetworkModel::with_hop(HOP_S)),
        _ => Server::builder().model(mlp_artifact(names[0], SMALL, MODEL_SEED)),
    };
    let compiled = t.elapsed();
    let server = builder.replicas(2).spawn().expect("the server spawns");
    let front = TcpFrontend::bind(&server, "127.0.0.1:0").expect("the front end binds");
    (Stack { front, server }, compiled)
}

/// One correct answer, as the client saw it.
#[derive(Clone, Copy, Debug)]
struct Answer {
    model: usize,
    /// When its frame had been read.
    read: Instant,
    /// Client-observed latency, µs.
    latency_us: f64,
    npu_cycles: u64,
}

/// Everything one phase of traffic observed.
#[derive(Default)]
struct Phase {
    traced: bool,
    answers: Vec<Answer>,
    tally: Tally,
    queue_us: Vec<f64>,
    service_us: Vec<f64>,
    network_us: Vec<f64>,
    cycles: Vec<f64>,
    dep_stalls: Vec<f64>,
    resource_stalls: Vec<f64>,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    scrape_us: Vec<f64>,
    late_us: Vec<f64>,
    errors: Vec<String>,
    ledger: Ledger,
}

impl Phase {
    fn new(traced: bool) -> Phase {
        Phase {
            traced,
            ..Phase::default()
        }
    }

    /// Latencies of `model` (all models for `None`), in completion order.
    fn latencies(&self, model: Option<usize>) -> Vec<f64> {
        self.answers
            .iter()
            .filter(|a| model.is_none_or(|m| a.model == m))
            .map(|a| a.latency_us)
            .collect()
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// A transport failure: the request in flight is lost.
    fn lost(&mut self, outstanding: u64, e: std::io::Error) {
        self.tally.attempted += outstanding;
        self.tally.failed += outstanding;
        self.error(format!("transport: {e}"));
    }

    fn record(&mut self, got: Received<Tag>, t: &Traffic) {
        let tag = &got.sent.tag;
        let origin = tag.due.unwrap_or(got.sent.start);
        let latency_us = got.read.saturating_duration_since(origin).as_secs_f64() * 1e6;
        if tag.scrape {
            match got.response {
                WireResponse::Prometheus(_) => self.scrape_us.push(latency_us),
                other => self.error(format!("scrape answered with {other:?}")),
            }
            return;
        }
        self.tally.attempted += 1;
        let WireResponse::Infer {
            latency_us: server_us,
            queue_wait_us,
            service_us,
            network_us,
            npu_cycles,
            dep_stall_cycles,
            resource_stall_cycles,
            output,
            ..
        } = got.response
        else {
            match got.response {
                WireResponse::Error(msg) if msg.starts_with("shed") => self.tally.shed += 1,
                WireResponse::Error(msg) if msg.starts_with("deadline") => {
                    self.tally.failed += 1;
                    self.error(msg);
                }
                other => {
                    self.tally.rejected += 1;
                    self.error(format!("{other:?}"));
                }
            }
            return;
        };
        if !bit_identical(&output, &t.expected[tag.input]) {
            self.tally.mismatched += 1;
            return;
        }
        self.answers.push(Answer {
            model: tag.model,
            read: got.read,
            latency_us,
            npu_cycles,
        });
        if latency_us > t.deadline.as_secs_f64() * 1e6 {
            // Answered, but too late: a deadline miss is a failure.
            self.tally.failed += 1;
            return;
        }
        self.tally.completed += 1;
        if !self.traced {
            return;
        }
        self.queue_us.push(queue_wait_us as f64);
        self.service_us.push(service_us as f64);
        self.network_us.push(network_us as f64);
        self.cycles.push(npu_cycles as f64);
        self.dep_stalls.push(dep_stall_cycles as f64);
        self.resource_stalls.push(resource_stall_cycles as f64);
        self.encode_ns.push(got.sent.encode_ns as f64);
        self.decode_ns.push(got.decode_ns as f64);

        let end = got.read + Duration::from_nanos(got.decode_ns);
        let mut root = Span::root("client.request", origin, end);
        root.args = vec![
            ("server_latency_us", server_us),
            ("queue_wait_us", queue_wait_us),
            ("service_us", service_us),
            ("network_us", network_us),
            ("npu_cycles", npu_cycles),
        ];
        let mut spans = vec![root];
        if let Some(due) = tag.due {
            spans.push(Span::child("loadgen.late", due, got.sent.start, 0));
        }
        let encoded = got.sent.start + Duration::from_nanos(got.sent.encode_ns);
        spans.push(Span::child("wire.encode", got.sent.start, encoded, 0));
        server_spans(
            &mut spans,
            got.sent.written,
            got.read,
            [server_us, queue_wait_us, service_us, network_us],
        );
        spans.push(Span::child("wire.decode", got.read, end, 0));
        self.ledger.request(spans);
    }

    fn merge(&mut self, o: Phase) {
        self.answers.extend(o.answers);
        self.answers.sort_by_key(|a| a.read);
        self.tally.add(&o.tally);
        for (a, b) in [
            (&mut self.queue_us, o.queue_us),
            (&mut self.service_us, o.service_us),
            (&mut self.network_us, o.network_us),
            (&mut self.cycles, o.cycles),
            (&mut self.dep_stalls, o.dep_stalls),
            (&mut self.resource_stalls, o.resource_stalls),
            (&mut self.encode_ns, o.encode_ns),
            (&mut self.decode_ns, o.decode_ns),
            (&mut self.scrape_us, o.scrape_us),
            (&mut self.late_us, o.late_us),
        ] {
            a.extend(b);
        }
        for e in o.errors {
            self.error(e);
        }
        self.ledger.merge(o.ledger);
    }
}

/// Places the server-returned legs (total, queue wait, service, network;
/// µs) as a `serve.request` span centred in the socket round trip, with
/// the legs laid end to end inside it.
fn server_spans(spans: &mut Vec<Span>, written: Instant, read: Instant, legs: [u64; 4]) {
    let gap = read.saturating_duration_since(written);
    let server = Duration::from_micros(legs[0]).min(gap);
    let start = written + (gap - server) / 2;
    spans.push(Span::child("serve.request", start, start + server, 0));
    let parent = spans.len() - 1;
    let mut at = start;
    for (name, us) in [
        ("serve.queue_wait", legs[1]),
        ("worker.service", legs[2]),
        ("net.network", legs[3]),
    ] {
        let d = Duration::from_micros(us);
        spans.push(Span::child(name, at, at + d, parent));
        at += d;
    }
}

fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `lone`: one connection, one request in flight, models alternating.
fn lone(t: &Traffic, rng: &mut Rng, until: Instant, traced: bool) -> Phase {
    let mut ph = Phase::new(traced);
    let (mut w, mut r) = t.connect(traced);
    let mut i = 0;
    while Instant::now() < until {
        let tag = Tag {
            model: i % t.models.len(),
            input: rng.below(POOL),
            due: None,
            scrape: false,
        };
        i += 1;
        let sent = w.send(&t.infer(&tag), tag).and_then(|()| r.recv());
        match sent {
            Ok(got) => ph.record(got, t),
            Err(e) => {
                ph.lost(1, e);
                break;
            }
        }
    }
    ph
}

/// `poisson`: a writer thread sends on schedule, this thread reads.
fn poisson(t: &Traffic, seed: u64, start: Instant, horizon: Duration, traced: bool) -> Phase {
    let schedule = poisson_schedule(seed, POISSON_RATE, horizon);
    let mut rng = Rng::new(seed, 4);
    let picks: Vec<usize> = schedule.iter().map(|_| rng.below(POOL)).collect();
    let mut ph = Phase::new(traced);
    let (mut w, mut r) = t.connect(traced);
    let n = schedule.len() as u64;
    let (late, sent) = thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut late = Vec::with_capacity(schedule.len());
            for (off, input) in schedule.iter().zip(picks) {
                let due = start + *off;
                let now = Instant::now();
                if now < due {
                    thread::sleep(due - now);
                }
                late.push(due.elapsed().as_secs_f64() * 1e6);
                let tag = Tag {
                    model: 0,
                    input,
                    due: Some(due),
                    scrape: false,
                };
                if w.send(&t.infer(&tag), tag).is_err() {
                    break;
                }
            }
            let sent = late.len() as u64;
            (late, sent)
        });
        let mut read = 0;
        while read < n {
            match r.recv() {
                Ok(got) => ph.record(got, t),
                Err(e) => {
                    ph.lost(n - read, e);
                    break;
                }
            }
            read += 1;
        }
        writer.join().expect("the writer does not panic")
    });
    if sent < n {
        ph.error(format!("the writer stopped after {sent} of {n} requests"));
    }
    ph.late_us = late;
    ph
}

/// `fanin`: two connections, one thread each, `WINDOW` frames in flight.
fn fanin(t: &Traffic, seed: u64, until: Instant, traced: bool) -> Phase {
    thread::scope(|s| {
        let conns: Vec<_> = (0..2u64)
            .map(|conn| {
                s.spawn(move || {
                    let mut ph = Phase::new(traced);
                    let mut rng = Rng::new(seed, 10 + conn);
                    let (mut w, mut r) = t.connect(traced);
                    let mut frames = 0u64;
                    let mut send = |w: &mut pipe::PipeWriter<Tag>| {
                        frames += 1;
                        let scrape = conn == 0 && frames.is_multiple_of(SCRAPE_EVERY);
                        let tag = Tag {
                            model: 0,
                            input: rng.below(POOL),
                            due: None,
                            scrape,
                        };
                        let req = if scrape {
                            WireRequest::Prometheus
                        } else {
                            t.infer(&tag)
                        };
                        w.send(&req, tag)
                    };
                    let mut outstanding = 0u64;
                    for _ in 0..WINDOW {
                        if send(&mut w).is_ok() {
                            outstanding += 1;
                        }
                    }
                    while outstanding > 0 {
                        match r.recv() {
                            Ok(got) => ph.record(got, t),
                            Err(e) => {
                                ph.lost(outstanding, e);
                                break;
                            }
                        }
                        outstanding -= 1;
                        if Instant::now() < until && send(&mut w).is_ok() {
                            outstanding += 1;
                        }
                    }
                    ph
                })
            })
            .collect();
        let mut all = Phase::new(traced);
        for c in conns {
            all.merge(c.join().expect("a connection thread does not panic"));
        }
        all
    })
}

/// Runs `span` of the workload's traffic; returns it with its start.
fn drive(
    w: Workload,
    t: &Traffic,
    seed: u64,
    rng: &mut Rng,
    span: Duration,
    traced: bool,
) -> (Phase, Instant) {
    let start = Instant::now();
    let phase = match w {
        Workload::Lone => lone(t, rng, start + span, traced),
        Workload::Poisson => poisson(t, seed, start, span, traced),
        _ => fanin(t, seed, start + span, traced),
    };
    (phase, start)
}

/// In-process probes interleaved on the same server and model.
#[derive(Default)]
struct Probes {
    gir_us: Vec<f64>,
    client_us: Vec<f64>,
    batcher_us: Vec<f64>,
    tcp_us: Vec<f64>,
    group_us: Vec<f64>,
    lifecycle_us: Vec<f64>,
    metrics_us: Vec<f64>,
    prometheus_us: Vec<f64>,
    scrape_us: Vec<f64>,
}

fn probe(
    stack: &Stack,
    t: &Traffic,
    pinned: &mut PinnedModel,
    rng: &mut Rng,
    ph: &mut Phase,
) -> Probes {
    let client = stack.server.client();
    let batcher = Batcher::new(stack.server.client(), BatchConfig::default());
    let (mut w, mut r) = t.connect(true);
    let mut p = Probes::default();
    let until = Instant::now() + PROBE_TIME;
    let model = t.models[0];
    let mut round = 0u64;
    let check = |ph: &mut Phase, ok: bool| {
        ph.tally.attempted += 1;
        if ok {
            ph.tally.completed += 1;
        } else {
            ph.tally.mismatched += 1;
        }
    };
    while Instant::now() < until {
        let k = rng.below(POOL);
        let (x, want) = (&t.inputs[k], &t.expected[k]);

        let t0 = Instant::now();
        let y = pinned.infer(x).expect("the reference model runs");
        let t1 = Instant::now();
        p.gir_us.push((t1 - t0).as_secs_f64() * 1e6);
        ph.ledger
            .request(vec![Span::root("probe.gir.infer", t0, t1)]);
        check(ph, bit_identical(&y, want));

        let t0 = Instant::now();
        let resp = client.call(model, x, t.deadline);
        let t1 = Instant::now();
        p.client_us.push((t1 - t0).as_secs_f64() * 1e6);
        match resp {
            Ok(resp) => {
                let a = &resp.attribution;
                let legs = a.queue_wait + a.service + a.network;
                p.lifecycle_us
                    .push((t1 - t0).saturating_sub(legs).as_secs_f64() * 1e6);
                let mut spans = vec![Span::root("probe.client.call", t0, t1)];
                server_spans(
                    &mut spans,
                    t0,
                    t1,
                    [
                        resp.latency.as_micros() as u64,
                        a.queue_wait.as_micros() as u64,
                        a.service.as_micros() as u64,
                        a.network.as_micros() as u64,
                    ],
                );
                ph.ledger.request(spans);
                check(ph, bit_identical(&resp.output, want));
            }
            Err(e) => {
                check(ph, false);
                ph.error(format!("Client::call: {e}"));
            }
        }

        let t0 = Instant::now();
        let resp = batcher.call(model, x.clone(), t.deadline);
        let t1 = Instant::now();
        p.batcher_us.push((t1 - t0).as_secs_f64() * 1e6);
        ph.ledger
            .request(vec![Span::root("probe.batcher.call", t0, t1)]);
        check(ph, resp.is_ok_and(|r| bit_identical(&r.output, want)));

        let tag = Tag {
            model: 0,
            input: k,
            due: None,
            scrape: false,
        };
        let t0 = Instant::now();
        match w.send(&t.infer(&tag), tag).and_then(|()| r.recv()) {
            Ok(got) => {
                p.tcp_us
                    .push(got.read.saturating_duration_since(t0).as_secs_f64() * 1e6);
                ph.ledger
                    .request(vec![Span::root("probe.tcp.call", t0, got.read)]);
                let ok = matches!(&got.response, WireResponse::Infer { output, .. } if bit_identical(output, want));
                check(ph, ok);
            }
            Err(e) => ph.lost(1, e),
        }

        if let Some(group) = t.models.get(1) {
            let t0 = Instant::now();
            let resp = client.call(group, x, t.deadline);
            let t1 = Instant::now();
            p.group_us.push((t1 - t0).as_secs_f64() * 1e6);
            ph.ledger
                .request(vec![Span::root("probe.group.call", t0, t1)]);
            check(ph, resp.is_ok_and(|r| bit_identical(&r.output, want)));
        }

        if round.is_multiple_of(10) {
            let t0 = Instant::now();
            std::hint::black_box(stack.server.metrics());
            let t1 = Instant::now();
            std::hint::black_box(stack.server.prometheus());
            let t2 = Instant::now();
            p.metrics_us.push((t1 - t0).as_secs_f64() * 1e6);
            p.prometheus_us.push((t2 - t1).as_secs_f64() * 1e6);
            ph.ledger
                .request(vec![Span::root("probe.server.metrics", t0, t1)]);
            ph.ledger
                .request(vec![Span::root("probe.server.prometheus", t1, t2)]);
            let tag = Tag {
                model: 0,
                input: 0,
                due: None,
                scrape: true,
            };
            let t0 = Instant::now();
            match w
                .send(&WireRequest::Prometheus, tag)
                .and_then(|()| r.recv())
            {
                Ok(got) if matches!(got.response, WireResponse::Prometheus(_)) => p
                    .scrape_us
                    .push(got.read.saturating_duration_since(t0).as_secs_f64() * 1e6),
                Ok(got) => ph.error(format!("scrape answered with {:?}", got.response)),
                Err(e) => ph.error(format!("scrape: {e}")),
            }
        }
        round += 1;
    }
    p
}

/// Sum over models of (batches, batched requests, link transfers).
fn counters(m: &MetricsSnapshot) -> (u64, u64, u64) {
    (
        m.models.iter().map(|s| s.batches).sum(),
        m.models.iter().map(|s| s.batched_requests).sum(),
        m.link_transfers.iter().sum(),
    )
}

fn p50(v: &[f64]) -> f64 {
    summarize(v, 99.0).p50
}

/// Runs one serving workload.
pub fn run(w: Workload, args: &Args) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut compiles = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        // The previous stack shuts down before the next is timed.
        drop(stack.take());
        let t0 = Instant::now();
        let (s, compiled) = build(w);
        setups.push(t0.elapsed().as_secs_f64());
        compiles.push(compiled.as_secs_f64() * 1e3);
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");
    out.metrics.insert("setup_s", median(&setups));
    out.metrics.insert("gir.compile_ms", median(&compiles));

    // The reference: the same artifact pinned in this process.
    let names = model_names(w);
    let widths = if w == Workload::Lone { BIG } else { SMALL };
    let artifact = mlp_artifact(names[0], widths, MODEL_SEED);
    let pins: Vec<(f64, PinnedModel)> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let p = artifact.pin().expect("the reference pins");
            (t.elapsed().as_secs_f64() * 1e3, p)
        })
        .collect();
    out.metrics.insert(
        "gir.pin_ms",
        median(&pins.iter().map(|(ms, _)| *ms).collect::<Vec<_>>()),
    );
    let mut pinned = pins.into_iter().last().expect("pinned").1;
    let inputs = input_pool(args.seed, widths[0], POOL);
    let expected = inputs
        .iter()
        .map(|x| pinned.infer(x).expect("the reference model runs"))
        .collect();
    let traffic = Traffic {
        addr: stack.front.addr(),
        models: names,
        inputs,
        expected,
        deadline: if w == Workload::Poisson {
            POISSON_DEADLINE
        } else {
            CLOSED_DEADLINE
        },
    };

    let mut rng = Rng::new(args.seed, 5);
    let mut total = drive(w, &traffic, args.seed ^ 0xA5A5, &mut rng, WARMUP, false).0;
    let phases = if args.trace { 2 } else { 1 };
    let span = args.seconds.saturating_sub(WARMUP).div_f64(phases as f64);
    let before = counters(&stack.server.metrics());
    let (main, start) = drive(w, &traffic, args.seed, &mut rng, span, false);
    let traced = args
        .trace
        .then(|| drive(w, &traffic, args.seed.wrapping_add(1), &mut rng, span, true).0);
    let after = counters(&stack.server.metrics());
    let probes = args
        .trace
        .then(|| probe(&stack, &traffic, &mut pinned, &mut rng, &mut total));

    // Headline metrics from the untraced phase.
    let secs = span.as_secs_f64();
    let s = windowed(&main.latencies(Some(0)), 99.0);
    let tail = windowed(&main.latencies(None), 99.0);
    let offsets: Vec<f64> = main
        .answers
        .iter()
        .map(|a| a.read.saturating_duration_since(start).as_secs_f64())
        .collect();
    let ones = vec![1.0; offsets.len()];
    let cycles: Vec<f64> = main.answers.iter().map(|a| a.npu_cycles as f64).collect();
    out.metrics.insert("p50_us", s.p50);
    out.metrics.insert("e2e.p99_us", tail.tail);
    out.metrics
        .insert("rps", sliced_rate(&offsets, &ones, secs));
    out.metrics.insert(
        "sim_mcycles_per_s",
        sliced_rate(&offsets, &cycles, secs) / 1e6,
    );
    let origin = if w == Workload::Poisson {
        ", from due time"
    } else {
        ""
    };
    out.note(format!(
        "p50_us {:.1}: median of {} requests to `{}` [host, client socket to client socket{origin}]",
        s.p50, s.n, traffic.models[0],
    ));
    out.note(format!(
        "p99_us {:.1} (ledger: e2e.p99_us): p{} of {} requests to {} [host{origin}]",
        tail.tail,
        tail.tail_p,
        tail.n,
        if w == Workload::Lone {
            "both models"
        } else {
            "the model"
        },
    ));
    if w == Workload::Lone {
        let g = windowed(&main.latencies(Some(1)), 99.0);
        out.metrics.insert("e2e.sharded_p50_us", g.p50);
        out.note(format!(
            "sharded_p50_us {:.1} (ledger: e2e.sharded_p50_us) [host]: median of {} requests to the 2-shard group `{}`",
            g.p50, g.n, traffic.models[1]
        ));
    }
    out.note(format!(
        "rps {:.1}: median over {RATE_SLICES} slices of the {secs:.2} s window of answers read per second ({} in all) [host]; sim_mcycles_per_s sums their simulated NPU cycles the same way",
        sliced_rate(&offsets, &ones, secs),
        main.answers.len(),
    ));
    if w == Workload::Poisson {
        let late = summarize(&main.late_us, 99.0);
        let behind = late.tail > BEHIND_US;
        out.note(format!(
            "generator lateness: p50 {:.1} us, p{} {:.1} us, max {:.1} us over {} sends{}",
            late.p50,
            late.tail_p,
            late.tail,
            main.late_us.iter().copied().fold(0.0, f64::max),
            late.n,
            if behind {
                " -- FLAG: the generator fell behind; this run measured the machine, not the program"
            } else {
                ""
            }
        ));
    }

    if let (Some(tr), Some(p)) = (&traced, &probes) {
        layer_metrics(&mut out, w, &main, tr, p, before, after);
    }

    for ph in [Some(&main), traced.as_ref()].into_iter().flatten() {
        total.tally.add(&ph.tally);
        for e in &ph.errors {
            out.note(format!("error: {e}"));
        }
    }
    for e in &total.errors {
        out.note(format!("error: {e}"));
    }
    out.tally = total.tally;

    // The accounting identity, per model, once the server is quiet.
    let snap = stack.server.metrics();
    for m in &snap.models {
        out.note(format!(
            "server `{}`: submitted {} completed {} shed {} failed {}",
            m.model, m.submitted, m.completed, m.shed, m.failed
        ));
        out.check(m.completed + m.shed + m.failed == m.submitted, || {
            format!(
                "`{}`: completed {} + shed {} + failed {} != submitted {}",
                m.model, m.completed, m.shed, m.failed, m.submitted
            )
        });
    }
    if args.trace {
        let sum =
            |f: fn(&bw_serve::ModelSnapshot) -> u64| snap.models.iter().map(f).sum::<u64>() as f64;
        out.metrics.insert("serve.submitted", sum(|m| m.submitted));
        out.metrics.insert("serve.completed", sum(|m| m.completed));
        out.metrics.insert("serve.shed", sum(|m| m.shed));
        out.metrics.insert("serve.failed", sum(|m| m.failed));
        let mut ledger = Ledger::default();
        if let Some(tr) = traced {
            ledger.merge(tr.ledger);
        }
        ledger.merge(total.ledger);
        ledger.finish(
            &mut out,
            match w {
                Workload::Lone => "lone",
                Workload::Poisson => "poisson",
                _ => "fanin",
            },
            args.seed,
        );
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    w: Workload,
    main: &Phase,
    tr: &Phase,
    p: &Probes,
    before: (u64, u64, u64),
    after: (u64, u64, u64),
) {
    let m = &mut out.metrics;
    m.insert("tcp.residual_us", p50(&p.tcp_us) - p50(&p.batcher_us));
    m.insert("wire.encode_ns", p50(&tr.encode_ns));
    m.insert("wire.decode_ns", p50(&tr.decode_ns));
    m.insert("batch.hold_us", p50(&p.batcher_us) - p50(&p.client_us));
    let (batches, batched) = (after.0 - before.0, after.1 - before.1);
    m.insert("batch.dispatches", batches as f64);
    m.insert(
        "batch.mean_size",
        if batches == 0 {
            0.0
        } else {
            batched as f64 / batches as f64
        },
    );
    m.insert("serve.inproc_p50_us", p50(&p.client_us));
    if w == Workload::Lone {
        m.insert("serve.group_inproc_p50_us", p50(&p.group_us));
        m.insert("net.network_us", p50(&tr.network_us));
        m.insert("net.link_transfers", (after.2 - before.2) as f64);
    }
    m.insert("serve.lifecycle_us", p50(&p.lifecycle_us));
    let q = summarize(&tr.queue_us, 99.0);
    m.insert("serve.queue_wait_p50_us", q.p50);
    m.insert("serve.queue_wait_p99_us", q.tail);
    m.insert("worker.service_us", p50(&tr.service_us));
    m.insert("gir.infer_us", p50(&p.gir_us));
    m.insert("core.device_cycles", p50(&tr.cycles));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.insert("core.dep_stall_cycles", mean(&tr.dep_stalls));
    m.insert("core.resource_stall_cycles", mean(&tr.resource_stalls));
    let scrapes = if w == Workload::Fanin {
        [&main.scrape_us[..], &tr.scrape_us[..]].concat()
    } else {
        p.scrape_us.clone()
    };
    m.insert("obs.scrape_us", p50(&scrapes));
    m.insert("obs.metrics_call_us", p50(&p.metrics_us));
    m.insert("obs.prometheus_call_us", p50(&p.prometheus_us));
    if w == Workload::Poisson {
        let late = summarize(&tr.late_us, 99.0);
        m.insert("loadgen.late_p99_us", late.tail);
        m.insert(
            "loadgen.late_max_us",
            tr.late_us.iter().copied().fold(0.0, f64::max),
        );
    }
    let (untraced, traced) = (p50(&main.latencies(Some(0))), p50(&tr.latencies(Some(0))));
    m.insert("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
    out.note(format!(
        "probes: {} rounds of PinnedModel::infer, Client::call, Batcher::call and one TCP call",
        p.client_us.len(),
    ));
}
