//! Admission-side dynamic micro-batching: the Fig. 8 lever.
//!
//! The BW service discipline is batch-1 — that is what makes the
//! millisecond SLOs of §III possible — but at high offered load the
//! serving layer's per-request overhead (thread wakeups, channel hops,
//! dispatch streaming) caps goodput long before the MACs saturate. The
//! TPU paper quantifies the classic answer and its caveat: coalesce
//! compatible requests into one multi-column dispatch for amortized
//! dispatch cost, but only where waiting for company does not cost
//! response time.
//!
//! [`Batcher`] implements the admission side of that trade as a
//! *work-conserving* coalescing queue, per model:
//!
//! 1. A request joins its model's pending queue, in arrival order.
//! 2. An idle dispatcher takes the queue with the oldest head and
//!    removes up to `max_batch` members at once. A member therefore
//!    waits only while every dispatcher is busy: a lone request
//!    dispatches at once, and batches form exactly when there is
//!    backlog to coalesce.
//! 3. A taken batch travels as **one** multi-column dispatch
//!    ([`Client::call_batch`]): one queue slot, one worker pop, one
//!    [`Npu::run_batch`](bw_core::Npu::run_batch) envelope. Results
//!    split back into per-member responses, and the accounting identity
//!    `completed + shed + failed == submitted` holds member-for-member.
//!
//! The batcher never mixes models in one batch (columns must share the
//! pinned program) and never holds a request while a dispatcher sits
//! idle, so a correctly provisioned pool cannot breach a deadline
//! *because of* coalescing — `tests/batching.rs` pins that property.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::request::{Response, ServeError};
use crate::server::{BatchItem, Client};

/// Tuning for one [`Batcher`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Largest coalesced batch (columns per dispatch). `1` disables
    /// coalescing while keeping the batched code path.
    pub max_batch: usize,
    /// Threads concurrently driving batches through the blocking
    /// [`Client::call_batch`] lifecycle. Bounds how many batches can be
    /// in flight at once from this batcher; members queue (and
    /// coalesce) only while all of them are busy.
    pub dispatchers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 4,
            dispatchers: 4,
        }
    }
}

/// One queued member.
struct PendingMember {
    item: BatchItem,
    reply: Sender<Result<Response, ServeError>>,
    /// Declared after `reply` so it fires after the reply is sent *and*
    /// the sender dropped: a woken receiver always sees either the
    /// response or the disconnect, never a still-empty channel.
    _wake: WakeOnDrop,
}

/// Wakes the submitter's waker, if it gave one, when the member leaves
/// the batcher — answered or dropped unanswered.
struct WakeOnDrop(Option<Waker>);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        if let Some(waker) = &self.0 {
            waker.wake_by_ref();
        }
    }
}

struct BatcherState {
    /// Per-model pending queues, arrival order; never empty.
    queues: HashMap<String, Vec<PendingMember>>,
    shutdown: bool,
}

struct BatcherInner {
    client: Client,
    cfg: BatchConfig,
    state: Mutex<BatcherState>,
    /// Wakes an idle dispatcher when work arrives or shutdown starts.
    cv: Condvar,
}

/// The per-model coalescing front: submit requests, receive individual
/// responses, let backlog pack compatible neighbors into one
/// multi-column dispatch. Dropping the batcher dispatches everything
/// still pending and joins its threads.
pub struct Batcher {
    inner: Arc<BatcherInner>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Builds a batcher over an in-process [`Client`].
    pub fn new(client: Client, cfg: BatchConfig) -> Batcher {
        let cfg = BatchConfig {
            max_batch: cfg.max_batch.max(1),
            dispatchers: cfg.dispatchers.max(1),
        };
        let inner = Arc::new(BatcherInner {
            client,
            cfg,
            state: Mutex::new(BatcherState {
                queues: HashMap::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let dispatchers = (0..cfg.dispatchers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bw-batch-dispatch-{i}"))
                    .spawn(move || {
                        while let Some((model, members)) = next_batch(&inner) {
                            dispatch_batch(&inner.client, &model, members);
                        }
                    })
                    .expect("dispatcher thread spawns")
            })
            .collect();
        Batcher { inner, dispatchers }
    }

    /// Enqueues one request into its model's coalescing queue. Returns
    /// a receiver the caller blocks on (or polls) for the individual
    /// outcome; the send side disconnecting means the batcher shut down
    /// before dispatch, which [`Batcher::call`] maps to
    /// [`ServeError::Disconnected`].
    pub fn submit(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
    ) -> Receiver<Result<Response, ServeError>> {
        self.submit_waking(model, input, deadline, None)
    }

    /// [`Batcher::submit`], additionally waking `waker` once the member
    /// leaves the batcher: after its reply is sent, or when it is
    /// dropped unanswered. Lets a poll loop sleep until a reply lands.
    pub(crate) fn submit_waking(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
        waker: Option<Waker>,
    ) -> Receiver<Result<Response, ServeError>> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let member = PendingMember {
            item: BatchItem::new(input, deadline),
            reply: reply_tx,
            _wake: WakeOnDrop(waker),
        };
        {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.shutdown {
                // Shutting down: drop the member, disconnecting the
                // reply channel.
                return reply_rx;
            }
            state
                .queues
                .entry(model.to_owned())
                .or_default()
                .push(member);
        }
        self.inner.cv.notify_one();
        reply_rx
    }

    /// [`Batcher::submit`] + blocking receive: the drop-in replacement
    /// for [`Client::call`] behind the coalescing queue.
    ///
    /// # Errors
    ///
    /// As [`Client::call`], plus [`ServeError::Disconnected`] if the
    /// batcher shuts down before the request dispatches.
    pub fn call(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
    ) -> Result<Response, ServeError> {
        self.submit(model, input, deadline)
            .recv()
            .unwrap_or(Err(ServeError::Disconnected))
    }

    /// Requests currently queued, waiting for a dispatcher (for tests).
    pub fn pending(&self) -> usize {
        let state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        state.queues.values().map(Vec::len).sum()
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
        }
        self.inner.cv.notify_all();
        // Dispatchers exit only once every queue is empty, so no
        // submitted request is dropped.
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Blocks an idle dispatcher until there is work, then takes up to
/// `max_batch` members from the queue whose head has waited longest.
/// Returns `None` once shutdown has started and every queue is empty.
fn next_batch(inner: &BatcherInner) -> Option<(String, Vec<PendingMember>)> {
    let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let oldest = state
            .queues
            .iter()
            .filter_map(|(model, q)| q.first().map(|m| (m.item.arrived_at, model)))
            .min()
            .map(|(_, model)| model.clone());
        if let Some(model) = oldest {
            let queue = state.queues.get_mut(&model).expect("oldest queue exists");
            let take = queue.len().min(inner.cfg.max_batch);
            let members = queue.drain(..take).collect();
            // Model names arrive from the wire: keep no entry per name
            // once its queue is empty.
            if queue.is_empty() {
                state.queues.remove(&model);
            }
            return Some((model, members));
        }
        if state.shutdown {
            return None;
        }
        state = inner.cv.wait(state).unwrap_or_else(|e| e.into_inner());
    }
}

/// Drives one batch through the blocking coalesced lifecycle and fans
/// the per-member outcomes back to their reply channels.
fn dispatch_batch(client: &Client, model: &str, members: Vec<PendingMember>) {
    let items: Vec<BatchItem> = members.iter().map(|m| m.item.clone()).collect();
    let results = client.call_batch(model, &items);
    for (member, result) in members.into_iter().zip(results) {
        // A caller that stopped listening just drops its receiver; the
        // request is already accounted in the server metrics.
        let _ = member.reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_input, mlp_artifact};
    use crate::server::Server;
    use bw_system::NetworkModel;

    fn server() -> Server {
        Server::builder()
            .model(mlp_artifact("m", &[16, 8], 3))
            .replicas(1)
            .queue_cap(64)
            .spawn()
            .unwrap()
    }

    /// A server whose every dispatch spends ~100 ms on the modeled
    /// network (one 50 ms hop each way), pinning its dispatcher busy.
    fn slow_server() -> Server {
        Server::builder()
            .model(mlp_artifact("m", &[16, 8], 3))
            .replicas(1)
            .queue_cap(64)
            .network(NetworkModel::with_hop(0.05))
            .spawn()
            .unwrap()
    }

    fn one_dispatcher(server: &Server, max_batch: usize) -> Batcher {
        Batcher::new(
            server.client(),
            BatchConfig {
                max_batch,
                dispatchers: 1,
            },
        )
    }

    /// Submits one member and returns once the (only) dispatcher has
    /// taken it, i.e. is busy.
    fn occupy(batcher: &Batcher) -> Receiver<Result<Response, ServeError>> {
        let rx = batcher.submit("m", demo_input(16, 99), Duration::from_secs(30));
        while batcher.pending() > 0 {
            std::thread::yield_now();
        }
        rx
    }

    #[test]
    fn full_window_flushes_as_one_batch() {
        let server = slow_server();
        let batcher = one_dispatcher(&server, 4);
        let first = occupy(&batcher);
        // Every dispatcher is busy: these four queue and leave together.
        let receivers: Vec<_> = (0..4)
            .map(|i| batcher.submit("m", demo_input(16, i), Duration::from_secs(30)))
            .collect();
        assert_eq!(batcher.pending(), 4);
        for rx in std::iter::once(first).chain(receivers) {
            let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
            assert_eq!(resp.output.len(), 8);
        }
        let m = &server.client().metrics().models[0];
        assert_eq!(m.completed, 5);
        assert_eq!(m.batches, 2, "the lone head, then one coalesced dispatch");
        assert_eq!(m.batched_requests, 5);
    }

    #[test]
    fn lone_member_dispatches_as_a_batch_of_one() {
        let server = server();
        // A window far larger than the offered load: an idle dispatcher
        // takes the lone member at once instead of waiting for company.
        let batcher = one_dispatcher(&server, 64);
        let resp = batcher
            .call("m", demo_input(16, 0), Duration::from_secs(10))
            .unwrap();
        assert_eq!(resp.output.len(), 8);
        let m = &server.client().metrics().models[0];
        assert_eq!((m.completed, m.batches, m.batched_requests), (1, 1, 1));
    }

    #[test]
    fn drop_flushes_pending_members() {
        let server = slow_server();
        let batcher = one_dispatcher(&server, 64);
        let first = occupy(&batcher);
        let queued = batcher.submit("m", demo_input(16, 1), Duration::from_secs(30));
        assert_eq!(batcher.pending(), 1);
        drop(batcher);
        for rx in [first, queued] {
            let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
            assert_eq!(resp.output.len(), 8);
        }
    }

    #[test]
    fn waker_fires_after_the_reply_lands() {
        struct Signal(Mutex<Sender<()>>);
        impl std::task::Wake for Signal {
            fn wake(self: Arc<Self>) {
                let _ = self.0.lock().unwrap().send(());
            }
        }
        let server = server();
        let batcher = one_dispatcher(&server, 4);
        let (woke_tx, woke_rx) = std::sync::mpsc::channel();
        let waker = Waker::from(Arc::new(Signal(Mutex::new(woke_tx))));
        let rx =
            batcher.submit_waking("m", demo_input(16, 2), Duration::from_secs(10), Some(waker));
        woke_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        // The wake never precedes the reply, so a woken poll loop finds
        // it without blocking.
        assert_eq!(rx.try_recv().unwrap().unwrap().output.len(), 8);
    }

    #[test]
    fn unknown_model_resolves_per_member() {
        let server = server();
        let batcher = Batcher::new(server.client(), BatchConfig::default());
        let err = batcher
            .call("nope", demo_input(16, 0), Duration::from_secs(5))
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel(_)));
        assert!(batcher.inner.state.lock().unwrap().queues.is_empty());
    }
}
