//! The one request lifecycle's unified rules hold for every request
//! shape: batch-1 through `Client::call` and a coalesced batch through
//! `Client::call_batch` reach the same verdict on the same request.

use std::time::Duration;

use bw_serve::demo::{demo_input, mlp_artifact};
use bw_serve::{BatchItem, NetworkModel, ServeError, Server};

/// A request whose device work fits its deadline but whose modeled
/// network legs push it past: the column finishes after its deadline,
/// so it fails — on the batch-1 path and the coalesced path alike.
#[test]
fn a_request_finishing_past_its_deadline_on_the_network_fails() {
    // 5 ms per hop: the request and response legs alone take 10 ms,
    // past the 8 ms deadline.
    let server = Server::builder()
        .model(mlp_artifact("m", &[16, 8], 1))
        .replicas(1)
        .network(NetworkModel::with_hop(0.005))
        .spawn()
        .unwrap();
    let client = server.client();
    let input = demo_input(16, 0);
    let deadline = Duration::from_millis(8);

    let err = client.call("m", &input, deadline).unwrap_err();
    assert!(
        matches!(err, ServeError::DeadlineExceeded { .. }),
        "expected a deadline failure, got {err}"
    );
    let m = &client.metrics().models[0];
    assert_eq!((m.submitted, m.completed, m.failed), (1, 0, 1));

    let batched = client.call_batch("m", &[BatchItem::new(input, deadline)]);
    assert_eq!(batched, vec![Err(err)], "both paths agree");
    let m = &client.metrics().models[0];
    assert_eq!((m.submitted, m.completed, m.failed), (2, 0, 2));
}
