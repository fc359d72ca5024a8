//! TCP front-end round trips: the wire protocol against a live server.

use std::time::{Duration, Instant};

use bw_serve::demo::{demo_input, mlp_artifact};
use bw_serve::{ServeError, Server, TcpClient, TcpFrontend};

const DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn tcp_round_trip_matches_in_process_result() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 32, 8], 7))
        .replicas(2)
        .spawn()
        .unwrap();
    let expected = server
        .client()
        .call("mlp", &demo_input(16, 5), DEADLINE)
        .unwrap()
        .output;

    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(frontend.addr()).unwrap();
    let resp = client.call("mlp", &demo_input(16, 5), DEADLINE).unwrap();
    assert_eq!(resp.output, expected);
    assert!(resp.latency > Duration::ZERO);

    // Errors travel the wire as explicit error frames.
    let err = client
        .call("nope", &demo_input(16, 0), DEADLINE)
        .unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "got {err}");

    // Metrics are fetchable over the same connection.
    let json = client.metrics_json().unwrap();
    assert!(json.contains("\"model\":\"mlp\""));
    assert!(json.contains("\"completed\":2"));

    frontend.shutdown();
}

#[test]
fn concurrent_tcp_clients_are_isolated() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 8], 3))
        .replicas(2)
        .spawn()
        .unwrap();
    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let addr = frontend.addr();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(addr).unwrap();
                let mut outputs = Vec::new();
                for j in 0..5 {
                    let resp = client
                        .call("mlp", &demo_input(16, i * 100 + j), DEADLINE)
                        .unwrap();
                    outputs.push(resp.output);
                }
                outputs
            })
        })
        .collect();
    for h in handles {
        let outputs = h.join().unwrap();
        assert_eq!(outputs.len(), 5);
        assert!(outputs.iter().all(|o| o.len() == 8));
    }
    let m = server.metrics();
    assert_eq!(m.models[0].completed, 20);
}

#[test]
fn sla_rejections_cross_the_wire_typed() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 32, 8], 7))
        .replicas(1)
        .spawn()
        .unwrap();
    let bound = server
        .client()
        .static_bound_us("mlp")
        .expect("mlp has a provable bound");

    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(frontend.addr()).unwrap();

    // A deadline below the static lower bound comes back as the typed
    // SLA frame, not a stringly error — remote clients see the same
    // structured rejection local ones do.
    let err = client
        .call("mlp", &demo_input(16, 1), Duration::from_micros(0))
        .unwrap_err();
    match err {
        ServeError::SlaUnmeetable {
            ref model,
            bound_us,
            budget_us,
        } => {
            assert_eq!(model, "mlp");
            assert_eq!(bound_us, bound);
            assert_eq!(budget_us, 0);
        }
        other => panic!("expected a typed SLA rejection over TCP, got {other}"),
    }

    // The connection survives the rejection and still serves work.
    let resp = client.call("mlp", &demo_input(16, 1), DEADLINE).unwrap();
    assert_eq!(resp.output.len(), 8);
    let m = server.metrics();
    assert_eq!(m.models[0].submitted, 1, "the rejection was never admitted");

    frontend.shutdown();
}

/// A lone request pays no coalescing hold (an idle dispatcher takes it at
/// once) and no poll tick (its completion wakes the event loop). Holding
/// it for company would cost milliseconds per call; a lost wake-up would
/// cost a whole poll timeout.
#[test]
fn lone_requests_round_trip_without_hold_or_tick() {
    let server = Server::builder()
        .model(mlp_artifact("m", &[16, 8], 3))
        .spawn()
        .unwrap();
    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(frontend.addr()).unwrap();
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|i| {
            let started = Instant::now();
            let resp = client.call("m", &demo_input(16, i), DEADLINE).unwrap();
            assert_eq!(resp.output.len(), 8);
            started.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_micros(1500),
        "lone-request median round trip {median:?} (sorted: {round_trips:?})"
    );
    frontend.shutdown();
}
