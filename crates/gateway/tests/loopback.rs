//! Loopback integration tests: a real gateway on 127.0.0.1 with real
//! TCP clients, covering the acceptance criteria of the serve subsystem:
//!
//! (a) `POST /v1/run` bodies are byte-identical to the CLI's `--json`
//!     serialization of the same configuration, on both engines;
//! (b) N identical concurrent requests execute exactly one simulation
//!     (dedup-join counter reads N−1);
//! (c) queue overflow answers 429 with `Retry-After` and never drops an
//!     accepted job;
//! (d) graceful shutdown drains in-flight work, and `/metrics` exposes
//!     queue depth, cache and dedup counters, and latency histograms;
//! (e) `serve` returns after `POST /shutdown` on any bind address, and
//!     oversized requests and connection floods get 400 and 503.

#![expect(clippy::disallowed_types, reason = "wall-clock deadlines bound the test's polling")]

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coaxial_gateway::http::{client_request, ClientResponse};
use coaxial_gateway::server::MAX_CONNECTIONS;
use coaxial_gateway::{report_to_json, serve, GatewayConfig, GatewayStats};
use coaxial_system::runner::RunSpec;
use coaxial_system::{EngineKind, SystemConfig};
use coaxial_workloads::Workload;

/// Start a gateway on an ephemeral loopback port; returns the base URL and
/// the handle that yields [`GatewayStats`] after shutdown.
fn start(workers: usize, queue_depth: usize) -> (String, std::thread::JoinHandle<GatewayStats>) {
    start_on("127.0.0.1:0", workers, queue_depth)
}

/// [`start`] on any bind address; an unspecified one is reached through
/// 127.0.0.1.
fn start_on(
    bind: &str,
    workers: usize,
    queue_depth: usize,
) -> (String, std::thread::JoinHandle<GatewayStats>) {
    // Tests run in parallel, several with the same shape: a per-call
    // serial keeps one test's cleanup from deleting another's port file.
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("coaxial-gw-test-{}-{serial}-{workers}-{queue_depth}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let port_file = dir.join("port");
    let cfg = GatewayConfig {
        addr: bind.to_string(),
        workers,
        queue_depth,
        cache_mb: 8,
        rate_per_sec: 0,
        burst: 8,
        port_file: Some(port_file.clone()),
    };
    let handle = std::thread::spawn(move || serve(cfg).expect("gateway serve"));
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(Instant::now() < deadline, "gateway never wrote its port file");
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = std::fs::remove_dir_all(&dir);
    let addr = addr.replace("0.0.0.0:", "127.0.0.1:");
    (format!("http://{addr}"), handle)
}

fn post(base: &str, path: &str, body: &str) -> ClientResponse {
    client_request("POST", &format!("{base}{path}"), body.as_bytes()).expect("request")
}

fn get(base: &str, path: &str) -> ClientResponse {
    client_request("GET", &format!("{base}{path}"), b"").expect("request")
}

/// Drain and stop the gateway. `serve` must return within 10 s of the
/// drained answer, so a lost accept wake-up fails the test instead of
/// hanging the suite.
fn shutdown(base: &str, handle: std::thread::JoinHandle<GatewayStats>) -> GatewayStats {
    let resp = post(base, "/shutdown", "");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "serve did not return after POST /shutdown");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("gateway thread")
}

/// Poll the one-shot status endpoint until the job reports `state`.
/// (`GET /v1/jobs/{id}` without `/status` streams until the job is
/// terminal, which is exactly wrong for observing intermediate states.)
fn wait_for_state(base: &str, id: u64, state: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = get(base, &format!("/v1/jobs/{id}/status"));
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        if resp.body_str().contains(&format!("\"state\":\"{state}\"")) {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never reached {state}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn served_run_is_byte_identical_to_cli_json_on_both_engines() {
    let (base, handle) = start(2, 16);
    let w = Workload::by_name("mcf").expect("mcf exists");
    for engine in ["event", "lockstep"] {
        let body = format!(
            "{{\"workload\":\"mcf\",\"config\":\"4x\",\"instructions\":4000,\
             \"warmup\":1000,\"engine\":\"{engine}\"}}"
        );
        let resp = post(&base, "/v1/run", &body);
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        // The CLI's `run --json` path is `report_to_json(spec.run()) + "\n"`.
        let kind = if engine == "event" { EngineKind::Event } else { EngineKind::Lockstep };
        let spec =
            RunSpec::homogeneous(SystemConfig::coaxial_4x(), w, 4000, 1000).with_engine(kind);
        let local = report_to_json(&spec.run()) + "\n";
        assert_eq!(
            resp.body_str(),
            local,
            "served body must be byte-identical to the CLI serialization ({engine})"
        );
    }
    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn identical_concurrent_requests_run_exactly_one_simulation() {
    // One worker, pinned busy by a background job, so the N identical
    // requests all arrive while their shared job is still queued — the
    // join count is deterministic, not a race.
    let (base, handle) = start(1, 16);
    let blocker =
        r#"{"workload":"lbm","config":"2x","instructions":30000,"warmup":2000,"async":true}"#;
    let resp = post(&base, "/v1/run", blocker);
    assert_eq!(resp.status, 202, "{}", resp.body_str());
    wait_for_state(&base, 1, "running");

    const N: u64 = 6;
    let shared = r#"{"workload":"mcf","config":"4x","instructions":3000,"warmup":500}"#;
    let bodies: Vec<String> = {
        let base = &base;
        let done = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    let done = Arc::clone(&done);
                    scope.spawn(move || {
                        let resp = post(base, "/v1/run", shared);
                        assert_eq!(resp.status, 200, "{}", resp.body_str());
                        done.fetch_add(1, Ordering::Relaxed);
                        resp.body_str().into_owned()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        })
    };
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "all joiners get the same body");

    let metrics = get(&base, "/metrics");
    let text = metrics.body_str().into_owned();
    let stats = shutdown(&base, handle);
    // N identical requests → 1 enqueue + (N−1) joins → 2 jobs total
    // (blocker + shared).
    assert_eq!(stats.dedup_joins, N - 1, "metrics:\n{text}");
    assert_eq!(stats.jobs_completed, 2, "exactly one simulation for the N requests");
    assert!(text.contains("gateway.dedup.joins"), "{text}");
}

#[test]
fn queue_overflow_answers_429_and_accepted_jobs_all_finish() {
    // One worker, queue depth 1: job A runs, job B waits in the queue,
    // job C is refused with 429 + Retry-After.
    let (base, handle) = start(1, 1);
    let job_a =
        r#"{"workload":"lbm","config":"2x","instructions":30000,"warmup":2000,"async":true}"#;
    assert_eq!(post(&base, "/v1/run", job_a).status, 202);
    wait_for_state(&base, 1, "running");

    let job_b =
        r#"{"workload":"mcf","config":"ddr","instructions":2000,"warmup":500,"async":true}"#;
    assert_eq!(post(&base, "/v1/run", job_b).status, 202);

    let job_c =
        r#"{"workload":"omnetpp","config":"4x","instructions":2000,"warmup":500,"async":true}"#;
    let refused = post(&base, "/v1/run", job_c);
    assert_eq!(refused.status, 429, "{}", refused.body_str());
    assert!(refused.header("retry-after").is_some(), "429 must carry Retry-After");

    // Both accepted jobs still complete: nothing was dropped. Job 2 is
    // watched through the chunked streaming endpoint (it blocks until
    // the job is terminal and its last ndjson line carries the state).
    wait_for_state(&base, 1, "done");
    let watched = get(&base, "/v1/jobs/2");
    assert_eq!(watched.status, 200);
    assert_eq!(
        watched.header("transfer-encoding").map(str::to_ascii_lowercase).as_deref(),
        Some("chunked"),
        "progress endpoint must stream"
    );
    let last = watched.body_str().lines().last().map(str::to_string).unwrap_or_default();
    assert!(last.contains("\"state\":\"done\""), "{last}");
    let result_b = get(&base, "/v1/jobs/2/result");
    assert_eq!(result_b.status, 200);
    assert!(result_b.body_str().contains("\"config\":\"DDR-baseline\""));

    let stats = shutdown(&base, handle);
    assert_eq!(stats.queue_rejected, 1);
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn shutdown_drains_inflight_work_and_metrics_expose_the_pipeline() {
    let (base, handle) = start(1, 16);
    // Queue work, then immediately request shutdown: the drain must wait
    // for both jobs, and the queued-then-drained job must still answer.
    let j1 = r#"{"workload":"lbm","config":"2x","instructions":20000,"warmup":2000,"async":true}"#;
    let j2 = r#"{"workload":"mcf","config":"4x","instructions":3000,"warmup":500,"async":true}"#;
    assert_eq!(post(&base, "/v1/run", j1).status, 202);
    assert_eq!(post(&base, "/v1/run", j2).status, 202);

    let metrics = get(&base, "/metrics").body_str().into_owned();
    for name in [
        "gateway.queue.depth",
        "gateway.queue.capacity",
        "gateway.queue.rejected",
        "gateway.cache.hits",
        "gateway.cache.misses",
        "gateway.dedup.joins",
        "gateway.requests.total",
        "gateway.request.latency_us",
        "gateway.jobs.running",
        "gateway.shutdown.draining",
    ] {
        assert!(metrics.contains(name), "/metrics must expose {name}:\n{metrics}");
    }

    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, 2, "drain must finish queued and running jobs");
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn error_paths_and_cache_hits() {
    let (base, handle) = start(1, 16);
    // Structured 400s.
    assert_eq!(post(&base, "/v1/run", r#"{"workload":"nope"}"#).status, 400);
    assert_eq!(post(&base, "/v1/run", "garbage").status, 400);
    assert_eq!(post(&base, "/v1/run", r#"{"workload":"mcf","engine":"warp"}"#).status, 400);
    // Nesting past the codec's bound is a 400, not a stack overflow; the
    // requests below prove the process survived it.
    assert_eq!(post(&base, "/v1/run", &"[".repeat(100_000)).status, 400);
    // Unknown routes and methods.
    assert_eq!(get(&base, "/v1/nope").status, 404);
    assert_eq!(get(&base, "/v1/jobs/99").status, 404);
    assert_eq!(post(&base, "/metrics", "").status, 405);
    assert_eq!(get(&base, "/healthz").body_str(), "ok\n");

    // A repeated request is a cache hit: same body, no second simulation.
    let body = r#"{"workload":"mcf","config":"ddr","instructions":2000,"warmup":500}"#;
    let first = post(&base, "/v1/run", body);
    assert_eq!(first.status, 200);
    let second = post(&base, "/v1/run", body);
    assert_eq!(second.status, 200);
    assert_eq!(first.body_str(), second.body_str());
    let metrics = get(&base, "/metrics").body_str().into_owned();
    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, 1, "second request must be served from cache");
    assert!(metrics.contains("gateway.cache.hits"), "{metrics}");

    // Sweep responses are an array with one report per config.
    let (base, handle) = start(2, 16);
    let sweep = r#"{"workload":"mcf","configs":["ddr","4x"],"instructions":2000,"warmup":500}"#;
    let resp = post(&base, "/v1/sweep", sweep);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let text = resp.body_str();
    assert!(text.starts_with('[') && text.trim_end().ends_with(']'), "{text}");
    assert!(text.contains("\"config\":\"DDR-baseline\""), "{text}");
    assert!(text.contains("\"config\":\"COAXIAL-4x\""), "{text}");
    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, 1);
}

/// Parse one counter's value out of the rendered `/metrics` body.
fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(name)).then(|| it.next().unwrap_or("0").parse().unwrap_or(0))
        })
        .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
}

#[test]
fn job_table_stays_bounded_under_distinct_request_hammer() {
    // Every request is unique (distinct instruction budget), so each one
    // is a fresh job: without bounded retention the table would grow to
    // N entries and a long-lived gateway would leak.
    let (base, handle) = start(2, 128);
    const N: u64 = 80; // > RETAINED_JOBS (64)
    for i in 0..N {
        let body = format!(
            "{{\"workload\":\"mcf\",\"config\":\"4x\",\"instructions\":{},\"warmup\":100}}",
            500 + i
        );
        let resp = post(&base, "/v1/run", &body);
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    }
    let metrics = get(&base, "/metrics").body_str().into_owned();
    let entries = metric_value(&metrics, "gateway.jobs.entries");
    assert!(entries <= 64, "job table must stay bounded, got {entries}");
    assert_eq!(metric_value(&metrics, "gateway.jobs.admitted"), N);
    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, N);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn trace_jobs_expose_perfetto_export() {
    let (base, handle) = start(1, 8);
    let body = r#"{"workload":"mcf","config":"4x","instructions":2000,"warmup":500,"trace":true}"#;
    let resp = post(&base, "/v1/run", body);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let trace = get(&base, "/v1/jobs/1/trace");
    assert_eq!(trace.status, 200, "{}", trace.body_str());
    assert!(trace.body_str().contains("traceEvents"), "Perfetto/Chrome JSON envelope");
    // The same request without trace=true is a different key (different
    // job), and its trace endpoint answers 404.
    let plain = r#"{"workload":"mcf","config":"4x","instructions":2000,"warmup":500}"#;
    assert_eq!(post(&base, "/v1/run", plain).status, 200);
    assert_eq!(get(&base, "/v1/jobs/2/trace").status, 404);
    shutdown(&base, handle);
}

#[test]
fn serve_returns_after_shutdown_with_no_other_traffic() {
    let (base, handle) = start(1, 4);
    let stats = shutdown(&base, handle);
    assert_eq!(stats.requests_total, 1, "only the shutdown request was served");
}

#[test]
fn gateway_on_an_unspecified_address_stops_after_shutdown() {
    // The lifecycle thread wakes the blocked accept through loopback.
    let (base, handle) = start_on("0.0.0.0:0", 1, 4);
    assert_eq!(get(&base, "/healthz").status, 200);
    let stats = shutdown(&base, handle);
    assert_eq!(stats.requests_total, 2);
}

#[test]
fn oversized_header_line_gets_400() {
    let (base, handle) = start(1, 4);
    let addr = base.trim_start_matches("http://");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let long = "a".repeat(9 * 1024);
    let head = format!("GET /healthz HTTP/1.1\r\nx-long: {long}\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("send");
    // Only the status line: the gateway may reset the connection after
    // answering, since it stops reading at the cap.
    let mut status = String::new();
    BufReader::new(stream).read_line(&mut status).expect("read status line");
    assert!(status.starts_with("HTTP/1.1 400 "), "{status}");
    shutdown(&base, handle);
}

#[test]
fn connections_past_the_cap_get_503_until_they_close() {
    let (base, handle) = start(1, 4);
    let addr = base.trim_start_matches("http://");
    // Idle connections pin a handler each (blocked reading the request
    // line); accept is FIFO, so all of them are live when the next
    // request is accepted.
    let idle: Vec<_> = (0..MAX_CONNECTIONS)
        .map(|_| std::net::TcpStream::connect(addr).expect("connect idle"))
        .collect();
    let refused = get(&base, "/healthz");
    assert_eq!(refused.status, 503, "{}", refused.body_str());
    assert_eq!(refused.header("retry-after"), Some("1"));
    drop(idle);
    // The handlers see EOF and exit; the accept thread reaps them on its
    // next accept.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = get(&base, "/healthz");
        if resp.status == 200 {
            break;
        }
        assert_eq!(resp.status, 503, "{}", resp.body_str());
        assert!(Instant::now() < deadline, "connections never recovered after closing");
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = get(&base, "/metrics").body_str().into_owned();
    assert!(metric_value(&metrics, "gateway.connections.rejected") >= 1, "{metrics}");
    shutdown(&base, handle);
}
