//! The serve loop: listener, worker pool, request routing, and graceful
//! shutdown.
//!
//! One thread blocks in `accept()` and hands each connection to a thread
//! of its own (requests block for seconds on simulations, so a handler
//! thread per connection is the simple and correct shape); `workers`
//! dedicated threads drain the job queue. SIGTERM and `POST /shutdown`
//! both flip [`Gateway::draining`]: admission starts answering 503 and the
//! queue drains — an accepted job is never dropped. One lifecycle thread
//! decides when the gateway stops: once the drain completes it sets
//! [`Gateway::stopped`] and wakes the blocked `accept()` with a loopback
//! connection, so no thread polls on the request path.
//!
//! Every input is bounded: request lines and headers are capped in
//! [`crate::http`], each connection gets read and write timeouts, and
//! past [`MAX_CONNECTIONS`] live connections the accept thread answers
//! 503 itself instead of spawning another handler.

use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coaxial_system::runner::RunSpec;
use coaxial_telemetry::json::escape;
use coaxial_telemetry::TelemetryRecorder;

use crate::http::{respond, ChunkedWriter, Request};
use crate::report::{report_to_json, reports_to_json};
use crate::request::{parse_run, parse_sweep};
use crate::state::{Admission, Gateway, Job, JobKind, JobStatus};
use crate::GatewayConfig;

/// Live connections (handler threads) before the accept thread answers
/// new ones with 503 itself.
pub const MAX_CONNECTIONS: usize = 256;

/// Read and write timeout on every accepted connection, so a client that
/// connects and never sends (or never reads) cannot pin a handler thread.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How often the lifecycle thread looks at [`SIGTERM_SEEN`]; every other
/// event it waits for arrives as a `done_cv` notification.
const SIGTERM_POLL: Duration = Duration::from_millis(100);

/// Flipped by the SIGTERM handler; read by the lifecycle thread.
static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM_SEEN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `signal(2)` with a handler that only performs an atomic
    // store is async-signal-safe; no Rust state is touched from the
    // handler and the symbol is provided by libc on every unix target.
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Final tallies returned by [`serve`] after a graceful shutdown.
#[derive(Debug, Clone, Copy)]
pub struct GatewayStats {
    pub requests_total: u64,
    pub jobs_completed: u64,
    pub jobs_failed: u64,
    pub dedup_joins: u64,
    pub queue_rejected: u64,
}

/// Run the gateway until SIGTERM or `POST /shutdown`, then drain and
/// return the final counters. Blocks the calling thread.
pub fn serve(cfg: GatewayConfig) -> std::io::Result<GatewayStats> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let local = listener.local_addr()?;
    // Before the port file appears: a script that reads it may signal us.
    install_sigterm_handler();
    if let Some(path) = &cfg.port_file {
        // Tmp+rename so a polling reader never sees a half-written line.
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, format!("{local}\n"))?;
        std::fs::rename(&tmp, path)?;
    }
    eprintln!("coaxial-gateway listening on http://{local} ({} workers)", cfg.workers);

    let gw = Arc::new(Gateway::new(cfg));
    std::thread::scope(|scope| {
        for _ in 0..gw.cfg.workers {
            let gw = Arc::clone(&gw);
            scope.spawn(move || worker_loop(&gw));
        }
        scope.spawn(|| lifecycle(&gw, local));

        let mut handlers: Vec<std::thread::ScopedJoinHandle<'_, ()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            if gw.stopped.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, peer)) => {
                    handlers.retain(|h| !h.is_finished());
                    if handlers.len() >= MAX_CONNECTIONS {
                        refuse_connection(&gw, stream);
                        continue;
                    }
                    let gw = Arc::clone(&gw);
                    handlers.push(scope.spawn(move || {
                        handle_connection(&gw, stream, &peer.ip().to_string());
                    }));
                }
                Err(e) => {
                    eprintln!("gateway: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        // Handler threads finish their (already answered or
        // about-to-be-answered) connections before the scope returns.
    });

    Ok(GatewayStats {
        requests_total: gw.requests_total.load(Ordering::Relaxed),
        jobs_completed: gw.jobs_completed.load(Ordering::Relaxed),
        jobs_failed: gw.jobs_failed.load(Ordering::Relaxed),
        dedup_joins: gw.dedup_joins.load(Ordering::Relaxed),
        queue_rejected: gw.queue_rejected.load(Ordering::Relaxed),
    })
}

/// The one thread that decides when the gateway stops. It starts the
/// drain on SIGTERM, waits until no work remains, then stops the workers
/// and wakes the accept loop blocked on `local`.
fn lifecycle(gw: &Gateway, local: SocketAddr) {
    loop {
        if SIGTERM_SEEN.load(Ordering::SeqCst) && !gw.draining.load(Ordering::SeqCst) {
            begin_drain(gw);
        }
        let inner = gw.inner.lock().expect("gateway lock poisoned");
        if gw.drained(&inner) {
            break;
        }
        // Finished jobs and `begin_drain` notify `done_cv`; the timeout
        // only bounds how late a SIGTERM is seen.
        let _ = gw.done_cv.wait_timeout(inner, SIGTERM_POLL).expect("gateway lock poisoned");
    }
    gw.stopped.store(true, Ordering::SeqCst);
    gw.work_cv.notify_all();
    // An unspecified bind address accepts on loopback of its family.
    let mut wake = local;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    if let Err(e) = TcpStream::connect(wake) {
        eprintln!("gateway: could not wake the accept loop at {wake}: {e}");
    }
}

/// Enter drain mode (idempotent): stop admitting, let the queue empty.
/// The flag flips under the state lock, so a thread that checked it there
/// is already waiting when the notifications below arrive.
fn begin_drain(gw: &Gateway) {
    let queued = {
        let inner = gw.inner.lock().expect("gateway lock poisoned");
        (!gw.draining.swap(true, Ordering::SeqCst)).then(|| inner.queue.len())
    };
    if let Some(queued) = queued {
        eprintln!("coaxial-gateway: draining ({queued} queued)");
    }
    gw.work_cv.notify_all();
    gw.done_cv.notify_all();
}

/// One simulation worker: pop, execute outside the lock, publish. It
/// exits once a drain finds the queue empty.
fn worker_loop(gw: &Gateway) {
    loop {
        let (id, kind, trace_requested, progress) = {
            let mut inner = gw.inner.lock().expect("gateway lock poisoned");
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    inner.running += 1;
                    let job = inner.jobs.get_mut(&id).expect("queued job exists");
                    job.status = JobStatus::Running;
                    // Move the specs out for execution; the job keeps its
                    // metadata. `total` etc. stay readable while we run.
                    let kind = std::mem::replace(&mut job.kind, JobKind::Sweep(Vec::new()));
                    break (id, kind, job.trace_requested, Arc::clone(&job.progress));
                }
                if gw.draining.load(Ordering::SeqCst) {
                    return;
                }
                inner = gw.work_cv.wait(inner).expect("gateway lock poisoned");
            }
        };

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&kind, trace_requested, &progress)
        }));

        let mut inner = gw.inner.lock().expect("gateway lock poisoned");
        inner.running -= 1;
        let job = inner.jobs.get_mut(&id).expect("running job exists");
        job.kind = kind;
        let key = job.key;
        let mut cache_insert = None;
        match outcome {
            Ok((body, trace)) => {
                let body = Arc::new(body.into_bytes());
                cache_insert = Some((key, Arc::clone(&body), body.len() as u64));
                job.body = Some(body);
                job.trace = trace.map(|t| Arc::new(t.into_bytes()));
                job.status = JobStatus::Done;
                gw.jobs_completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("simulation panicked");
                job.status = JobStatus::Failed(msg.to_string());
                gw.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some((key, body, bytes)) = cache_insert {
            inner.cache.insert(key, body, bytes);
        }
        inner.inflight.remove(&key);
        // Bounded retention: keep only the most recent terminal jobs in
        // the table (the body above stays reachable via the cache).
        inner.retire_job(id);
        drop(inner);
        gw.done_cv.notify_all();
    }
}

/// Run the simulation(s) for one job. Returns `(response body, trace)`.
fn execute(kind: &JobKind, trace: bool, progress: &AtomicU64) -> (String, Option<String>) {
    match kind {
        JobKind::Run(spec) => {
            let (report, trace_json) = run_one(spec, trace);
            progress.fetch_add(1, Ordering::Relaxed);
            (report_to_json(&report) + "\n", trace_json)
        }
        JobKind::Sweep(specs) => {
            // Fan out over the run pool; each finished config ticks the
            // progress counter streamed by `GET /v1/jobs/{id}`.
            let reports = coaxial_system::runner::parallel_map(specs, |spec| {
                let (report, _) = run_one(spec, false);
                progress.fetch_add(1, Ordering::Relaxed);
                report
            });
            (reports_to_json(&reports) + "\n", None)
        }
    }
}

/// Execute one [`RunSpec`], optionally capturing a Perfetto trace.
fn run_one(spec: &RunSpec, trace: bool) -> (coaxial_system::RunReport, Option<String>) {
    if trace {
        let rec = TelemetryRecorder::new().with_trace_window(65_536, 0, u64::MAX);
        let (report, rec, _metrics) = spec.simulation().run_with_telemetry(rec);
        (report, Some(rec.tracer.export_chrome_json()))
    } else {
        (spec.run(), None)
    }
}

/// Parse and answer one connection (one request: `Connection: close`).
/// A request that breaks the HTTP reader's caps is answered 400.
fn handle_connection(gw: &Gateway, stream: TcpStream, client: &str) {
    let started = Instant::now();
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    let req = match Request::read_from(&mut reader) {
        Err(e) if e.kind() != std::io::ErrorKind::InvalidData => return, // hung up or timed out
        req => req,
    };
    let mut stream = reader.into_inner();
    gw.requests_total.fetch_add(1, Ordering::Relaxed);
    let _ = match req {
        Ok(req) => route(gw, &mut stream, &req, client),
        Err(e) => respond(&mut stream, 400, "application/json", &[], &err_body(&e.to_string())),
    };
    let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    gw.latency_us.record(us);
}

/// Answer a connection past [`MAX_CONNECTIONS`] on the accept thread.
fn refuse_connection(gw: &Gateway, mut stream: TcpStream) {
    gw.connections_rejected.fetch_add(1, Ordering::Relaxed);
    let body = err_body("too many open connections");
    let _ = respond(&mut stream, 503, "application/json", &[("retry-after", "1")], &body);
}

fn err_body(msg: &str) -> Vec<u8> {
    format!("{{\"error\":\"{}\"}}\n", escape(msg)).into_bytes()
}

fn route(gw: &Gateway, stream: &mut TcpStream, req: &Request, client: &str) -> std::io::Result<()> {
    const JSON: &str = "application/json";
    const TEXT: &str = "text/plain; charset=utf-8";
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond(stream, 200, TEXT, &[], b"ok\n"),
        ("GET", "/metrics") => {
            let text = gw.metrics_registry().render(None);
            respond(stream, 200, TEXT, &[], text.as_bytes())
        }
        ("POST", "/v1/run") => match parse_run(&req.body) {
            Ok(r) => submit(
                gw,
                stream,
                client,
                r.key,
                JobKind::Run(Box::new(r.spec)),
                r.trace,
                1,
                r.background,
            ),
            Err(msg) => respond(stream, 400, JSON, &[], &err_body(&msg)),
        },
        ("POST", "/v1/sweep") => match parse_sweep(&req.body) {
            Ok(s) => {
                let total = s.specs.len() as u64;
                submit(
                    gw,
                    stream,
                    client,
                    s.key,
                    JobKind::Sweep(s.specs),
                    false,
                    total,
                    s.background,
                )
            }
            Err(msg) => respond(stream, 400, JSON, &[], &err_body(&msg)),
        },
        ("POST", "/shutdown") => {
            begin_drain(gw);
            wait_drained(gw);
            respond(stream, 200, JSON, &[], b"{\"status\":\"drained\"}\n")
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => job_endpoint(gw, stream, path),
        (_, "/healthz" | "/metrics" | "/v1/run" | "/v1/sweep" | "/shutdown") => {
            respond(stream, 405, JSON, &[], &err_body("method not allowed"))
        }
        _ => respond(stream, 404, JSON, &[], &err_body("not found")),
    }
}

/// Admission + response for run/sweep submissions.
#[allow(clippy::too_many_arguments)]
fn submit(
    gw: &Gateway,
    stream: &mut TcpStream,
    client: &str,
    key: u128,
    kind: JobKind,
    trace: bool,
    total: u64,
    background: bool,
) -> std::io::Result<()> {
    const JSON: &str = "application/json";
    if !gw.admit_client(client) {
        return respond(
            stream,
            429,
            JSON,
            &[("retry-after", "1")],
            &err_body("rate limit exceeded"),
        );
    }
    let id = match gw.admit(key, kind, trace, total) {
        Admission::Cached(body) => return respond(stream, 200, JSON, &[], &body),
        Admission::QueueFull => {
            return respond(stream, 429, JSON, &[("retry-after", "2")], &err_body("job queue full"))
        }
        Admission::Draining => {
            return respond(stream, 503, JSON, &[], &err_body("gateway is draining"))
        }
        Admission::Joined(id) | Admission::Enqueued(id) => id,
    };
    if background {
        let body = format!("{{\"job\":{id}}}\n");
        return respond(stream, 202, JSON, &[], body.as_bytes());
    }
    // Blocking delivery: wait for the (possibly shared) job to finish.
    let mut inner = gw.inner.lock().expect("gateway lock poisoned");
    let job_key = inner.jobs.get(&id).map(|j| j.key);
    loop {
        let Some(job) = inner.jobs.get(&id) else {
            // The job finished and was retired from the bounded table
            // before this handler woke; its body is still in the cache.
            if let Some(body) = job_key.and_then(|k| inner.cache.get(&k).map(Arc::clone)) {
                drop(inner);
                return respond(stream, 200, JSON, &[], &body);
            }
            drop(inner);
            return respond(stream, 500, JSON, &[], &err_body("job was retired before delivery"));
        };
        match &job.status {
            JobStatus::Done => {
                let body = Arc::clone(job.body.as_ref().expect("done job has a body"));
                drop(inner);
                return respond(stream, 200, JSON, &[], &body);
            }
            JobStatus::Failed(msg) => {
                let body = err_body(msg);
                drop(inner);
                return respond(stream, 500, JSON, &[], &body);
            }
            JobStatus::Queued | JobStatus::Running => {
                inner = gw.done_cv.wait(inner).expect("gateway lock poisoned");
            }
        }
    }
}

/// `GET /v1/jobs/{id}[/result|/trace]`.
fn job_endpoint(gw: &Gateway, stream: &mut TcpStream, path: &str) -> std::io::Result<()> {
    const JSON: &str = "application/json";
    let rest = &path["/v1/jobs/".len()..];
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return respond(stream, 400, JSON, &[], &err_body("job id must be an integer"));
    };
    match tail {
        None => stream_progress(gw, stream, id),
        Some("status") => {
            let inner = gw.inner.lock().expect("gateway lock poisoned");
            match inner.jobs.get(&id) {
                Some(job) => {
                    let body = format!(
                        "{{\"job\":{id},\"state\":\"{}\",\"done\":{},\"total\":{}}}\n",
                        job.status.name(),
                        job.progress.load(std::sync::atomic::Ordering::Relaxed),
                        job.total
                    );
                    drop(inner);
                    respond(stream, 200, JSON, &[], body.as_bytes())
                }
                None => respond(stream, 404, JSON, &[], &err_body("no such job")),
            }
        }
        Some("result") => {
            let inner = gw.inner.lock().expect("gateway lock poisoned");
            match inner.jobs.get(&id) {
                Some(Job { status: JobStatus::Done, body: Some(body), .. }) => {
                    let body = Arc::clone(body);
                    drop(inner);
                    respond(stream, 200, JSON, &[], &body)
                }
                Some(Job { status: JobStatus::Failed(msg), .. }) => {
                    let body = err_body(msg);
                    drop(inner);
                    respond(stream, 500, JSON, &[], &body)
                }
                Some(_) => respond(stream, 404, JSON, &[], &err_body("job is not finished")),
                None => respond(stream, 404, JSON, &[], &err_body("no such job")),
            }
        }
        Some("trace") => {
            let inner = gw.inner.lock().expect("gateway lock poisoned");
            match inner.jobs.get(&id) {
                Some(Job { trace: Some(trace), .. }) => {
                    let trace = Arc::clone(trace);
                    drop(inner);
                    respond(stream, 200, JSON, &[], &trace)
                }
                Some(_) => respond(
                    stream,
                    404,
                    JSON,
                    &[],
                    &err_body("no trace: job still running or not requested with trace=true"),
                ),
                None => respond(stream, 404, JSON, &[], &err_body("no such job")),
            }
        }
        Some(_) => respond(stream, 404, JSON, &[], &err_body("not found")),
    }
}

/// Stream job progress as chunked newline-delimited JSON until the job
/// reaches a terminal state; the final line carries the status.
fn stream_progress(gw: &Gateway, stream: &mut TcpStream, id: u64) -> std::io::Result<()> {
    {
        let inner = gw.inner.lock().expect("gateway lock poisoned");
        if !inner.jobs.contains_key(&id) {
            drop(inner);
            return respond(stream, 404, "application/json", &[], &err_body("no such job"));
        }
    }
    let mut w = ChunkedWriter::start(stream, 200, "application/x-ndjson")?;
    let mut last_line = String::new();
    loop {
        let (line, terminal) = {
            let inner = gw.inner.lock().expect("gateway lock poisoned");
            let Some(job) = inner.jobs.get(&id) else {
                // Finished and retired from the bounded table between
                // polls; close the stream with a terminal line.
                drop(inner);
                w.chunk(format!("{{\"job\":{id},\"state\":\"retired\"}}\n").as_bytes())?;
                return w.finish();
            };
            let done = job.progress.load(Ordering::Relaxed);
            let line = format!(
                "{{\"job\":{id},\"state\":\"{}\",\"done\":{done},\"total\":{}}}\n",
                job.status.name(),
                job.total
            );
            (line, job.status.terminal())
        };
        if line != last_line {
            w.chunk(line.as_bytes())?;
            last_line = line;
        }
        if terminal {
            return w.finish();
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Block until the queue is empty and no job is running.
fn wait_drained(gw: &Gateway) {
    let mut inner = gw.inner.lock().expect("gateway lock poisoned");
    while !(inner.queue.is_empty() && inner.running == 0) {
        inner = gw.done_cv.wait(inner).expect("gateway lock poisoned");
    }
}
