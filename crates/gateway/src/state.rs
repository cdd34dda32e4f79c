//! Shared gateway state: the job table, bounded queue, in-flight dedup
//! map, completed-result cache, per-client token buckets, and the
//! telemetry snapshot behind `GET /metrics`.
//!
//! Everything mutable lives under one `Mutex<Inner>`; simulations run
//! *outside* the lock, so the critical sections are queue/table edits
//! measured in microseconds. Two condvars signal the two directions:
//! `work_cv` wakes workers when a job is queued (or a drain begins), and
//! `done_cv` wakes blocked HTTP handlers and the lifecycle thread when any
//! job reaches a terminal state (or a drain begins).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use coaxial_sim::ByteBoundedLru;
use coaxial_system::runner::RunSpec;
use coaxial_telemetry::{MetricsRegistry, SharedHistogram};

use crate::GatewayConfig;

/// What a queued job executes.
pub enum JobKind {
    Run(Box<RunSpec>),
    Sweep(Vec<RunSpec>),
}

/// Job lifecycle; `Done`/`Failed` are terminal.
#[derive(Clone, PartialEq, Eq)]
pub enum JobStatus {
    Queued,
    Running,
    Done,
    Failed(String),
}

impl JobStatus {
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }

    pub fn terminal(&self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed(_))
    }
}

/// One admitted unit of work. Stays in the table after completion so
/// `GET /v1/jobs/{id}` and `/result`/`/trace` keep answering — but only
/// the [`RETAINED_JOBS`] most recent terminal jobs are kept
/// ([`Inner::retire_job`]); older ids answer 404 while their response
/// bodies remain reachable through the result cache.
pub struct Job {
    pub id: u64,
    pub key: u128,
    pub kind: JobKind,
    pub trace_requested: bool,
    pub status: JobStatus,
    /// Completed response body (also inserted into the result cache).
    pub body: Option<Arc<Vec<u8>>>,
    /// Perfetto trace JSON when `trace_requested`.
    pub trace: Option<Arc<Vec<u8>>>,
    /// Completed sub-runs (sweeps tick once per config) — read lock-free
    /// by the streaming progress endpoint while the worker simulates.
    pub progress: Arc<AtomicU64>,
    pub total: u64,
}

/// Client-side admission control: a classic token bucket refilled by
/// wall-clock time. The gateway crate is service plumbing, not simulation
/// model, so it opts out of the workspace `Instant` ban (the crate-level
/// `#[expect]` in lib.rs).
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

/// Rates and burst sizes are human-scale knobs (≪ 2^53), so the u64→f64
/// conversion is exact.
#[allow(clippy::cast_precision_loss)]
fn small_f64(x: u64) -> f64 {
    x as f64
}

impl TokenBucket {
    fn admit(&mut self, rate_per_sec: u64, burst: u64) -> bool {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        let rate: f64 = small_f64(rate_per_sec);
        // A burst of 0 would cap the bucket at 0 tokens and lock the
        // client out permanently; admission needs ≥1 token of headroom.
        self.tokens = (self.tokens + dt * rate).min(small_f64(burst.max(1)));
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Terminal jobs kept in the table for late `GET`s. Beyond this the
/// oldest one is dropped, so a long-lived gateway's job table stays
/// bounded no matter how many runs it has served.
pub const RETAINED_JOBS: usize = 64;

/// Idle per-client limiter buckets tolerated before a sweep; small enough
/// that the sweep (an O(clients) scan under the lock) stays rare on quiet
/// gateways and cheap on busy ones.
const LIMITER_SWEEP_MIN: usize = 8;

/// Mutex-guarded portion of the gateway.
pub struct Inner {
    /// FIFO of queued job ids (bounded by `cfg.queue_depth`).
    pub queue: VecDeque<u64>,
    /// Every admitted job, by id.
    pub jobs: BTreeMap<u64, Job>,
    /// Canonical key → job id for jobs that are queued or running;
    /// identical concurrent requests attach here instead of enqueueing.
    pub inflight: BTreeMap<u128, u64>,
    /// Completed response bodies, byte-bounded.
    pub cache: ByteBoundedLru<u128, Arc<Vec<u8>>>,
    next_id: u64,
    /// Jobs currently executing on workers (not in `queue`).
    pub running: usize,
    limiters: BTreeMap<String, TokenBucket>,
    /// Terminal job ids, oldest first — the eviction order behind
    /// [`RETAINED_JOBS`].
    finished: VecDeque<u64>,
}

impl Inner {
    /// Record a job as terminal and enforce [`RETAINED_JOBS`]: the oldest
    /// retained terminal job is dropped from the table once the bound is
    /// exceeded. Completed bodies stay reachable through the result cache
    /// even after the job row is gone.
    pub fn retire_job(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > RETAINED_JOBS {
            if let Some(old) = self.finished.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

/// Admission verdict for a new run/sweep request.
pub enum Admission {
    /// Served straight from the result cache.
    Cached(Arc<Vec<u8>>),
    /// Attached to an already queued/running identical job.
    Joined(u64),
    /// Newly enqueued.
    Enqueued(u64),
    /// Queue full — `429 Retry-After`.
    QueueFull,
    /// Shutting down — `503`.
    Draining,
}

/// The shared gateway: configuration, guarded state, and counters that
/// are read without the lock (metrics, shutdown flags).
pub struct Gateway {
    pub cfg: GatewayConfig,
    pub inner: Mutex<Inner>,
    /// Workers wait here for queue activity or drain.
    pub work_cv: Condvar,
    /// Blocked request handlers and the lifecycle thread wait here for job
    /// completion or a drain.
    pub done_cv: Condvar,
    /// Set on SIGTERM / `POST /shutdown`, under the `inner` lock: refuse
    /// new work, finish the rest.
    pub draining: AtomicBool,
    /// Set by the lifecycle thread once the drain completes; the accept
    /// loop exits when it wakes and finds it.
    pub stopped: AtomicBool,
    pub requests_total: AtomicU64,
    pub rate_limited: AtomicU64,
    pub queue_rejected: AtomicU64,
    pub dedup_joins: AtomicU64,
    /// Connections answered 503 because `MAX_CONNECTIONS` were live.
    pub connections_rejected: AtomicU64,
    pub jobs_completed: AtomicU64,
    pub jobs_failed: AtomicU64,
    /// Idle per-client limiter buckets dropped by the admission sweep.
    pub limiters_evicted: AtomicU64,
    /// End-to-end request latency in microseconds (admission to response
    /// head), across all endpoints.
    pub latency_us: SharedHistogram,
}

impl Gateway {
    #[must_use]
    pub fn new(cfg: GatewayConfig) -> Self {
        let cache = ByteBoundedLru::new(cfg.cache_mb.saturating_mul(1024 * 1024).max(1));
        Self {
            cfg,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                inflight: BTreeMap::new(),
                cache,
                next_id: 1,
                running: 0,
                limiters: BTreeMap::new(),
                finished: VecDeque::new(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            requests_total: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            queue_rejected: AtomicU64::new(0),
            dedup_joins: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            limiters_evicted: AtomicU64::new(0),
            latency_us: SharedHistogram::new(),
        }
    }

    /// Token-bucket admission for one client; `true` means proceed.
    /// Disabled (always true) when `rate_per_sec` is 0.
    pub fn admit_client(&self, client: &str) -> bool {
        if self.cfg.rate_per_sec == 0 {
            return true;
        }
        let mut inner = self.inner.lock().expect("gateway lock poisoned");
        let bucket = inner.limiters.entry(client.to_string()).or_insert_with(|| TokenBucket {
            // Same ≥1 clamp as `TokenBucket::admit`: a fresh client must
            // hold at least one admittable token even at burst 0.
            tokens: small_f64(self.cfg.burst.max(1)),
            last: Instant::now(),
        });
        let ok = bucket.admit(self.cfg.rate_per_sec, self.cfg.burst);
        if !ok {
            self.rate_limited.fetch_add(1, Ordering::Relaxed);
        }
        if inner.limiters.len() > LIMITER_SWEEP_MIN {
            // Evict buckets idle past the full-refill horizon: such a
            // bucket is back at capacity, and a re-inserted bucket starts
            // full, so dropping it cannot change any admission decision.
            // One distinct client per request would otherwise grow the
            // map without bound.
            let now = Instant::now();
            let horizon = small_f64(self.cfg.burst.max(1)) / small_f64(self.cfg.rate_per_sec);
            let before = inner.limiters.len();
            inner.limiters.retain(|_, b| now.duration_since(b.last).as_secs_f64() < horizon);
            let evicted = (before - inner.limiters.len()) as u64;
            if evicted > 0 {
                self.limiters_evicted.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        ok
    }

    /// Route one canonicalized request through cache → dedup → queue.
    pub fn admit(&self, key: u128, kind: JobKind, trace: bool, total: u64) -> Admission {
        let mut inner = self.inner.lock().expect("gateway lock poisoned");
        if let Some(body) = inner.cache.get(&key) {
            return Admission::Cached(Arc::clone(body));
        }
        if let Some(&id) = inner.inflight.get(&key) {
            self.dedup_joins.fetch_add(1, Ordering::Relaxed);
            return Admission::Joined(id);
        }
        if self.draining.load(Ordering::SeqCst) {
            return Admission::Draining;
        }
        if inner.queue.len() >= self.cfg.queue_depth {
            self.queue_rejected.fetch_add(1, Ordering::Relaxed);
            return Admission::QueueFull;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            Job {
                id,
                key,
                kind,
                trace_requested: trace,
                status: JobStatus::Queued,
                body: None,
                trace: None,
                progress: Arc::new(AtomicU64::new(0)),
                total,
            },
        );
        inner.inflight.insert(key, id);
        inner.queue.push_back(id);
        self.work_cv.notify_one();
        Admission::Enqueued(id)
    }

    /// True once a drain was requested and no work remains.
    pub fn drained(&self, inner: &Inner) -> bool {
        self.draining.load(Ordering::SeqCst) && inner.queue.is_empty() && inner.running == 0
    }

    /// Snapshot every `gateway.*` metric (plus the simulator's prefill
    /// checkpoint counters) into one registry — the `/metrics` body.
    ///
    /// All constant gateway metric paths are registered in this function
    /// so the name space stays greppable in one place.
    #[must_use]
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        {
            let inner = self.inner.lock().expect("gateway lock poisoned");
            reg.set_counter("gateway.queue.depth", inner.queue.len() as u64);
            reg.set_counter("gateway.queue.capacity", self.cfg.queue_depth as u64);
            reg.set_counter("gateway.jobs.running", inner.running as u64);
            reg.set_counter("gateway.jobs.admitted", inner.next_id - 1);
            reg.set_counter("gateway.cache.hits", inner.cache.hits());
            reg.set_counter("gateway.cache.misses", inner.cache.misses());
            reg.set_counter("gateway.cache.evictions", inner.cache.evictions());
            reg.set_counter("gateway.cache.entries", inner.cache.len() as u64);
            reg.set_counter("gateway.cache.bytes", inner.cache.bytes());
            reg.set_counter("gateway.jobs.entries", inner.jobs.len() as u64);
            reg.set_counter("gateway.limiters.entries", inner.limiters.len() as u64);
        }
        reg.set_counter("gateway.limiters.evicted", self.limiters_evicted.load(Ordering::Relaxed));
        reg.set_counter("gateway.queue.rejected", self.queue_rejected.load(Ordering::Relaxed));
        reg.set_counter("gateway.requests.total", self.requests_total.load(Ordering::Relaxed));
        reg.set_counter("gateway.requests.rate_limited", self.rate_limited.load(Ordering::Relaxed));
        reg.set_counter("gateway.dedup.joins", self.dedup_joins.load(Ordering::Relaxed));
        reg.set_counter(
            "gateway.connections.rejected",
            self.connections_rejected.load(Ordering::Relaxed),
        );
        reg.set_counter("gateway.jobs.completed", self.jobs_completed.load(Ordering::Relaxed));
        reg.set_counter("gateway.jobs.failed", self.jobs_failed.load(Ordering::Relaxed));
        reg.set_counter(
            "gateway.shutdown.draining",
            u64::from(self.draining.load(Ordering::SeqCst)),
        );
        self.latency_us.export(&mut reg, "gateway.request.latency_us");
        coaxial_system::server::checkpoint_metrics(&mut reg);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_system::SystemConfig;

    fn cfg(queue_depth: usize) -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth,
            cache_mb: 1,
            rate_per_sec: 0,
            burst: 1,
            port_file: None,
        }
    }

    fn run_kind() -> JobKind {
        let w = coaxial_workloads::Workload::by_name("mcf").unwrap();
        JobKind::Run(Box::new(RunSpec::homogeneous(SystemConfig::coaxial_4x(), w, 1000, 100)))
    }

    #[test]
    fn admission_layers_cache_then_dedup_then_queue() {
        let gw = Gateway::new(cfg(1));
        // First request enqueues.
        let Admission::Enqueued(id) = gw.admit(7, run_kind(), false, 1) else {
            panic!("expected enqueue")
        };
        // Identical concurrent request joins the in-flight job.
        let Admission::Joined(joined) = gw.admit(7, run_kind(), false, 1) else {
            panic!("expected join")
        };
        assert_eq!(joined, id);
        assert_eq!(gw.dedup_joins.load(Ordering::Relaxed), 1);
        // A different key overflows the depth-1 queue.
        assert!(matches!(gw.admit(8, run_kind(), false, 1), Admission::QueueFull));
        assert_eq!(gw.queue_rejected.load(Ordering::Relaxed), 1);
        // Completed body is served from cache without touching the queue.
        {
            let mut inner = gw.inner.lock().unwrap();
            let body = Arc::new(b"{}\n".to_vec());
            inner.cache.insert(7, Arc::clone(&body), 3);
            inner.inflight.remove(&7);
            inner.queue.clear();
        }
        assert!(matches!(gw.admit(7, run_kind(), false, 1), Admission::Cached(_)));
        // Draining refuses fresh work but still serves the cache.
        gw.draining.store(true, Ordering::SeqCst);
        assert!(matches!(gw.admit(9, run_kind(), false, 1), Admission::Draining));
        assert!(matches!(gw.admit(7, run_kind(), false, 1), Admission::Cached(_)));
    }

    #[test]
    fn rate_limiter_enforces_burst_then_refills() {
        let mut c = cfg(4);
        c.rate_per_sec = 1000;
        c.burst = 2;
        let gw = Gateway::new(c);
        assert!(gw.admit_client("a"));
        assert!(gw.admit_client("a"));
        // Burst exhausted; at 1000 tokens/sec the bucket cannot refill a
        // full token between these calls on any realistic machine, but
        // retry a few times to stay robust on slow CI.
        let mut denied = false;
        for _ in 0..3 {
            if !gw.admit_client("a") {
                denied = true;
                break;
            }
        }
        assert!(denied, "third immediate request should be rate-limited");
        // Other clients have their own bucket.
        assert!(gw.admit_client("b"));
        // And the bucket refills with time.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(gw.admit_client("a"));
        assert!(gw.rate_limited.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn zero_burst_still_admits() {
        // Regression: burst 0 capped the bucket at 0 tokens, so every
        // request from every client was rejected forever. The effective
        // burst is clamped to ≥1.
        let mut c = cfg(4);
        c.rate_per_sec = 1000;
        c.burst = 0;
        let gw = Gateway::new(c);
        assert!(gw.admit_client("a"), "first request must pass at burst 0");
        // And the bucket keeps refilling afterwards.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(gw.admit_client("a"), "refill must still admit at burst 0");
    }

    #[test]
    fn idle_limiters_are_evicted_past_the_refill_horizon() {
        let mut c = cfg(4);
        c.rate_per_sec = 1000; // full-refill horizon = 2/1000 s
        c.burst = 2;
        let gw = Gateway::new(c);
        for i in 0..12 {
            assert!(gw.admit_client(&format!("client-{i}")));
        }
        // All 12 buckets go idle well past the horizon, then one new
        // client's admission triggers the sweep.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(gw.admit_client("fresh"));
        let reg = gw.metrics_registry();
        assert_eq!(reg.counter("gateway.limiters.entries"), Some(1), "only `fresh` survives");
        assert_eq!(reg.counter("gateway.limiters.evicted"), Some(12));
    }

    #[test]
    fn job_table_retention_is_bounded() {
        let gw = Gateway::new(cfg(RETAINED_JOBS + 16));
        let extra = 10u64;
        for i in 0..(RETAINED_JOBS as u64 + extra) {
            let key = u128::from(i) + 100;
            let Admission::Enqueued(id) = gw.admit(key, run_kind(), false, 1) else {
                panic!("expected enqueue")
            };
            // Drive the job to terminal the way worker_loop does.
            let mut inner = gw.inner.lock().unwrap();
            inner.queue.pop_front();
            inner.jobs.get_mut(&id).unwrap().status = JobStatus::Done;
            inner.inflight.remove(&key);
            inner.retire_job(id);
        }
        let inner = gw.inner.lock().unwrap();
        assert_eq!(inner.jobs.len(), RETAINED_JOBS, "table must stay at the retention bound");
        // Oldest ids were dropped, newest retained.
        assert!(!inner.jobs.contains_key(&1));
        assert!(inner.jobs.contains_key(&(RETAINED_JOBS as u64 + extra)));
    }

    #[test]
    fn metrics_registry_exposes_gateway_namespace() {
        let gw = Gateway::new(cfg(2));
        let _ = gw.admit(1, run_kind(), false, 1);
        let reg = gw.metrics_registry();
        assert_eq!(reg.counter("gateway.queue.depth"), Some(1));
        assert_eq!(reg.counter("gateway.queue.capacity"), Some(2));
        assert_eq!(reg.counter("gateway.jobs.admitted"), Some(1));
        assert_eq!(reg.counter("gateway.cache.misses"), Some(1));
        assert_eq!(reg.counter("gateway.shutdown.draining"), Some(0));
        let text = reg.render(Some("gateway"));
        assert!(text.contains("gateway.request.latency_us"), "{text}");
    }
}
