//! Autotuning-as-a-service (`tangram::serve`).
//!
//! Everything else in this crate answers "best kernel for `(arch, op,
//! n, dtype)`" as a batch computation. This module wraps the
//! [`Session`] sweep machinery in a long-running daemon optimized for
//! sustained query rates and tail latency, in four layers:
//!
//! 1. **Request front-end with in-flight deduplication** — concurrent
//!    queries for the same exact `(arch, op, dtype, n)` coalesce into
//!    one sweep whose answer fans back out to every waiter
//!    ([`TuneService::query`]). Dedup is keyed by *exact* `n`, not
//!    the store's n-bucket, so a fanned-out answer is always the
//!    byte-identical answer a lone query would have gotten;
//!    bucket-level sharing happens through the tuning store instead.
//! 2. **Nearest-bucket warm start** — an exact-hit record answers
//!    from the cache (PR-7's confirmed warm path); an exact miss with
//!    cached neighbors seeds the halving sweep's survivor rung from
//!    the nearest n-bucket's winner
//!    ([`TuningStore::load_nearest`](crate::store::TuningStore::load_nearest),
//!    [`SeedHint`](crate::evaluate::SeedHint)), so warm-adjacent
//!    queries pay confirmation cost, not discovery cost.
//! 3. **Worker-pool sharding with an admission/QoS gate** — at most
//!    `workers` sweeps run concurrently; excess leaders wait in a
//!    bounded queue for a bounded time, per-tenant concurrency is
//!    capped, and anything over those limits is *shed* with a typed
//!    [`Busy`] response instead of queueing unboundedly. Shed
//!    requests reuse the resilience quarantine machinery: each one is
//!    absorbed into the service's [`ResilienceReport`] as a
//!    [`QuarantineReason::Overload`] event.
//! 4. **Metrics** — [`ServeMetrics`] (qps, p50/p99 latency,
//!    cold/warm/seeded/dedup/busy counts) snapshot on demand, served
//!    over the wire on a `stats` request, and serialized into
//!    `BENCH_serve.json` by the `tuned bench` harness.
//!
//! The wire protocol is line-delimited JSON over a local unix socket
//! ([`Server`]); [`Client`] is the matching blocking client. Every
//! answer carries a preformatted `line` field — `winner=… block=…
//! coarsen=… time_ns=…` — rendered exactly like the `sweep` bin's
//! winner tail, so byte-identity between the daemon and the batch CLI
//! can be asserted with a string compare.
//!
//! Determinism: the daemon never changes an answer. Dedup fans out
//! one leader's sweep verbatim; the seed hint narrows a sweep but
//! falls back on disagreement; the warm path re-confirms records at
//! full fidelity. A daemon answer is bit-identical to the `sweep`
//! bin's for the same `(arch, n)` on every path.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gpu_sim::{ArchConfig, ExecMode};
use serde::{Serialize, Value};
use tangram_passes::workload::WorkloadKey;

use crate::api::Session;
use crate::evaluate::{EvalOptions, SweepMode};
use crate::resilience::{JobReport, QuarantineReason, ResilienceReport};
use crate::store::CacheMode;
use crate::workload::Workload;

/// Configuration of one serve daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path the server listens on.
    pub socket: PathBuf,
    /// Maximum concurrently running sweeps (worker slots).
    pub workers: usize,
    /// Maximum requests waiting for a worker slot beyond the active
    /// ones; requests over this are shed immediately with [`Busy`].
    pub max_queue: usize,
    /// Maximum concurrent requests (active + queued) per tenant;
    /// requests over the cap are shed with [`Busy`].
    pub tenant_cap: usize,
    /// Longest a request may wait in the queue for a worker slot
    /// before being shed; zero sheds the moment all slots are busy.
    pub queue_wait: Duration,
    /// Evaluation worker threads of each sweep (kept small: the
    /// daemon parallelizes across queries, not within one).
    pub sweep_threads: usize,
    /// Persistent tuning-store directory; `None` serves storeless
    /// (every non-deduplicated query is a cold sweep).
    pub cache_dir: Option<PathBuf>,
    /// How the tuning store is used.
    pub cache_mode: CacheMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: std::env::temp_dir().join("tangram-tuned.sock"),
            workers: 2,
            max_queue: 16,
            tenant_cap: 8,
            queue_wait: Duration::from_millis(500),
            sweep_threads: 1,
            cache_dir: None,
            cache_mode: CacheMode::default(),
        }
    }
}

/// One best-variant query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Architecture identifier (`kepler`/`maxwell`/`pascal`).
    pub arch: String,
    /// Kernel/operator identifier (`sum` today).
    pub op: String,
    /// Element dtype (`f32` today).
    pub dtype: String,
    /// Exact array size in elements.
    pub n: u64,
    /// Tenant identifier for the admission gate's per-tenant cap.
    pub tenant: String,
    /// Typed workload (schema v2 wire field). `None` means `sum-f32`
    /// (whose answers stay byte-identical to the schema-1 wire
    /// format); every key is tuned by [`crate::Session::run`].
    pub workload: Option<WorkloadKey>,
}

impl Query {
    /// A default (`sum` over `f32`) query for `arch` at size `n`.
    pub fn sweep(arch: &str, n: u64) -> Self {
        Query {
            arch: arch.to_string(),
            op: "sum".to_string(),
            dtype: "f32".to_string(),
            n,
            tenant: "default".to_string(),
            workload: None,
        }
    }

    /// The same query retargeted at a typed workload.
    #[must_use]
    pub fn with_workload(mut self, key: WorkloadKey) -> Self {
        self.workload = Some(key);
        self
    }

    /// The same query attributed to `tenant`.
    #[must_use]
    pub fn tenant(mut self, tenant: &str) -> Self {
        self.tenant = tenant.to_string();
        self
    }

    /// In-flight dedup key: the exact shape, excluding the tenant.
    fn key(&self) -> FlightKey {
        let workload = self.workload.map(|w| w.id()).unwrap_or_default();
        (self.arch.clone(), self.op.clone(), self.dtype.clone(), workload, self.n)
    }
}

/// How a query was ultimately answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// A full cold sweep.
    Cold,
    /// A cold sweep warm-started (survivor rung seeded) from the
    /// nearest cached n-bucket.
    Seeded,
    /// Answered from an exact cache record re-confirmed at full
    /// fidelity.
    Warm,
    /// Coalesced onto another in-flight query's sweep.
    Dedup,
}

impl Served {
    /// Stable identifier (`cold`/`seeded`/`warm`/`dedup`).
    pub fn id(self) -> &'static str {
        match self {
            Served::Cold => "cold",
            Served::Seeded => "seeded",
            Served::Warm => "warm",
            Served::Dedup => "dedup",
        }
    }
}

/// A successful best-variant answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Architecture the sweep ran on.
    pub arch: String,
    /// Exact array size the sweep ran at.
    pub n: u64,
    /// Winning code version (display string).
    pub version: String,
    /// Winning block size.
    pub block_size: u32,
    /// Winning coarsening factor.
    pub coarsen: u32,
    /// The winner's modelled time (ns).
    pub time_ns: f64,
    /// How the answer was produced.
    pub served: Served,
    /// Wall-clock the requester waited, in milliseconds.
    pub wall_ms: f64,
    /// The typed workload id (`argmax-f32`, `hist64-f32`, …) of any
    /// query but `sum-f32`; `None` for `sum-f32`, keeping those wire
    /// answers byte-identical to the schema-1 format.
    pub workload: Option<String>,
}

impl Answer {
    /// The winner rendered exactly like the `sweep` bin's winner-line
    /// tail, for byte-identity checks against the batch CLI.
    pub fn winner_line(&self) -> String {
        format!(
            "winner={} block={} coarsen={} time_ns={}",
            self.version, self.block_size, self.coarsen, self.time_ns
        )
    }
}

/// Typed shed response of the admission gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Busy {
    /// Why the request was shed (queue full, tenant cap, wait bound).
    pub reason: String,
    /// Sweeps running when the request was shed.
    pub active: usize,
    /// Requests queued when the request was shed.
    pub queued: usize,
}

/// Outcome of one [`TuneService::query`].
#[derive(Debug, Clone)]
pub enum Reply {
    /// The best-variant answer.
    Ok(Answer),
    /// Shed by the admission gate.
    Busy(Busy),
    /// Malformed or unanswerable query (unknown arch/op/dtype).
    Error(String),
}

/// Point-in-time metrics snapshot of a running service.
#[derive(Debug, Clone, Serialize)]
pub struct ServeMetrics {
    /// Queries received (ok + busy + errors).
    pub queries: u64,
    /// Queries answered with a winner.
    pub ok: u64,
    /// Queries shed by the admission gate.
    pub busy: u64,
    /// Malformed or unanswerable queries.
    pub errors: u64,
    /// Answers from full cold sweeps.
    pub cold: u64,
    /// Answers from nearest-bucket-seeded sweeps.
    pub seeded: u64,
    /// Answers from confirmed exact cache records.
    pub warm: u64,
    /// Answers coalesced onto another query's in-flight sweep.
    pub dedup: u64,
    /// Sweeps actually executed (≤ ok thanks to dedup).
    pub sweeps: u64,
    /// Median request latency (ms) across answered queries.
    pub p50_ms: f64,
    /// 99th-percentile request latency (ms).
    pub p99_ms: f64,
    /// Answered queries per second of uptime.
    pub qps: f64,
    /// Service uptime in seconds.
    pub uptime_s: f64,
    /// Merged job accounting of every sweep the service ran, plus one
    /// [`QuarantineReason::Overload`] event per shed request.
    pub resilience: ResilienceReport,
}

/// Latency samples kept for percentile estimation; beyond this the
/// recorder stops sampling (the counters keep counting).
const LATENCY_CAP: usize = 100_000;

#[derive(Debug, Default)]
struct MetricsState {
    queries: u64,
    ok: u64,
    busy: u64,
    errors: u64,
    cold: u64,
    seeded: u64,
    warm: u64,
    dedup: u64,
    sweeps: u64,
    latencies_ms: Vec<f64>,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Admission-gate occupancy.
#[derive(Debug, Default)]
struct GateState {
    active: usize,
    queued: usize,
    per_tenant: HashMap<String, usize>,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A panicking sweep must not wedge the whole daemon: recover the
    // guard and keep serving (the counters a panic could tear are
    // advisory, never answers).
    r.unwrap_or_else(PoisonError::into_inner)
}

/// In-flight dedup key: the exact query shape
/// `(arch, op, dtype, workload-id, n)`; the workload id is empty for
/// legacy queries that never set the field.
type FlightKey = (String, String, String, String, u64);

/// One coalesced in-flight computation: the leader publishes, the
/// followers wait.
struct Flight {
    done: Mutex<Option<Reply>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight { done: Mutex::new(None), cv: Condvar::new() }
    }

    fn publish(&self, reply: Reply) {
        *relock(self.done.lock()) = Some(reply);
        self.cv.notify_all();
    }

    fn wait(&self) -> Reply {
        let mut done = relock(self.done.lock());
        loop {
            if let Some(reply) = done.as_ref() {
                return reply.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Removes the flight from the in-flight map and guarantees followers
/// are woken even when the leader's path errors or panics: a guard
/// dropped without an explicit publish publishes an error.
struct FlightGuard<'a> {
    service: &'a TuneService,
    key: FlightKey,
    flight: Arc<Flight>,
    published: bool,
}

impl FlightGuard<'_> {
    fn publish(mut self, reply: &Reply) {
        self.retire();
        self.flight.publish(reply.clone());
        self.published = true;
    }

    fn retire(&self) {
        relock(self.service.inflight.lock()).remove(&self.key);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.retire();
            self.flight.publish(Reply::Error("leader aborted before publishing".to_string()));
        }
    }
}

/// A query that passed [`TuneService::validate`], with its
/// architecture and workload key resolved.
struct Valid<'q> {
    q: &'q Query,
    arch: ArchConfig,
    key: WorkloadKey,
}

/// The socket-free tuning service: dedup, admission, sweeps, metrics.
/// [`Server`] puts it behind a unix socket; tests drive it directly.
pub struct TuneService {
    cfg: ServeConfig,
    archs: Vec<ArchConfig>,
    inflight: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    gate: Mutex<GateState>,
    gate_cv: Condvar,
    metrics: Mutex<MetricsState>,
    resilience: Mutex<ResilienceReport>,
    started: Instant,
}

impl TuneService {
    /// A service answering for `archs` under `cfg`'s QoS policy.
    pub fn new(cfg: ServeConfig, archs: Vec<ArchConfig>) -> Self {
        TuneService {
            cfg,
            archs,
            inflight: Mutex::new(HashMap::new()),
            gate: Mutex::new(GateState::default()),
            gate_cv: Condvar::new(),
            metrics: Mutex::new(MetricsState::default()),
            resilience: Mutex::new(ResilienceReport::default()),
            started: Instant::now(),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Answer one query: dedup onto an in-flight identical query, or
    /// become the leader — pass the admission gate, run the sweep
    /// (store-warm, seeded, or cold), and fan the answer out.
    pub fn query(&self, q: &Query) -> Reply {
        let t0 = Instant::now();
        relock(self.metrics.lock()).queries += 1;

        let valid = match self.validate(q) {
            Ok(valid) => valid,
            Err(e) => {
                relock(self.metrics.lock()).errors += 1;
                return Reply::Error(e);
            }
        };

        // Dedup before admission: followers consume no worker or
        // queue slots — they only wait on the leader's flight.
        let key = q.key();
        let (flight, leader) = {
            let mut inflight = relock(self.inflight.lock());
            match inflight.get(&key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight::new());
                    inflight.insert(key.clone(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if !leader {
            let reply = flight.wait();
            return self.record_follower(reply, t0);
        }
        let guard = FlightGuard { service: self, key, flight, published: false };

        match self.admit(q) {
            Ok(()) => {}
            Err(busy) => {
                let reply = Reply::Busy(busy.clone());
                // Followers of a shed leader are shed too: they never
                // held a slot, and re-queueing them would just
                // stampede the gate that shed the leader.
                guard.publish(&reply);
                self.record_busy(q, &busy);
                return reply;
            }
        }

        let reply = self.sweep(&valid, t0);
        self.release();
        guard.publish(&reply);
        reply
    }

    /// Snapshot the service metrics.
    pub fn metrics(&self) -> ServeMetrics {
        let m = relock(self.metrics.lock());
        let mut sorted = m.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let uptime_s = self.started.elapsed().as_secs_f64();
        ServeMetrics {
            queries: m.queries,
            ok: m.ok,
            busy: m.busy,
            errors: m.errors,
            cold: m.cold,
            seeded: m.seeded,
            warm: m.warm,
            dedup: m.dedup,
            sweeps: m.sweeps,
            p50_ms: percentile(&sorted, 0.50),
            p99_ms: percentile(&sorted, 0.99),
            qps: if uptime_s > 0.0 { m.ok as f64 / uptime_s } else { 0.0 },
            uptime_s,
            resilience: relock(self.resilience.lock()).clone(),
        }
    }

    /// Check a query's shape and resolve its architecture and
    /// workload key once, for the sweep to use.
    fn validate<'q>(&self, q: &'q Query) -> Result<Valid<'q>, String> {
        // Typed workloads carry their own validated shape; the legacy
        // string fields only gate queries that never set the field.
        if q.workload.is_none() {
            if q.op != "sum" {
                return Err(format!("unknown op `{}` (the daemon serves `sum`)", q.op));
            }
            if q.dtype != "f32" {
                return Err(format!("unknown dtype `{}` (the daemon serves `f32`)", q.dtype));
            }
        }
        if q.n == 0 || q.n >= (1 << 31) {
            return Err(format!("n={} out of range (want 1..2^31)", q.n));
        }
        let Some(arch) = self.archs.iter().find(|a| a.id == q.arch) else {
            let known: Vec<&str> = self.archs.iter().map(|a| a.id.as_str()).collect();
            return Err(format!("unknown arch `{}` (want one of {})", q.arch, known.join("|")));
        };
        let key = q.workload.unwrap_or_else(WorkloadKey::sum);
        Ok(Valid { q, arch: arch.clone(), key })
    }

    /// Admission gate: a worker slot now, a bounded queue wait for
    /// one, or a typed [`Busy`].
    fn admit(&self, q: &Query) -> Result<(), Busy> {
        let mut gate = relock(self.gate.lock());
        let tenant_load = gate.per_tenant.get(&q.tenant).copied().unwrap_or(0);
        if tenant_load >= self.cfg.tenant_cap {
            return Err(Busy {
                reason: format!(
                    "tenant `{}` at its concurrency cap ({})",
                    q.tenant, self.cfg.tenant_cap
                ),
                active: gate.active,
                queued: gate.queued,
            });
        }
        if gate.active < self.cfg.workers {
            gate.active += 1;
            *gate.per_tenant.entry(q.tenant.clone()).or_insert(0) += 1;
            return Ok(());
        }
        if gate.queued >= self.cfg.max_queue {
            return Err(Busy {
                reason: format!("queue full ({} waiting)", gate.queued),
                active: gate.active,
                queued: gate.queued,
            });
        }
        gate.queued += 1;
        *gate.per_tenant.entry(q.tenant.clone()).or_insert(0) += 1;
        let deadline = Instant::now() + self.cfg.queue_wait;
        loop {
            if gate.active < self.cfg.workers {
                gate.queued -= 1;
                gate.active += 1;
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                gate.queued -= 1;
                if let Some(t) = gate.per_tenant.get_mut(&q.tenant) {
                    *t = t.saturating_sub(1);
                }
                return Err(Busy {
                    reason: format!(
                        "queue wait exceeded {} ms",
                        self.cfg.queue_wait.as_millis()
                    ),
                    active: gate.active,
                    queued: gate.queued,
                });
            }
            let (g, _timed_out) = self
                .gate_cv
                .wait_timeout(gate, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            gate = g;
        }
    }

    /// Release one worker slot (the tenant slot travels with it).
    fn release(&self) {
        let mut gate = relock(self.gate.lock());
        gate.active = gate.active.saturating_sub(1);
        drop(gate);
        self.gate_cv.notify_all();
    }

    fn release_tenant(&self, tenant: &str) {
        let mut gate = relock(self.gate.lock());
        if let Some(t) = gate.per_tenant.get_mut(tenant) {
            *t = t.saturating_sub(1);
        }
    }

    /// Run the actual sweep for a leader that passed admission.
    fn sweep(&self, v: &Valid<'_>, t0: Instant) -> Reply {
        let q = v.q;
        let opts = EvalOptions::with_threads(self.cfg.sweep_threads)
            .with_sweep(SweepMode::Halving)
            .with_interp(ExecMode::Compiled);
        let mut session = Session::new(v.arch.clone()).eval(opts);
        if let Some(dir) = &self.cfg.cache_dir {
            session = session.store(dir).cache_mode(self.cfg.cache_mode);
        }
        let run = session.run(&Workload::new(v.key, q.n));
        self.release_tenant(&q.tenant);
        let report = match run {
            Ok(report) => report,
            Err(e) => {
                relock(self.metrics.lock()).errors += 1;
                return Reply::Error(format!("sweep failed: {e}"));
            }
        };

        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let served = match report.metrics().store.as_ref() {
            Some(s) if s.warm => Served::Warm,
            Some(s) if s.seeded => Served::Seeded,
            _ => Served::Cold,
        };
        let answer = Answer {
            arch: q.arch.clone(),
            n: q.n,
            version: report.winner_id(),
            block_size: report.block_size(),
            coarsen: report.coarsen(),
            time_ns: report.time_ns(),
            served,
            wall_ms,
            workload: Some(v.key).filter(|&k| k != WorkloadKey::sum()).map(|k| k.id()),
        };
        {
            let mut m = relock(self.metrics.lock());
            m.ok += 1;
            m.sweeps += 1;
            match answer.served {
                Served::Cold => m.cold += 1,
                Served::Seeded => m.seeded += 1,
                Served::Warm => m.warm += 1,
                Served::Dedup => {}
            }
            if m.latencies_ms.len() < LATENCY_CAP {
                m.latencies_ms.push(wall_ms);
            }
        }
        relock(self.resilience.lock()).merge(report.metrics().resilience.clone());
        Reply::Ok(answer)
    }

    /// A follower's bookkeeping: stamp its own wall-clock onto the
    /// fanned-out answer and count the dedup.
    fn record_follower(&self, reply: Reply, t0: Instant) -> Reply {
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut m = relock(self.metrics.lock());
        match reply {
            Reply::Ok(mut answer) => {
                answer.served = Served::Dedup;
                answer.wall_ms = wall_ms;
                m.ok += 1;
                m.dedup += 1;
                if m.latencies_ms.len() < LATENCY_CAP {
                    m.latencies_ms.push(wall_ms);
                }
                Reply::Ok(answer)
            }
            Reply::Busy(busy) => {
                m.busy += 1;
                drop(m);
                self.absorb_overload(&busy.reason);
                Reply::Busy(busy)
            }
            Reply::Error(e) => {
                m.errors += 1;
                Reply::Error(e)
            }
        }
    }

    fn record_busy(&self, q: &Query, busy: &Busy) {
        relock(self.metrics.lock()).busy += 1;
        self.absorb_overload(&format!("{} (tenant `{}`, n={})", busy.reason, q.tenant, q.n));
    }

    /// Shed requests reuse the quarantine machinery: one
    /// [`QuarantineReason::Overload`] event per shed.
    fn absorb_overload(&self, reason: &str) {
        relock(self.resilience.lock()).absorb(JobReport {
            candidate: 0,
            version: "admission".to_string(),
            block_size: 0,
            coarsen: 0,
            attempts: 1,
            faults_injected: 0,
            faults_detected: 0,
            measured: false,
            quarantined: Some(QuarantineReason::Overload(reason.to_string())),
        });
    }
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

fn answer_value(a: &Answer) -> Value {
    let mut fields = vec![
        ("arch".to_string(), a.arch.to_value()),
        ("n".to_string(), a.n.to_value()),
    ];
    // Only typed-workload answers carry the field: legacy `sum`
    // responses stay byte-identical to the schema-1 wire format.
    if let Some(w) = &a.workload {
        fields.push(("workload".to_string(), w.to_value()));
    }
    fields.extend(vec![
        ("winner".to_string(), a.version.to_value()),
        ("block".to_string(), u64::from(a.block_size).to_value()),
        ("coarsen".to_string(), u64::from(a.coarsen).to_value()),
        ("time_ns".to_string(), a.time_ns.to_value()),
        ("served".to_string(), a.served.id().to_value()),
        ("wall_ms".to_string(), a.wall_ms.to_value()),
        ("line".to_string(), a.winner_line().to_value()),
    ]);
    Value::Map(fields)
}

fn wrap(tag: &str, value: Value) -> String {
    let root = Value::Map(vec![(tag.to_string(), value)]);
    serde_json::to_string(&root).unwrap_or_else(|e| {
        format!("{{\"error\":{{\"message\":\"serialization failed: {e}\"}}}}")
    })
}

fn reply_json(reply: &Reply) -> String {
    match reply {
        Reply::Ok(a) => wrap("ok", answer_value(a)),
        Reply::Busy(b) => wrap(
            "busy",
            Value::Map(vec![
                ("reason".to_string(), b.reason.to_value()),
                ("active".to_string(), b.active.to_value()),
                ("queued".to_string(), b.queued.to_value()),
            ]),
        ),
        Reply::Error(e) => {
            wrap("error", Value::Map(vec![("message".to_string(), e.to_value())]))
        }
    }
}

fn parse_query(v: &Value) -> Result<Query, String> {
    let arch = v
        .get("arch")
        .and_then(Value::as_str)
        .ok_or("query.arch missing or not a string")?;
    let n = v.get("n").and_then(Value::as_u64).ok_or("query.n missing or not an integer")?;
    let mut q = Query::sweep(arch, n);
    if let Some(op) = v.get("op").and_then(Value::as_str) {
        q.op = op.to_string();
    }
    if let Some(dtype) = v.get("dtype").and_then(Value::as_str) {
        q.dtype = dtype.to_string();
    }
    if let Some(tenant) = v.get("tenant").and_then(Value::as_str) {
        q.tenant = tenant.to_string();
    }
    if let Some(w) = v.get("workload") {
        let s = w.as_str().ok_or("query.workload must be a string workload id")?;
        q.workload = Some(s.parse().map_err(|e| format!("query.workload: {e}"))?);
    }
    Ok(q)
}

/// Handle one request line; the bool is "this was a shutdown request".
fn handle_line(service: &TuneService, line: &str) -> (String, bool) {
    let root = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                wrap(
                    "error",
                    Value::Map(vec![(
                        "message".to_string(),
                        format!("bad request: {e}").to_value(),
                    )]),
                ),
                false,
            )
        }
    };
    if let Some(qv) = root.get("query") {
        let reply = match parse_query(qv) {
            Ok(q) => service.query(&q),
            Err(e) => {
                relock(service.metrics.lock()).errors += 1;
                Reply::Error(e.to_string())
            }
        };
        return (reply_json(&reply), false);
    }
    if root.get("stats").is_some() {
        return (wrap("stats", service.metrics().to_value()), false);
    }
    if root.get("shutdown").is_some() {
        return (wrap("bye", Value::Map(Vec::new())), true);
    }
    (
        wrap(
            "error",
            Value::Map(vec![(
                "message".to_string(),
                "unknown request (want query|stats|shutdown)".to_value(),
            )]),
        ),
        false,
    )
}

/// Poll interval of the nonblocking accept loop; also bounds how long
/// a quiescent connection thread goes between shutdown-flag checks.
const POLL: Duration = Duration::from_millis(2);

/// The unix-socket front-end around a [`TuneService`].
pub struct Server {
    service: Arc<TuneService>,
    listener: UnixListener,
    socket: PathBuf,
}

impl Server {
    /// Bind `cfg.socket` and build the service for `archs`.
    ///
    /// A leftover socket file from a dead daemon is detected (nothing
    /// accepts on it) and replaced; a *live* daemon on the same path
    /// is an [`std::io::ErrorKind::AddrInUse`] error.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind(cfg: ServeConfig, archs: Vec<ArchConfig>) -> std::io::Result<Server> {
        let socket = cfg.socket.clone();
        if socket.exists() {
            if UnixStream::connect(&socket).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("{} already has a live server", socket.display()),
                ));
            }
            std::fs::remove_file(&socket)?;
        }
        let listener = UnixListener::bind(&socket)?;
        listener.set_nonblocking(true)?;
        Ok(Server { service: Arc::new(TuneService::new(cfg, archs)), listener, socket })
    }

    /// The shared service (for in-process metrics checks).
    pub fn service(&self) -> Arc<TuneService> {
        Arc::clone(&self.service)
    }

    /// Serve until `shutdown` goes true (e.g. from a signal handler —
    /// see [`install_signal_handlers`]) or a client sends a
    /// `shutdown` request. Joins every connection, removes the socket
    /// file, and returns the final metrics snapshot.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures (per-connection I/O errors
    /// only close that connection).
    pub fn run(self, shutdown: &AtomicBool) -> std::io::Result<ServeMetrics> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !shutdown.load(Ordering::SeqCst) && !stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let service = Arc::clone(&self.service);
                    let stop = Arc::clone(&stop);
                    conns.push(std::thread::spawn(move || {
                        let _ = serve_connection(&service, stream, &stop);
                    }));
                    // Opportunistically reap finished connections so a
                    // long-lived daemon does not accumulate handles.
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let _ = std::fs::remove_file(&self.socket);
                    return Err(e);
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        for h in conns {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.socket);
        Ok(self.service.metrics())
    }
}

/// Serve one connection: read newline-delimited requests, write one
/// response line each. Returns when the peer closes, an I/O error
/// occurs, shutdown is requested, or `stop` goes true while idle.
fn serve_connection(
    service: &TuneService,
    mut stream: UnixStream,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut pending = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let read = match stream.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(k) => k,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        pending.extend_from_slice(&buf[..read]);
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]).into_owned();
            if line.trim().is_empty() {
                continue;
            }
            let (response, is_shutdown) = handle_line(service, line.trim());
            stream.write_all(response.as_bytes())?;
            stream.write_all(b"\n")?;
            if is_shutdown {
                stop.store(true, Ordering::SeqCst);
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that flip the returned flag, so
/// [`Server::run`] drains connections and removes its socket on a
/// plain `kill` instead of dying mid-write. Uses the C `signal(2)`
/// entry point std already links — async-signal-safe because the
/// handler only stores an atomic.
pub fn install_signal_handlers() -> &'static AtomicBool {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    &SIGNALLED
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A typed answer as read back over the wire.
#[derive(Debug, Clone)]
pub struct WireAnswer {
    /// Winning code version (display string).
    pub winner: String,
    /// Winning block size.
    pub block: u32,
    /// Winning coarsening factor.
    pub coarsen: u32,
    /// The winner's modelled time (ns).
    pub time_ns: f64,
    /// How the daemon served it (`cold`/`seeded`/`warm`/`dedup`).
    pub served: String,
    /// Wall-clock the daemon reported for the request (ms).
    pub wall_ms: f64,
    /// The preformatted `winner=… block=… coarsen=… time_ns=…` line
    /// for byte-identity checks.
    pub line: String,
    /// Typed workload id echoed by the daemon (absent on the legacy
    /// `sum` path).
    pub workload: Option<String>,
}

/// A parsed wire response.
#[derive(Debug, Clone)]
pub enum WireReply {
    /// Answered.
    Ok(WireAnswer),
    /// Shed: the typed busy reason.
    Busy(String),
    /// Daemon-side error message.
    Error(String),
}

/// Blocking line-protocol client for a [`Server`] socket.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connect to the daemon at `socket`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    fn roundtrip(&mut self, request: &str) -> std::io::Result<Value> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(line.trim()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response `{}`: {e}", line.trim()),
            )
        })
    }

    /// Ask for the best variant for `query`.
    ///
    /// # Errors
    ///
    /// Propagates socket I/O failures and malformed responses;
    /// daemon-side rejections come back as [`WireReply::Busy`] /
    /// [`WireReply::Error`], not `Err`.
    pub fn query(&mut self, query: &Query) -> std::io::Result<WireReply> {
        let mut fields = vec![
            ("arch".to_string(), query.arch.to_value()),
            ("op".to_string(), query.op.to_value()),
            ("dtype".to_string(), query.dtype.to_value()),
            ("n".to_string(), query.n.to_value()),
            ("tenant".to_string(), query.tenant.to_value()),
        ];
        if let Some(w) = &query.workload {
            fields.push(("workload".to_string(), w.id().to_value()));
        }
        let req = wrap("query", Value::Map(fields));
        let v = self.roundtrip(&req)?;
        if let Some(ok) = v.get("ok") {
            let field_u32 = |k: &str| {
                ok.get(k).and_then(Value::as_u64).and_then(|u| u32::try_from(u).ok())
            };
            let (Some(winner), Some(block), Some(coarsen), Some(time_ns), Some(served), Some(line)) = (
                ok.get("winner").and_then(Value::as_str),
                field_u32("block"),
                field_u32("coarsen"),
                ok.get("time_ns").and_then(Value::as_f64),
                ok.get("served").and_then(Value::as_str),
                ok.get("line").and_then(Value::as_str),
            ) else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "ok response missing fields",
                ));
            };
            return Ok(WireReply::Ok(WireAnswer {
                winner: winner.to_string(),
                block,
                coarsen,
                time_ns,
                served: served.to_string(),
                wall_ms: ok.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
                line: line.to_string(),
                workload: ok
                    .get("workload")
                    .and_then(Value::as_str)
                    .map(str::to_string),
            }));
        }
        if let Some(busy) = v.get("busy") {
            let reason =
                busy.get("reason").and_then(Value::as_str).unwrap_or("busy").to_string();
            return Ok(WireReply::Busy(reason));
        }
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap_or("malformed response")
            .to_string();
        Ok(WireReply::Error(msg))
    }

    /// Fetch the daemon's metrics snapshot (the `stats` payload).
    ///
    /// # Errors
    ///
    /// Propagates socket I/O failures and malformed responses.
    pub fn stats(&mut self) -> std::io::Result<Value> {
        let v = self.roundtrip("{\"stats\":true}")?;
        v.get("stats").cloned().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no stats in response")
        })
    }

    /// Ask the daemon to shut down cleanly.
    ///
    /// # Errors
    ///
    /// Propagates socket I/O failures.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        let v = self.roundtrip("{\"shutdown\":true}")?;
        if v.get("bye").is_some() {
            Ok(())
        } else {
            Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "no bye in response"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(workers: usize, queue_wait_ms: u64) -> TuneService {
        let cfg = ServeConfig {
            workers,
            max_queue: 4,
            tenant_cap: 8,
            queue_wait: Duration::from_millis(queue_wait_ms),
            ..ServeConfig::default()
        };
        TuneService::new(cfg, ArchConfig::paper_archs())
    }

    #[test]
    fn validates_shape_fields() {
        let s = service(1, 0);
        for (q, needle) in [
            (Query::sweep("volta", 1024), "unknown arch"),
            (Query { op: "max".into(), ..Query::sweep("maxwell", 1024) }, "unknown op"),
            (Query { dtype: "f64".into(), ..Query::sweep("maxwell", 1024) }, "unknown dtype"),
            (Query::sweep("maxwell", 0), "out of range"),
        ] {
            match s.query(&q) {
                Reply::Error(e) => assert!(e.contains(needle), "{e}"),
                other => panic!("expected error for {q:?}, got {other:?}"),
            }
        }
        assert_eq!(s.metrics().errors, 4);
    }

    #[test]
    fn percentiles_of_empty_and_singleton() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
    }

    #[test]
    fn answers_match_a_direct_session_bitwise() {
        let s = service(2, 0);
        let reply = s.query(&Query::sweep("maxwell", 16_384));
        let Reply::Ok(answer) = reply else { panic!("expected ok, got {reply:?}") };
        assert_eq!(answer.served, Served::Cold);
        let direct = Session::new(ArchConfig::maxwell_gtx980())
            .eval(
                EvalOptions::with_threads(1)
                    .with_sweep(SweepMode::Halving)
                    .with_interp(ExecMode::Compiled),
            )
            .select_best(16_384)
            .unwrap();
        assert_eq!(answer.version, direct.row.version.to_string());
        assert_eq!(answer.block_size, direct.row.block_size);
        assert_eq!(answer.coarsen, direct.row.coarsen);
        assert_eq!(answer.time_ns.to_bits(), direct.row.time_ns.to_bits());
        assert_eq!(
            answer.winner_line(),
            format!(
                "winner={} block={} coarsen={} time_ns={}",
                direct.row.version, direct.row.block_size, direct.row.coarsen, direct.row.time_ns
            )
        );
    }

    #[test]
    fn workload_answers_match_a_direct_session_bitwise() {
        let s = service(2, 0);
        let q = Query::sweep("maxwell", 16_384).with_workload(WorkloadKey::argmax());
        let reply = s.query(&q);
        let Reply::Ok(answer) = reply else { panic!("expected ok, got {reply:?}") };
        assert_eq!(answer.workload.as_deref(), Some("argmax-f32"));
        let direct = Session::new(ArchConfig::maxwell_gtx980())
            .eval(
                EvalOptions::with_threads(1)
                    .with_sweep(SweepMode::Halving)
                    .with_interp(ExecMode::Compiled),
            )
            .run(&Workload::argmax(16_384))
            .unwrap();
        let direct = direct.as_workload().unwrap();
        assert_eq!(answer.version, direct.row.variant);
        assert_eq!(answer.block_size, direct.row.block_size);
        assert_eq!(answer.coarsen, direct.row.coarsen);
        assert_eq!(answer.time_ns.to_bits(), direct.row.time_ns.to_bits());
        assert_eq!(answer.winner_line(), direct.winner_line());
    }

    #[test]
    fn explicit_sum_workload_answers_like_a_bare_query() {
        let s = service(2, 0);
        let legacy = s.query(&Query::sweep("kepler", 8_192));
        let typed = s.query(&Query::sweep("kepler", 8_192).with_workload(WorkloadKey::sum()));
        let (Reply::Ok(a), Reply::Ok(b)) = (legacy, typed) else { panic!("expected ok") };
        assert_eq!(a.version, b.version);
        assert_eq!(a.block_size, b.block_size);
        assert_eq!(a.time_ns.to_bits(), b.time_ns.to_bits());
        // The explicit sum-f32 answer also omits the wire field.
        assert_eq!(b.workload, None);
    }

    #[test]
    fn wire_parses_and_rejects_workload_spellings() {
        let s = service(1, 0);
        let (resp, _) = handle_line(
            &s,
            "{\"query\":{\"arch\":\"maxwell\",\"n\":4096,\"workload\":\"hist8-f32\"}}",
        );
        assert!(resp.contains("\"workload\":\"hist8-f32\""), "{resp}");
        assert!(resp.contains("\"winner\":"), "{resp}");
        let (resp, _) = handle_line(
            &s,
            "{\"query\":{\"arch\":\"maxwell\",\"n\":4096,\"workload\":\"argbest\"}}",
        );
        assert!(resp.contains("query.workload"), "{resp}");
        assert!(resp.contains("argbest"), "{resp}");
    }

    #[test]
    fn protocol_round_trips_stats_and_rejects_garbage() {
        let s = service(1, 0);
        let (resp, stop) = handle_line(&s, "{\"stats\":true}");
        assert!(!stop);
        let v = serde_json::from_str(&resp).unwrap();
        assert!(v.get("stats").is_some());
        let (resp, stop) = handle_line(&s, "not json");
        assert!(!stop);
        assert!(resp.contains("bad request"));
        let (resp, stop) = handle_line(&s, "{\"frobnicate\":1}");
        assert!(!stop);
        assert!(resp.contains("unknown request"));
        let (resp, stop) = handle_line(&s, "{\"shutdown\":true}");
        assert!(stop);
        assert!(resp.contains("bye"));
    }
}
