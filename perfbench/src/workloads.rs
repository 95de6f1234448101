//! The four workloads as pass runners. A pass replays one generated
//! query list against the program and checks every answer.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Barrier;
use std::time::Instant;

use tangram::evaluate::SweepMode;
use tangram::gpu_sim::{ArchConfig, ExecMode, SimError};
use tangram::{
    CacheMode, Client, EvalOptions, Query, Reply, ResilienceOptions, RunReport, ServeConfig,
    ServeMetrics, Server, Session, TuneService, WireReply, Workload,
};

use crate::check::{golden_tails, Oracle};
use crate::gen::{self, Hook, ServeStep, SweepPlan, SweepQuery, ARCHS};
use crate::trace::Recorder;

/// Fault seed and rate of the fault-campaign sweeps: fixed, so the
/// campaign injects the same faults on every run.
pub const FAULT_SEED: u64 = 7;
/// Injected faults per million instructions.
pub const FAULT_RATE_PPM: u32 = 400;

/// One checked answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Wall time of the call, in milliseconds.
    pub ms: f64,
    /// Served class (daemon answers) or the sweep hook.
    pub class: String,
    /// Whether every check passed.
    pub ok: bool,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall time of the whole pass, in seconds.
    pub wall_s: f64,
    /// Every answer, in completion order.
    pub answers: Vec<Answer>,
    /// `label winner-line` per answer, in a canonical order.
    pub lines: Vec<String>,
    /// Human-readable failure descriptions.
    pub failures: Vec<String>,
}

impl PassOut {
    /// Answers per class.
    pub fn classes(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for a in &self.answers {
            *out.entry(a.class.clone()).or_insert(0) += 1;
        }
        out
    }
}

/// A workload the runner can drive pass by pass.
pub trait Bench {
    /// Run pass `index`; with a recorder, wrap each call in a root
    /// span whose request id is `request_base` plus the query's index.
    fn pass(&mut self, index: usize, rec: Option<&mut Recorder>, request_base: u64) -> PassOut;

    /// Compute the reference answers the checks compare against, and
    /// check the answers that were waiting for them. Returns the
    /// failures among those.
    fn references(&mut self) -> Vec<String>;

    /// Downcast for the traced replay of sweep workloads.
    fn as_sweeps(&self) -> Option<&SweepBench> {
        None
    }

    /// Downcast for the traced replay of the daemon workload.
    fn as_serve(&self) -> Option<&ServeBench> {
        None
    }
}

/// The engine options every sweep runs with: one thread, halving,
/// compiled tier (the `sweep` bin's defaults at `--threads 1`).
pub fn eval_options() -> EvalOptions {
    EvalOptions::with_threads(1)
        .with_sweep(SweepMode::Halving)
        .with_interp(ExecMode::Compiled)
}

/// The architecture at `ARCHS[index]`.
pub fn arch(index: usize) -> ArchConfig {
    let id = ARCHS[index];
    ArchConfig::paper_archs()
        .into_iter()
        .find(|a| a.id == id)
        .expect("paper arch")
}

/// The storeless session a sweep query runs on.
pub fn session_for(q: &SweepQuery) -> Session {
    let s = Session::new(arch(q.arch)).eval(eval_options());
    match q.hook {
        Hook::Plain => s,
        Hook::Sanitize => s.sanitized(true),
        Hook::Profile => s.profiled(true),
        Hook::Fault => s.resilience(ResilienceOptions::campaign(FAULT_SEED, FAULT_RATE_PPM)),
    }
}

/// `winner=… block=… coarsen=… time_ns=…`, exactly as the `sweep` bin
/// and the daemon render it.
pub fn winner_tail(r: &RunReport) -> String {
    format!(
        "winner={} block={} coarsen={} time_ns={}",
        r.winner_id(),
        r.block_size(),
        r.coarsen(),
        r.time_ns()
    )
}

fn plain_label(arch: usize, key: &tangram::WorkloadKey, n: u64) -> String {
    format!("{}/{}@{}", ARCHS[arch], key.id(), n)
}

/// Storeless sweep workloads (`sweep-sampled`, `sweep-exact`,
/// `sweep-checked`).
pub struct SweepBench {
    /// The generated pass cycle.
    pub plan: SweepPlan,
    golden: HashMap<String, String>,
    oracle: Oracle,
    /// Plain-sweep winner lines for the hooked queries' shapes.
    refs: Option<HashMap<String, String>>,
    /// First winner line seen per query label (cross-pass identity).
    winners: HashMap<String, String>,
    /// Hooked answers awaiting their plain reference: (label, line).
    pending: Vec<(String, String)>,
}

impl SweepBench {
    /// A runner for `plan`.
    pub fn new(plan: SweepPlan) -> Self {
        SweepBench {
            plan,
            golden: golden_tails(),
            oracle: Oracle::default(),
            refs: None,
            winners: HashMap::new(),
            pending: Vec::new(),
        }
    }

    fn check(
        &mut self,
        q: &SweepQuery,
        run: &Result<RunReport, SimError>,
    ) -> (String, Vec<String>) {
        let label = q.label();
        let rep = match run {
            Ok(rep) => rep,
            Err(e) => return (String::new(), vec![format!("{label}: sweep failed: {e}")]),
        };
        let line = winner_tail(rep);
        let mut bad = Vec::new();
        let first = self
            .winners
            .entry(label.clone())
            .or_insert_with(|| line.clone());
        if *first != line {
            bad.push(format!(
                "{label}: winner changed across passes: `{first}` then `{line}`"
            ));
        }
        let plain = plain_label(q.arch, &q.key, q.n);
        if q.hook == Hook::Plain {
            if let Some(want) = self.golden.get(&plain) {
                if *want != line {
                    bad.push(format!(
                        "{label}: golden mismatch: want `{want}`, got `{line}`"
                    ));
                }
            }
        } else {
            match &self.refs {
                Some(refs) if refs.get(&plain) != Some(&line) => bad.push(format!(
                    "{label}: differs from the plain sweep: `{line}` vs `{}`",
                    refs.get(&plain).map_or("?", String::as_str)
                )),
                Some(_) => {}
                None => self.pending.push((plain, line.clone())),
            }
        }
        let (sanitize, resilience, profile) = match rep {
            RunReport::Workload(w) => {
                if !self.oracle.matches(w) {
                    bad.push(format!(
                        "{label}: value {} differs from cpu-ref at n={}",
                        w.value.summary(),
                        w.oracle_n
                    ));
                }
                (w.metrics.sanitize, None, None)
            }
            RunReport::Reduce(r) => (
                r.metrics.sanitize,
                Some(&r.resilience),
                Some(r.metrics.winner_profile.is_some()),
            ),
        };
        match q.hook {
            Hook::Sanitize if sanitize.is_none_or(|s| s.findings > 0) => {
                bad.push(format!(
                    "{label}: sanitizer screen missing or found hazards"
                ));
            }
            Hook::Fault if resilience.is_none_or(|r| r.silent > 0 || r.faults_injected == 0) => {
                bad.push(format!(
                    "{label}: fault campaign injected nothing or let a fault through"
                ));
            }
            Hook::Profile if profile != Some(true) => {
                bad.push(format!("{label}: profiled sweep carries no winner profile"));
            }
            _ => {}
        }
        (line, bad)
    }
}

impl Bench for SweepBench {
    fn pass(&mut self, index: usize, mut rec: Option<&mut Recorder>, request_base: u64) -> PassOut {
        let queries = self.plan.cycle[index % self.plan.cycle.len()].clone();
        let mut out = PassOut::default();
        let t_pass = Instant::now();
        for (j, q) in queries.iter().enumerate() {
            let session = session_for(q);
            let workload = Workload::new(q.key, q.n);
            let span = rec
                .as_deref_mut()
                .map(|r| r.enter("api.session_run", request_base + j as u64));
            let t0 = Instant::now();
            let run = session.run(&workload);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                r.exit(id);
            }
            let (line, bad) = self.check(q, &run);
            out.answers.push(Answer {
                ms,
                class: q.hook.id().to_string(),
                ok: bad.is_empty(),
            });
            out.lines.push(format!("{} {line}", q.label()));
            out.failures.extend(bad);
        }
        out.wall_s = t_pass.elapsed().as_secs_f64();
        out
    }

    fn references(&mut self) -> Vec<String> {
        let mut shapes: Vec<SweepQuery> = Vec::new();
        let mut seen = HashSet::new();
        for q in self
            .plan
            .cycle
            .iter()
            .flatten()
            .filter(|q| q.hook != Hook::Plain)
        {
            if seen.insert(plain_label(q.arch, &q.key, q.n)) {
                shapes.push(SweepQuery {
                    hook: Hook::Plain,
                    ..*q
                });
            }
        }
        let mut refs = HashMap::new();
        let mut bad = Vec::new();
        for q in shapes {
            match session_for(&q).run(&Workload::new(q.key, q.n)) {
                Ok(rep) => {
                    refs.insert(q.label(), winner_tail(&rep));
                }
                Err(e) => bad.push(format!("{}: reference sweep failed: {e}", q.label())),
            }
        }
        for (plain, line) in std::mem::take(&mut self.pending) {
            if refs.get(&plain) != Some(&line) {
                bad.push(format!(
                    "{plain}: hooked sweep `{line}` differs from the plain sweep"
                ));
            }
        }
        self.refs = Some(refs);
        bad
    }

    fn as_sweeps(&self) -> Option<&SweepBench> {
        Some(self)
    }
}

/// The daemon workload (`serve-mixed`): two closed-loop clients over
/// the unix socket against an in-process [`Server`], each pass on a
/// fresh server and a fresh store directory.
pub struct ServeBench {
    /// Both clients' step lists.
    pub steps: [Vec<ServeStep>; 2],
    root: PathBuf,
    /// Storeless `Session::run` winner lines per distinct step.
    refs: Option<HashMap<String, String>>,
    pending: Vec<(String, String)>,
    /// Served-class counts of the first pass.
    pub first_classes: Option<BTreeMap<String, usize>>,
    passes: usize,
}

/// How a client step reached the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `Client::query` over the unix socket.
    Wire,
    /// `TuneService::query` in process.
    InProcess,
}

/// One timed step of a client thread.
#[derive(Debug, Clone)]
pub struct StepTiming {
    /// Client index.
    pub client: usize,
    /// Step index within the client's list.
    pub step: usize,
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
    /// `Ok((winner line, served class))` or an error description.
    pub reply: Result<(String, String), String>,
}

impl ServeBench {
    /// A runner for `steps`, keeping its sockets and stores under
    /// `root` (inside the checkout).
    pub fn new(steps: [Vec<ServeStep>; 2], root: PathBuf) -> Self {
        ServeBench {
            steps,
            root,
            refs: None,
            pending: Vec::new(),
            first_classes: None,
            passes: 0,
        }
    }

    fn query(step: &ServeStep, client: usize) -> Query {
        Query::sweep(ARCHS[step.arch], step.n)
            .with_workload(step.key)
            .tenant(&format!("client{client}"))
    }

    fn config(dir: &Path) -> ServeConfig {
        ServeConfig {
            socket: dir.join("d.sock"),
            workers: 2,
            sweep_threads: 1,
            cache_dir: Some(dir.join("store")),
            cache_mode: CacheMode::ReadWrite,
            ..ServeConfig::default()
        }
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.passes += 1;
        let dir = self
            .root
            .join(format!("p{}-{}", std::process::id(), self.passes));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the pass directory inside the checkout");
        dir
    }

    /// Drive both clients' step lists through `route` on a fresh
    /// server (or service) and store. Returns every step's timing, the
    /// pass wall time and the service's own counters.
    pub fn drive(&mut self, route: Route) -> (Vec<StepTiming>, f64, ServeMetrics) {
        let dir = self.fresh_dir();
        let cfg = Self::config(&dir);
        let socket = cfg.socket.clone();
        let barrier = Barrier::new(2);
        let steps = &self.steps;
        let t_pass = Instant::now();
        let timings = match route {
            Route::Wire => {
                let server = Server::bind(cfg, ArchConfig::paper_archs())
                    .expect("bind the daemon socket inside the checkout");
                let service = server.service();
                let shutdown = AtomicBool::new(false);
                let all = std::thread::scope(|s| {
                    let daemon = s.spawn(|| server.run(&shutdown));
                    let clients: Vec<_> = (0..2)
                        .map(|c| {
                            let (barrier, socket) = (&barrier, &socket);
                            s.spawn(move || {
                                let mut client =
                                    Client::connect(socket).map_err(|e| format!("connect: {e}"));
                                run_client(c, &steps[c], barrier, |q| {
                                    let client = client.as_mut().map_err(|e| e.clone())?;
                                    match client.query(q) {
                                        Ok(WireReply::Ok(a)) => Ok((a.line, a.served)),
                                        Ok(WireReply::Busy(b)) => Err(format!("busy: {b}")),
                                        Ok(WireReply::Error(e)) => Err(format!("error: {e}")),
                                        Err(e) => Err(format!("wire: {e}")),
                                    }
                                })
                            })
                        })
                        .collect();
                    let mut all = Vec::new();
                    for h in clients {
                        all.extend(h.join().expect("client thread panicked"));
                    }
                    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
                    daemon
                        .join()
                        .expect("daemon thread panicked")
                        .expect("daemon accept loop failed");
                    all
                });
                (all, service.metrics())
            }
            Route::InProcess => {
                let service = TuneService::new(cfg, ArchConfig::paper_archs());
                let all = std::thread::scope(|s| {
                    let clients: Vec<_> = (0..2)
                        .map(|c| {
                            let (barrier, service) = (&barrier, &service);
                            s.spawn(move || {
                                run_client(c, &steps[c], barrier, |q| match service.query(q) {
                                    Reply::Ok(a) => {
                                        Ok((a.winner_line(), a.served.id().to_string()))
                                    }
                                    Reply::Busy(b) => Err(format!("busy: {}", b.reason)),
                                    Reply::Error(e) => Err(format!("error: {e}")),
                                })
                            })
                        })
                        .collect();
                    clients
                        .into_iter()
                        .flat_map(|h| h.join().expect("client thread panicked"))
                        .collect()
                });
                (all, service.metrics())
            }
        };
        let wall = t_pass.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        (timings.0, wall, timings.1)
    }

    /// Check timed steps against the references and the first pass's
    /// class counts.
    fn judge(&mut self, timings: &[StepTiming], wall_s: f64) -> PassOut {
        let mut out = PassOut {
            wall_s,
            ..PassOut::default()
        };
        let mut lines = Vec::new();
        for t in timings {
            let step = &self.steps[t.client][t.step];
            let label = step.label();
            let ms = t.end.duration_since(t.start).as_secs_f64() * 1e3;
            let (class, ok) = match &t.reply {
                Ok((line, served)) => {
                    lines.push((t.client, t.step, format!("{label} {line}")));
                    let ok = match &self.refs {
                        Some(refs) => refs.get(&label) == Some(line),
                        None => {
                            self.pending.push((label.clone(), line.clone()));
                            true
                        }
                    };
                    if !ok {
                        out.failures.push(format!(
                            "{label}: daemon answered `{line}`, batch says `{}`",
                            self.refs
                                .as_ref()
                                .and_then(|r| r.get(&label))
                                .map_or("?", String::as_str)
                        ));
                    }
                    (served.clone(), ok)
                }
                Err(e) => {
                    out.failures.push(format!("{label}: {e}"));
                    ("failed".to_string(), false)
                }
            };
            out.answers.push(Answer { ms, class, ok });
        }
        lines.sort();
        out.lines = lines.into_iter().map(|(_, _, l)| l).collect();
        let classes = out.classes();
        match &self.first_classes {
            None => self.first_classes = Some(classes),
            Some(first) if *first != classes => out.failures.push(format!(
                "served-class counts changed across passes: {first:?} then {classes:?}"
            )),
            Some(_) => {}
        }
        out
    }
}

/// One closed-loop client: send each step after the previous reply;
/// paired steps first meet the other client at the barrier.
fn run_client(
    client: usize,
    steps: &[ServeStep],
    barrier: &Barrier,
    mut send: impl FnMut(&Query) -> Result<(String, String), String>,
) -> Vec<StepTiming> {
    steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            if step.paired {
                barrier.wait();
            }
            let q = ServeBench::query(step, client);
            let start = Instant::now();
            let reply = send(&q);
            StepTiming {
                client,
                step: i,
                start,
                end: Instant::now(),
                reply,
            }
        })
        .collect()
}

impl Bench for ServeBench {
    fn pass(&mut self, _index: usize, rec: Option<&mut Recorder>, request_base: u64) -> PassOut {
        let (timings, wall, _) = self.drive(Route::Wire);
        if let Some(r) = rec {
            for t in &timings {
                r.record(
                    "serve.client_query",
                    t.start,
                    t.end,
                    None,
                    request_id(request_base, t),
                );
            }
        }
        self.judge(&timings, wall)
    }

    fn references(&mut self) -> Vec<String> {
        let mut refs = HashMap::new();
        let mut bad = Vec::new();
        for step in self.steps.iter().flatten() {
            let label = step.label();
            if refs.contains_key(&label) {
                continue;
            }
            let q = SweepQuery {
                arch: step.arch,
                key: step.key,
                n: step.n,
                hook: Hook::Plain,
            };
            match session_for(&q).run(&Workload::new(q.key, q.n)) {
                Ok(rep) => {
                    refs.insert(label, winner_tail(&rep));
                }
                Err(e) => bad.push(format!("{label}: reference sweep failed: {e}")),
            }
        }
        for (label, line) in std::mem::take(&mut self.pending) {
            if refs.get(&label) != Some(&line) {
                bad.push(format!("{label}: daemon answered `{line}`, batch differs"));
            }
        }
        self.refs = Some(refs);
        bad
    }

    fn as_serve(&self) -> Option<&ServeBench> {
        Some(self)
    }
}

/// Request id of a client step: unique per (pass, client, step).
pub fn request_id(base: u64, t: &StepTiming) -> u64 {
    base + (t.client as u64) * 10_000 + t.step as u64
}

/// The runner for workload `name` at `seed`, or `None` for an
/// unknown name.
pub fn bench_for(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Bench>> {
    Some(match name {
        "sweep-sampled" => Box::new(SweepBench::new(gen::sweep_sampled(seed))),
        "sweep-exact" => Box::new(SweepBench::new(gen::sweep_exact(seed))),
        "sweep-checked" => Box::new(SweepBench::new(gen::sweep_checked(seed))),
        "serve-mixed" => Box::new(ServeBench::new(
            gen::serve_mixed(seed),
            scratch.to_path_buf(),
        )),
        _ => return None,
    })
}

/// Every workload name, in documentation order.
pub const WORKLOADS: [&str; 4] = [
    "sweep-sampled",
    "sweep-exact",
    "sweep-checked",
    "serve-mixed",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clients meeting at the barrier with the same fresh query
    /// produce exactly one sweep: a cold leader and a dedup follower,
    /// both over the socket and in process.
    #[test]
    fn barrier_forces_a_dedup_pair() {
        for (i, route) in [Route::InProcess, Route::Wire].into_iter().enumerate() {
            let root =
                std::env::temp_dir().join(format!("perfbench-dedup-{}-{i}", std::process::id()));
            let step = ServeStep {
                arch: 2,
                key: "argmax".parse().unwrap(),
                n: 1 << 20,
                paired: true,
            };
            let mut bench = ServeBench::new([vec![step.clone()], vec![step]], root.clone());
            let (timings, _, metrics) = bench.drive(route);
            let mut classes: Vec<String> = timings
                .iter()
                .map(|t| t.reply.clone().expect("answered").1)
                .collect();
            classes.sort();
            assert_eq!(classes, ["cold", "dedup"], "{route:?}");
            assert_eq!((metrics.sweeps, metrics.dedup), (1, 1), "{route:?}");
            let lines: HashSet<String> =
                timings.iter().map(|t| t.reply.clone().unwrap().0).collect();
            assert_eq!(lines.len(), 1, "the follower gets the leader's answer");
            let _ = std::fs::remove_dir_all(root);
        }
    }

    #[test]
    fn winner_tail_matches_the_golden_format() {
        let q = SweepQuery {
            arch: 1,
            key: "sum".parse().unwrap(),
            n: 16384,
            hook: Hook::Plain,
        };
        let rep = session_for(&q).run(&Workload::new(q.key, q.n)).unwrap();
        assert_eq!(
            winner_tail(&rep),
            golden_tails()["maxwell/sum-f32@16384"],
            "the tail renders exactly like the sweep bin's"
        );
    }
}
