//! The user-facing workload API.
//!
//! [`Session::run`] is the one tuning entry point: it takes a
//! [`Workload`] (any of the ten keys — plain reductions,
//! argmin/argmax, histograms, scans, segmented sums) and returns the
//! swept winner. Every key goes through the same engine: tuning-store
//! lookup, nearest-bucket seeding, the sanitizer screen, the
//! exhaustive / halving / resilient evaluation, oracle confirmation,
//! and write-back. What differs per kind is the candidate
//! candidate menu the engine sweeps (`crate::menu`). [`Reducer`] is what a
//! library client would use: it owns an architecture, tunes each
//! workload and array-size bucket once through [`Session::run`] (the
//! paper's per-size winners, §IV-C), and runs caller data exactly.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

use gpu_sim::exec::BlockSelection;
use gpu_sim::profile::{LaunchProfile, Trace};
use gpu_sim::{ArchConfig, Device, RaceReport, SimError};
use tangram_codegen::{CodegenError, Tuning};
use tangram_passes::workload::{WorkloadKey, WorkloadKind};

use crate::evaluate::{
    evaluate, first_fastest, ContextPool, EvalOptions, Fidelity, RungStats, SeedHint, SweepMode,
};
use crate::menu::{Kernel, Menu};
use crate::metrics::{SanitizeSummary, StoreSummary, SweepMetrics, WinnerRow};
use crate::resilience::{
    evaluate_resilient, JobReport, QuarantineReason, ResilienceOptions, ResilienceReport,
};
use crate::runner::upload;
use crate::select::{fig6_label_of, SelectionRow};
use crate::store::{CacheMode, Lookup, StoreKey, StoreRecord, TuningStore};
use crate::tuner::{TunedVersion, BLOCK_SIZES};
use crate::workload::{
    expected_value, Workload, WorkloadReport, WorkloadRow, WorkloadValue,
};

/// Errors surfaced by the high-level API.
#[derive(Debug)]
pub enum TangramError {
    /// Simulator-level failure.
    Sim(SimError),
    /// Code-generation failure.
    Codegen(CodegenError),
    /// Input too large for the 32-bit size convention of the kernels.
    TooLarge(u64),
}

impl fmt::Display for TangramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TangramError::Sim(e) => write!(f, "simulator error: {e}"),
            TangramError::Codegen(e) => write!(f, "codegen error: {e}"),
            TangramError::TooLarge(n) => write!(f, "input of {n} elements exceeds 2^31"),
        }
    }
}

impl std::error::Error for TangramError {}

impl From<SimError> for TangramError {
    fn from(e: SimError) -> Self {
        TangramError::Sim(e)
    }
}

impl From<CodegenError> for TangramError {
    fn from(e: CodegenError) -> Self {
        TangramError::Codegen(e)
    }
}

/// Result of running one workload over caller data: the computed
/// [`WorkloadValue`] plus what code ran.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload that was computed.
    pub workload: WorkloadKey,
    /// The computed value (scalar, packed arg-pair, or bins).
    pub value: WorkloadValue,
    /// Display id of the code that ran: a `CodeVersion` string for
    /// reductions, a [`WlVariant::id`](crate::WlVariant::id) for the other workloads.
    pub version: String,
    /// Tuned block size.
    pub block_size: u32,
    /// Tuned coarsening factor.
    pub coarsen: u32,
    /// Modelled execution time (ns) of this run.
    pub time_ns: f64,
}

/// A performance-portable workload runner for one GPU architecture.
///
/// # Examples
///
/// ```
/// use gpu_sim::ArchConfig;
/// use tangram::workload::WorkloadKey;
/// use tangram::Reducer;
///
/// # fn main() -> Result<(), tangram::TangramError> {
/// let mut reducer = Reducer::new(ArchConfig::maxwell_gtx980());
/// let data: Vec<f32> = (1..=1000).map(|i| i as f32).collect();
/// let result = reducer.run(WorkloadKey::sum(), &data)?;
/// assert_eq!(result.value, tangram::workload::WorkloadValue::Scalar(500_500.0));
/// let top = reducer.run(WorkloadKey::argmax(), &data)?;
/// assert_eq!(top.value.arg_index(), Some(999));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reducer {
    arch: ArchConfig,
    /// The tuned winner `(candidate, tuning)` per swept key and size
    /// bucket.
    cache: HashMap<(WorkloadKey, u32), (usize, Tuning)>,
}

impl Reducer {
    /// Create a reducer targeting `arch`.
    pub fn new(arch: ArchConfig) -> Self {
        Reducer { arch, cache: HashMap::new() }
    }

    /// The target architecture.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Size bucket used for the selection cache (winners change with
    /// order of magnitude, not per element).
    fn bucket(n: u64) -> u32 {
        64 - n.max(1).leading_zeros()
    }

    /// Run any workload over `data`: plain reductions, argmin/argmax
    /// (the winning index is [`WorkloadValue::arg_index`]),
    /// histograms, scans, and segmented sums. The winner is tuned
    /// once per workload and size bucket through [`Session::run`].
    /// Every reduce operator shares the `sum-f32` sweep (its menu
    /// times `Sum` kernels whatever the operator) and runs the winner
    /// with its own operator.
    ///
    /// # Errors
    ///
    /// [`TangramError`] on simulator failures or inputs above 2³¹
    /// elements.
    pub fn run(
        &mut self,
        workload: WorkloadKey,
        data: &[f32],
    ) -> Result<WorkloadResult, TangramError> {
        let n = data.len() as u64;
        if n >= (1 << 31) {
            return Err(TangramError::TooLarge(n));
        }
        if n == 0 {
            // Degenerate but well-defined: exactly what the CPU
            // reference computes over an empty array.
            return Ok(WorkloadResult {
                workload,
                value: expected_value(workload, data),
                version: "-".to_string(),
                block_size: 0,
                coarsen: 0,
                time_ns: 0.0,
            });
        }
        let swept = match workload.kind {
            WorkloadKind::Reduce(_) => WorkloadKey::sum(),
            _ => workload,
        };
        let slot = (swept, Self::bucket(n));
        let (c, tuning) = match self.cache.get(&slot) {
            Some(&won) => won,
            None => {
                let won = self.tune(swept, n)?;
                self.cache.insert(slot, won);
                won
            }
        };
        let kernel = Menu::for_key(workload).runnable(c, tuning)?;
        let mut dev = Device::new(self.arch.clone());
        let input = upload(&mut dev, data)?;
        dev.reset_clock();
        let value = kernel.run(&mut dev, input, n, BlockSelection::All)?;
        Ok(WorkloadResult {
            workload,
            value,
            version: kernel.id(),
            block_size: tuning.block_size,
            coarsen: tuning.coarsen,
            time_ns: dev.elapsed_ns(),
        })
    }

    /// Sweep `workload` at `n`: the winner's menu index and tuning.
    fn tune(&self, workload: WorkloadKey, n: u64) -> Result<(usize, Tuning), TangramError> {
        let report = Session::new(self.arch.clone()).run(&Workload::new(workload, n))?;
        let id = report.winner_id();
        let c = Menu::for_key(workload).find(&id).ok_or_else(|| {
            SimError::InvalidLaunch(format!("winner `{id}` is not on the {workload} menu"))
        })?;
        Ok((c, Tuning { block_size: report.block_size(), coarsen: report.coarsen() }))
    }
}

/// Race-sanitizer outcome for one sweep candidate: the per-launch
/// [`RaceReport`]s of a single shadow-state-tracked run at the screen
/// tuning. Clean candidates keep their reports too, so a
/// `--sanitize-json` dump documents the whole screened corpus.
#[derive(Debug, Clone)]
pub struct CandidateRaces {
    /// Candidate index in the sweep's candidate slice.
    pub candidate: usize,
    /// Version display string.
    pub version: String,
    /// Block size of the screened tuning (first feasible).
    pub block_size: u32,
    /// Coarsening factor of the screened tuning.
    pub coarsen: u32,
    /// Per-launch race reports of the screened run, in launch order.
    pub reports: Vec<RaceReport>,
}

impl CandidateRaces {
    /// Whether every launch of the screened run was race-free.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(RaceReport::is_clean)
    }

    /// Deduplicated findings across the run's launches.
    pub fn findings(&self) -> usize {
        self.reports.iter().map(|r| r.findings.len()).sum()
    }

    /// Raw hazard occurrences (pre-dedup) across the run's launches.
    pub fn occurrences(&self) -> u64 {
        self.reports.iter().map(RaceReport::occurrences).sum()
    }

    /// One-line summary of the first racy launch (the quarantine
    /// payload); the clean summary of the first launch otherwise.
    pub fn summary(&self) -> String {
        self.reports
            .iter()
            .find(|r| !r.is_clean())
            .or_else(|| self.reports.first())
            .map_or_else(|| "no launches".to_string(), RaceReport::summary)
    }
}

impl serde::Serialize for CandidateRaces {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("candidate".to_string(), self.candidate.to_value()),
            ("version".to_string(), self.version.to_value()),
            ("block_size".to_string(), self.block_size.to_value()),
            ("coarsen".to_string(), self.coarsen.to_value()),
            ("clean".to_string(), self.is_clean().to_value()),
            ("reports".to_string(), self.reports.to_value()),
        ])
    }
}

/// Array-size cap for the sanitizer screen. Race freedom is a
/// property of the generated code, not of the data, so the screen
/// runs each candidate once at the sweep size capped here — small
/// enough that every block executes functionally (`exact` shadow
/// state, no sampled-block blind spots), large enough that multi-pass
/// grid combines and partial tail blocks still occur.
pub(crate) const SANITIZE_N_CAP: u64 = 65_536;

/// Quarantine bookkeeping for a tuning-store record that failed
/// validation: the fallback sweep's [`ResilienceReport`] carries one
/// [`QuarantineReason::CacheInvalid`] event naming the record and the
/// reason. (`candidate` is 0 — a store record is not a sweep-space
/// job, so there is no meaningful candidate index.)
fn cache_invalid_job(key: &StoreKey, rec: Option<&StoreRecord>, reason: String) -> JobReport {
    JobReport {
        candidate: 0,
        version: rec.map_or_else(|| key.label(), |r| r.version.clone()),
        block_size: rec.map_or(0, |r| r.block_size),
        coarsen: rec.map_or(0, |r| r.coarsen),
        attempts: 1,
        faults_injected: 0,
        faults_detected: 0,
        measured: false,
        quarantined: Some(QuarantineReason::CacheInvalid(reason)),
    }
}

/// The result of one [`Session`] sweep: the tuned winner, its
/// selection row, job accounting, sweep metrics, and (when profiling
/// was enabled) the winner's scheduler trace.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The tuned winner, ready to run.
    pub tuned: TunedVersion,
    /// The winning row (version, tuning, modelled time).
    pub row: SelectionRow,
    /// Job accounting: measured / infeasible / pruned / quarantined.
    /// For clean sweeps only the job counts are populated; under a
    /// resilience policy the retry and fault totals fill in too.
    pub resilience: ResilienceReport,
    /// Sweep-level metrics (rung timings, winner profile when
    /// profiling was on).
    pub metrics: SweepMetrics,
    /// Chrome-traceable scheduler events of the profiled winner
    /// re-run; `None` when the session does not profile.
    pub trace: Option<Trace>,
    /// Per-candidate race reports of the sanitizer screen, in
    /// candidate order; `None` when the session does not sanitize.
    pub races: Option<Vec<CandidateRaces>>,
}

/// What [`Session::run`] returns: a classic reduction sweep report or
/// a workload-variant sweep report, depending on the workload's kind.
#[derive(Debug, Clone)]
pub enum RunReport {
    /// A plain reduction was tuned over the planner's pruned
    /// `CodeVersion` corpus.
    Reduce(Box<SweepReport>),
    /// A non-reduce workload was tuned over its kind's variant menu.
    Workload(Box<WorkloadReport>),
}

impl RunReport {
    /// The sweep's metrics: winner, job accounting, profile,
    /// sanitizer and store outcomes.
    pub fn metrics(&self) -> &SweepMetrics {
        match self {
            RunReport::Reduce(r) => &r.metrics,
            RunReport::Workload(r) => &r.metrics,
        }
    }

    /// The winning block size.
    pub fn block_size(&self) -> u32 {
        self.metrics().winner.block_size
    }

    /// The winning coarsening factor.
    pub fn coarsen(&self) -> u32 {
        self.metrics().winner.coarsen
    }

    /// The winner's modelled time (ns).
    pub fn time_ns(&self) -> f64 {
        self.metrics().winner.time_ns
    }

    /// Display id of the winning code: a `CodeVersion` string for
    /// reductions, a [`WlVariant::id`](crate::WlVariant::id) for the other workloads.
    pub fn winner_id(&self) -> String {
        self.metrics().winner.id.clone()
    }

    /// The workload sweep report, when this was a non-reduce run.
    pub fn as_workload(&self) -> Option<&WorkloadReport> {
        match self {
            RunReport::Reduce(_) => None,
            RunReport::Workload(r) => Some(r),
        }
    }

    /// The reduction sweep report, when this was a reduce run.
    pub fn as_reduce(&self) -> Option<&SweepReport> {
        match self {
            RunReport::Reduce(r) => Some(r),
            RunReport::Workload(_) => None,
        }
    }

    /// The profiled winner's scheduler trace.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            RunReport::Reduce(r) => r.trace.as_ref(),
            RunReport::Workload(r) => r.trace.as_ref(),
        }
    }

    /// Per-candidate race reports of the sanitizer screen.
    pub fn races(&self) -> Option<&[CandidateRaces]> {
        match self {
            RunReport::Reduce(r) => r.races.as_deref(),
            RunReport::Workload(r) => r.races.as_deref(),
        }
    }
}

/// One configured entry point for every sweep flavor.
///
/// A `Session` fixes the architecture, evaluation engine options,
/// optional resilience policy, profiling, sanitizing, and tuning
/// store — then [`Session::run`] sweeps any [`Workload`] under all of
/// them and returns a typed report.
///
/// # Examples
///
/// ```
/// use gpu_sim::ArchConfig;
/// use tangram::api::Session;
///
/// # fn main() -> Result<(), gpu_sim::SimError> {
/// let session = Session::new(ArchConfig::maxwell_gtx980()).profiled(true);
/// let report = session.select_best(16_384)?;
/// assert!(report.row.time_ns > 0.0);
/// // Profiling attaches per-site counters for the winner ...
/// let profile = report.metrics.winner_profile.as_ref().unwrap();
/// assert!(profile.sites.iter().any(|s| s.issues > 0));
/// // ... without perturbing the modelled result.
/// assert_eq!(report.metrics.winner.time_ns, report.row.time_ns);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    arch: ArchConfig,
    opts: EvalOptions,
    res: Option<ResilienceOptions>,
    profile: bool,
    sanitize: bool,
    cache_dir: Option<PathBuf>,
    cache_mode: CacheMode,
}

impl Session {
    /// A session on `arch` with default engine options, no resilience
    /// policy, profiling and sanitizing off, and no tuning store.
    pub fn new(arch: ArchConfig) -> Self {
        Session {
            arch,
            opts: EvalOptions::default(),
            res: None,
            profile: false,
            sanitize: false,
            cache_dir: None,
            cache_mode: CacheMode::default(),
        }
    }

    /// Replace the evaluation-engine options.
    #[must_use]
    pub fn eval(mut self, opts: EvalOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Run sweeps under a resilience policy (retry + quarantine,
    /// optionally with fault injection).
    #[must_use]
    pub fn resilience(mut self, res: ResilienceOptions) -> Self {
        self.res = Some(res);
        self
    }

    /// Enable or disable profiling: a profiled session re-runs each
    /// sweep winner with site-level counters and scheduler tracing
    /// switched on. The selection itself always runs unprofiled, so
    /// winners and times are bit-identical either way.
    #[must_use]
    pub fn profiled(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Enable or disable the race sanitizer: a sanitized session runs
    /// each candidate once under happens-before shadow-state tracking
    /// before the sweep and quarantines racy variants (via
    /// [`QuarantineReason::Race`] in the resilience report) so they
    /// never reach the timing engine. The screen runs on scratch
    /// devices, so for a race-free corpus the surviving sweep —
    /// winners, times, accounting — is bit-identical to an
    /// unsanitized one.
    #[must_use]
    pub fn sanitized(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// Attach a persistent tuning store rooted at `dir` (created on
    /// first use). Sweeps then warm-start: a cached winner for the
    /// session's `(arch, workload, n-bucket)` key — written by a
    /// previous sweep over the *same* candidate corpus — is
    /// re-confirmed at full fidelity (modelled-time bits and the
    /// cpu-ref oracle) and, when it holds up, returned without
    /// re-sweeping, bit-identical to a clean sweep. Records that are
    /// corrupt, stale, or unconfirmable are quarantined via
    /// [`QuarantineReason::CacheInvalid`] and the sweep falls back to
    /// a clean full run (which overwrites the record in
    /// [`CacheMode::ReadWrite`]). A broken store can therefore slow a
    /// sweep down, but never change its winner or make it fail.
    #[must_use]
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Set how the tuning store is used (default
    /// [`CacheMode::ReadWrite`]); [`CacheMode::Off`] ignores a
    /// configured store entirely.
    #[must_use]
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// The session's architecture.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The configured tuning-store directory, if any.
    pub fn cache_dir(&self) -> Option<&PathBuf> {
        self.cache_dir.as_ref()
    }

    /// The session's cache mode.
    pub fn cache_usage(&self) -> CacheMode {
        self.cache_mode
    }

    /// The session's evaluation-engine options.
    pub fn eval_options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Whether this session profiles sweep winners.
    pub fn profiling(&self) -> bool {
        self.profile
    }

    /// Whether this session race-sanitizes sweep candidates.
    pub fn sanitizing(&self) -> bool {
        self.sanitize
    }

    /// Tune any [`Workload`]: the one sweep engine behind every key.
    ///
    /// The steps are the same for all ten keys; the workload's
    /// candidate menu decides what is swept:
    ///
    /// 1. with a store, an exact record is re-confirmed and returned
    ///    warm, and the nearest cached bucket seeds a halving sweep;
    /// 2. a sanitizing session quarantines racy candidates;
    /// 3. the engine evaluates every `(candidate, tuning)` job —
    ///    exhaustively, by successive halving, or under the
    ///    resilience policy;
    /// 4. non-reduce winners are checked against the cpu-ref oracle
    ///    exactly, and a profiling session re-runs the winner with
    ///    site counters;
    /// 5. the winner is written back to the store.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; fails when `n` is outside
    /// `1..2^31`, when no candidate is feasible, or (for non-reduce
    /// workloads) when the winner fails the cpu-ref oracle.
    pub fn run(&self, workload: &Workload) -> Result<RunReport, SimError> {
        let t0 = Instant::now();
        let n = workload.n;
        if n == 0 || n >= (1 << 31) {
            return Err(SimError::InvalidLaunch(format!(
                "sweeps take 1..2^31 elements, got {n}"
            )));
        }
        let menu = Menu::for_key(workload.key);

        // Persistent tuning store: try to answer from a cached,
        // re-confirmed winner. Every failure mode of the store
        // degrades to a clean cold sweep (plus a CacheInvalid
        // quarantine entry when a record existed but could not be
        // trusted) — the cache can never panic the sweep, change its
        // winner, or make it fail.
        let mut store: Option<(TuningStore, StoreKey)> = None;
        let mut summary: Option<StoreSummary> = None;
        let mut cache_jobs: Vec<JobReport> = Vec::new();
        let mut near: Option<StoreRecord> = None;
        if let Some(dir) = self.cache_dir.as_ref().filter(|_| self.cache_mode != CacheMode::Off) {
            let key = StoreKey::for_workload(&self.arch.id, workload.key, n);
            let mut s = StoreSummary {
                dir: dir.display().to_string(),
                mode: self.cache_mode.id().to_string(),
                key: key.label(),
                outcome: "miss".to_string(),
                detail: None,
                warm: false,
                seeded: false,
                saved: false,
            };
            match TuningStore::open(dir, menu.fingerprint()) {
                Err(e) => {
                    s.outcome = "disabled".to_string();
                    s.detail = Some(e.to_string());
                }
                Ok(st) => {
                    match st.load(&key) {
                        Lookup::Hit(rec) if rec.n == n => match self.confirm_cached(&menu, n, &rec) {
                            Ok(won) => {
                                s.outcome = "warm".to_string();
                                s.warm = true;
                                return self.report(workload, won, Some(s), t0);
                            }
                            Err(reason) => {
                                s.outcome = "invalid".to_string();
                                s.detail = Some(reason.clone());
                                cache_jobs.push(cache_invalid_job(&key, Some(&rec), reason));
                            }
                        },
                        // Same bucket, different exact size: an honest
                        // miss (the fresh sweep overwrites the record
                        // in rw mode).
                        Lookup::Hit(rec) => {
                            s.detail =
                                Some(format!("bucket record is for n={}, sweep is n={n}", rec.n));
                        }
                        Lookup::Miss => {}
                        Lookup::Invalid { reason, quarantined } => {
                            s.outcome = "invalid".to_string();
                            let detail = match &quarantined {
                                Some(q) => format!("{reason}; quarantined to {}", q.display()),
                                None => reason,
                            };
                            s.detail = Some(detail.clone());
                            cache_jobs.push(cache_invalid_job(&key, None, detail));
                        }
                    }
                    // Nearest-bucket warm start: an exact miss can
                    // still *seed* the halving survivor rung from the
                    // nearest cached neighbor (see [`SeedHint`]).
                    if self.opts.sweep == SweepMode::Halving {
                        near = st.load_nearest(&key);
                    }
                    store = Some((st, key));
                }
            }
            summary = Some(s);
        }

        // Sanitizer screen: run every candidate once under shadow-state
        // tracking on a scratch device; racy candidates are quarantined
        // here and never reach the timing engine. Candidates the
        // screen cannot run (no feasible tuning, hard error) pass
        // through — the engine already classifies those.
        let (menu, races, racy_jobs) = if self.sanitize {
            let sn = n.min(SANITIZE_N_CAP);
            let mut screened = Vec::with_capacity(menu.len());
            for c in 0..menu.len() {
                screened.extend(menu.sanitize(&self.arch, sn, c)?);
            }
            let (live, racy_jobs) = quarantine_racy(&menu, &screened);
            (live, Some(screened), racy_jobs)
        } else {
            (menu, None, Vec::new())
        };

        // The seed is a hint, never trusted: a wrong one falls back to
        // the full survivor rung, so it narrows the sweep without
        // being able to change its winner.
        let mut opts = self.opts;
        if let (Some(near), Some(s)) = (near, summary.as_mut()) {
            let tuning = Tuning { block_size: near.block_size, coarsen: near.coarsen };
            if let Some(c) = menu.find(&near.version).filter(|&c| menu.contains(c, tuning)) {
                opts.seed = Some(SeedHint { candidate: c, tuning });
                s.seeded = true;
                append_detail(s, format!("seeded from {}", near.key.label()));
            }
        }

        let pool = ContextPool::builder(&self.arch, n).opts(&opts).build();
        let (results, rungs, mut resilience) = match &self.res {
            None => {
                let (results, rungs) = evaluate(&pool, &menu, &opts)?;
                // Every job is measured, pruned by a rung (halving's
                // screen or bound), or infeasible.
                let measured = results.iter().flatten().count();
                let pruned = rungs.iter().map(|r| r.pruned).sum();
                let rep = ResilienceReport {
                    total_jobs: results.len(),
                    measured,
                    infeasible: results.len() - measured - pruned,
                    pruned,
                    ..ResilienceReport::default()
                };
                (results, rungs, rep)
            }
            Some(res) => {
                let t = Instant::now();
                let (results, rep) = evaluate_resilient(&pool, &menu, &opts, res)?;
                let rungs = vec![RungStats::tally("resilient", results.len(), &results, t)];
                (results, rungs, rep)
            }
        };
        for job in racy_jobs.into_iter().chain(cache_jobs) {
            resilience.absorb(job);
        }
        let best = first_fastest(&results, |m| m.time_ns)
            .ok_or_else(|| SimError::InvalidLaunch("no feasible candidate".into()))?;

        // Exact oracle check of the winner before it is reported or
        // persisted (non-reduce menus only; see `Menu::confirms_winner`).
        let checked = if menu.confirms_winner() {
            let on = n.min(SANITIZE_N_CAP);
            let oracle = menu.oracle(on);
            let got = oracle.run(&self.arch, opts.interp, &best.kernel)?;
            if !oracle.matches(&got) {
                return Err(SimError::InvalidLaunch(format!(
                    "{} winner {} fails the cpu-ref oracle at n={on}: device {}, cpu-ref {}",
                    workload.key,
                    best.kernel.id(),
                    got.summary(),
                    oracle.expected()
                )));
            }
            Some((got, on))
        } else {
            None
        };
        let (winner_profile, trace) = if self.profile {
            let mut ctx = pool.acquire()?;
            let (profile, trace) = best.kernel.profile(&mut ctx)?;
            pool.release(ctx);
            (profile, Some(trace))
        } else {
            (None, None)
        };

        // Write the fresh winner back. A write failure (disk full,
        // lock held by a live writer, read-only store) is recorded in
        // the summary, never surfaced as a sweep error.
        if let (Some((st, key)), Some(s)) = (&store, summary.as_mut()) {
            if self.cache_mode == CacheMode::ReadWrite {
                let rec = StoreRecord {
                    key: key.clone(),
                    n,
                    version: best.kernel.id(),
                    block_size: best.tuning.block_size,
                    coarsen: best.tuning.coarsen,
                    time_ns_bits: best.time_ns.to_bits(),
                };
                match st.save(&rec) {
                    Ok(receipt) => {
                        s.saved = true;
                        if receipt.lock_attempts > 1 {
                            let attempts = receipt.lock_attempts;
                            append_detail(s, format!("lock acquired after {attempts} attempts"));
                        }
                    }
                    Err(e) => append_detail(s, format!("save failed: {e}")),
                }
            }
        }
        let won = Won {
            kernel: best.kernel.clone(),
            time_ns: best.time_ns,
            checked,
            rungs,
            resilience,
            races,
            winner_profile,
            trace,
        };
        self.report(workload, won, summary, t0)
    }

    /// Select the fastest pruned version for a `sum-f32` reduction of
    /// `n` elements: [`Session::run`] on [`Workload::sum`].
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn select_best(&self, n: u64) -> Result<SweepReport, SimError> {
        match self.run(&Workload::sum(n))? {
            RunReport::Reduce(report) => Ok(*report),
            RunReport::Workload(_) => {
                Err(SimError::InvalidLaunch("sum-f32 swept as a workload".into()))
            }
        }
    }

    /// Try to answer from a loaded store record without sweeping:
    /// re-map the record into the live menu, re-synthesize, (when the
    /// session sanitizes) race-screen it, re-measure at full fidelity,
    /// and check it against the cpu-ref oracle at the capped size.
    /// Any failure — including hard simulator errors — returns the
    /// reason instead, and the caller falls back to a clean cold
    /// sweep. An accepted record is bit-identical to the cold sweep
    /// that wrote it, because the measurement is a pure function of
    /// `(arch, n, candidate, tuning)` and the accepted time bits must
    /// reproduce exactly.
    fn confirm_cached(&self, menu: &Menu, n: u64, rec: &StoreRecord) -> Result<Won, String> {
        let tc = Instant::now();
        let Some(c) = menu.find(&rec.version) else {
            return Err(format!(
                "cached winner `{}` is not in the live candidate set",
                rec.version
            ));
        };
        if !BLOCK_SIZES.contains(&rec.block_size) {
            return Err(format!("cached block size {} is outside the sweep space", rec.block_size));
        }
        if !menu.coarsen(c).contains(&rec.coarsen) {
            return Err(format!(
                "cached coarsening factor {} is outside the sweep space",
                rec.coarsen
            ));
        }
        let tuning = Tuning { block_size: rec.block_size, coarsen: rec.coarsen };
        let kernel = menu
            .synthesize(c, tuning)
            .map_err(|e| format!("cached winner no longer synthesizes: {e}"))?;

        // The cold path screens every candidate; a warm run only
        // executes this one, so this one is what gets screened.
        let races = if self.sanitize {
            match menu.sanitize(&self.arch, n.min(SANITIZE_N_CAP), c) {
                Ok(Some(cr)) if !cr.is_clean() => {
                    return Err(format!(
                        "cached winner failed the race sanitizer: {}",
                        cr.summary()
                    ));
                }
                Ok(cr) => Some(cr.into_iter().collect::<Vec<_>>()),
                Err(e) => {
                    return Err(format!("sanitizer screen of the cached winner errored: {e}"))
                }
            }
        } else {
            None
        };

        // Full-fidelity timing confirmation on the exact pool
        // configuration of a cold sweep: the simulator is
        // deterministic, so an accepted time must reproduce the
        // stored bits exactly.
        let pool = ContextPool::builder(&self.arch, n).opts(&self.opts).build();
        let mut ctx =
            pool.acquire().map_err(|e| format!("confirmation context failed: {e}"))?;
        let time_ns = kernel
            .measure(&mut ctx, Fidelity::Full)
            .map_err(|e| format!("confirmation run failed: {e}"))?;
        if time_ns.to_bits() != rec.time_ns_bits {
            return Err(format!(
                "cached time {} ns does not reproduce (measured {time_ns} ns)",
                rec.time_ns()
            ));
        }

        // Oracle confirmation: the cached code must still produce the
        // right answer, not just the right timing. Like the sanitizer
        // screen, the functional run is capped: a wrong kernel is
        // wrong at any size, while a full-n all-blocks run would cost
        // more than the sweep the cache is meant to skip.
        let on = n.min(SANITIZE_N_CAP);
        let oracle = menu.oracle(on);
        let got = oracle
            .run(&self.arch, self.opts.interp, &kernel)
            .map_err(|e| format!("oracle confirmation run failed: {e}"))?;
        if !oracle.matches(&got) {
            return Err(format!(
                "cached winner fails the cpu-ref oracle: device {}, cpu-ref {}",
                got.summary(),
                oracle.expected()
            ));
        }
        let (winner_profile, trace) = if self.profile {
            let (profile, trace) =
                kernel.profile(&mut ctx).map_err(|e| format!("winner profiling failed: {e}"))?;
            (profile, Some(trace))
        } else {
            (None, None)
        };
        pool.release(ctx);
        Ok(Won {
            kernel,
            time_ns,
            checked: Some((got, on)),
            rungs: vec![RungStats {
                rung: "cache-confirm".to_string(),
                jobs: 1,
                measured: 1,
                pruned: 0,
                wall_ms: tc.elapsed().as_secs_f64() * 1e3,
            }],
            resilience: ResilienceReport {
                total_jobs: 1,
                measured: 1,
                ..ResilienceReport::default()
            },
            races,
            winner_profile,
            trace,
        })
    }

    /// Shape a finished sweep into its kind's report.
    fn report(
        &self,
        workload: &Workload,
        won: Won,
        store: Option<StoreSummary>,
        t0: Instant,
    ) -> Result<RunReport, SimError> {
        let (n, tuning) = (workload.n, won.kernel.tuning());
        let mode = match self.res {
            Some(_) => format!("resilient-{}", self.opts.sweep.id()),
            None => self.opts.sweep.id().to_string(),
        };
        let sanitize = won.races.as_ref().map(|rs| SanitizeSummary {
            candidates: rs.len(),
            racy: rs.iter().filter(|r| !r.is_clean()).count(),
            findings: rs.iter().map(CandidateRaces::findings).sum(),
            occurrences: rs.iter().map(CandidateRaces::occurrences).sum(),
        });
        let metrics = SweepMetrics {
            arch: self.arch.id.clone(),
            n,
            workload: workload.key,
            mode,
            interp: self.opts.interp.id().to_string(),
            threads: self.opts.threads,
            rungs: won.rungs,
            resilience: won.resilience,
            winner: WinnerRow {
                id: won.kernel.id(),
                block_size: tuning.block_size,
                coarsen: tuning.coarsen,
                time_ns: won.time_ns,
            },
            winner_profile: won.winner_profile,
            sanitize,
            store,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        match won.kernel {
            Kernel::Reduce(sv) => Ok(RunReport::Reduce(Box::new(SweepReport {
                row: SelectionRow {
                    n,
                    version: sv.version,
                    fig6_label: fig6_label_of(sv.version),
                    block_size: tuning.block_size,
                    coarsen: tuning.coarsen,
                    time_ns: won.time_ns,
                },
                tuned: TunedVersion { synthesized: sv, time_ns: won.time_ns },
                resilience: metrics.resilience.clone(),
                metrics,
                trace: won.trace,
                races: won.races,
            }))),
            Kernel::Workload(sw) => {
                let Some((value, oracle_n)) = won.checked else {
                    return Err(SimError::InvalidLaunch(format!(
                        "{} winner was not oracle-checked",
                        workload.key
                    )));
                };
                Ok(RunReport::Workload(Box::new(WorkloadReport {
                    row: WorkloadRow {
                        workload: workload.key,
                        n,
                        variant: sw.variant.id(),
                        block_size: tuning.block_size,
                        coarsen: tuning.coarsen,
                        time_ns: won.time_ns,
                    },
                    value,
                    oracle_n,
                    races: won.races,
                    metrics,
                    trace: won.trace,
                })))
            }
        }
    }
}

/// A finished sweep (cold or warm) before it is shaped into its
/// kind's report.
struct Won {
    kernel: Kernel,
    time_ns: f64,
    /// The winner's oracle-checked output and the size it ran at.
    checked: Option<(WorkloadValue, u64)>,
    rungs: Vec<RungStats>,
    resilience: ResilienceReport,
    races: Option<Vec<CandidateRaces>>,
    winner_profile: Option<LaunchProfile>,
    trace: Option<Trace>,
}

/// Split the sanitizer screen's racy candidates off `menu`: the live
/// menu without them, plus one [`QuarantineReason::Race`] job each.
fn quarantine_racy(menu: &Menu, screened: &[CandidateRaces]) -> (Menu, Vec<JobReport>) {
    let mut keep = vec![true; menu.len()];
    let mut racy = Vec::new();
    for cr in screened.iter().filter(|cr| !cr.is_clean()) {
        keep[cr.candidate] = false;
        racy.push(JobReport {
            candidate: cr.candidate,
            version: cr.version.clone(),
            block_size: cr.block_size,
            coarsen: cr.coarsen,
            attempts: 1,
            faults_injected: 0,
            faults_detected: 0,
            measured: false,
            quarantined: Some(QuarantineReason::Race(cr.summary())),
        });
    }
    (menu.retain(&keep), racy)
}

/// Append `note` to a store summary's detail (`; `-separated).
fn append_detail(s: &mut StoreSummary, note: String) {
    s.detail = Some(match s.detail.take() {
        Some(d) => format!("{d}; {note}"),
        None => note,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_correctly_and_caches_selection() {
        let mut r = Reducer::new(ArchConfig::pascal_p100());
        let data: Vec<f32> = (0..5000).map(|i| ((i % 10) as f32) - 2.0).collect();
        let expect: f32 = data.iter().sum();
        let first = r.run(WorkloadKey::sum(), &data).unwrap();
        assert_eq!(first.value, WorkloadValue::Scalar(expect));
        // Second call in the same bucket reuses the cached selection.
        let second = r.run(WorkloadKey::sum(), &data).unwrap();
        assert_eq!(second.version, first.version);
        assert_eq!(r.cache.len(), 1);
    }

    #[test]
    fn empty_input_sums_to_zero() {
        let mut r = Reducer::new(ArchConfig::kepler_k40c());
        let res = r.run(WorkloadKey::sum(), &[]).unwrap();
        assert_eq!(res.value, WorkloadValue::Scalar(0.0));
    }

    #[test]
    fn reducer_runs_argmax_and_argmin_against_cpu_ref() {
        let mut r = Reducer::new(ArchConfig::maxwell_gtx980());
        let mut data: Vec<f32> = (0..6000).map(|i| ((i % 13) as f32) - 6.0).collect();
        data[1234] = 5.0e9;
        data[4321] = -5.0e9;
        let top = r.run(WorkloadKey::argmax(), &data).unwrap();
        assert_eq!(top.value.arg_index(), Some(1234));
        let bottom = r.run(WorkloadKey::argmin(), &data).unwrap();
        assert_eq!(bottom.value.arg_index(), Some(4321));
        // Same bucket, same key: the swept (variant, tuning) is reused.
        assert!(r.cache.len() >= 2);
        let again = r.run(WorkloadKey::argmax(), &data).unwrap();
        assert_eq!(again.version, top.version);
    }

    #[test]
    fn reducer_runs_histogram_against_cpu_ref() {
        let mut r = Reducer::new(ArchConfig::pascal_p100());
        let data: Vec<f32> = (0..5000).map(|i| ((i % 23) as f32) - 11.0).collect();
        let key = WorkloadKey::histogram(16);
        let res = r.run(key, &data).unwrap();
        let want = cpu_ref::histogram_ref(&data, 16);
        assert_eq!(res.value, WorkloadValue::Bins(want));
    }

    #[test]
    fn empty_workloads_answer_from_the_oracle() {
        let mut r = Reducer::new(ArchConfig::kepler_k40c());
        let top = r.run(WorkloadKey::argmax(), &[]).unwrap();
        assert_eq!(top.value.arg_index(), None, "empty argmax has no index");
        assert_eq!(top.version, "-");
        let hist = r.run(WorkloadKey::histogram(8), &[]).unwrap();
        assert_eq!(hist.value, WorkloadValue::Bins(vec![0; 8]));
    }

    #[test]
    fn profiled_session_matches_unprofiled_bitwise() {
        let arch = ArchConfig::maxwell_gtx980();
        let opts = EvalOptions::serial();
        let plain = Session::new(arch.clone()).eval(opts).select_best(16_384).unwrap().row;
        let session = Session::new(arch).eval(opts).profiled(true);
        let rep = session.select_best(16_384).unwrap();
        assert_eq!(rep.row.version, plain.version);
        assert_eq!(rep.row.block_size, plain.block_size);
        assert_eq!(rep.row.time_ns.to_bits(), plain.time_ns.to_bits());
        // Profiling attaches counters and a trace without touching
        // the selection.
        let profile = rep.metrics.winner_profile.as_ref().expect("profiled session");
        assert!(profile.sites.iter().any(|s| s.issues > 0));
        assert!(!rep.trace.as_ref().unwrap().events.is_empty());
        // Clean-sweep job accounting adds up.
        let r = &rep.resilience;
        assert_eq!(r.total_jobs, r.measured + r.infeasible + r.pruned);
        assert_eq!(rep.metrics.rungs.len(), 1, "exhaustive sweeps have one rung");
    }

    #[test]
    fn session_halving_accounts_for_pruned_jobs() {
        let session = Session::new(ArchConfig::pascal_p100())
            .eval(EvalOptions::serial().with_sweep(crate::evaluate::SweepMode::Halving));
        let rep = session.select_best(32_768).unwrap();
        let r = &rep.resilience;
        assert!(r.pruned > 0, "halving must prune part of the space");
        assert_eq!(r.total_jobs, r.measured + r.infeasible + r.pruned);
        let rungs = &rep.metrics.rungs;
        let names: Vec<&str> = rungs.iter().map(|r| r.rung.as_str()).collect();
        assert_eq!(names, ["screen", "survivor", "bounded"]);
        assert!(rungs[1].jobs < rungs[0].jobs);
        let pruned: usize = rungs.iter().map(|r| r.pruned).sum();
        assert_eq!(r.pruned, pruned, "the report counts what the rungs pruned");
    }

    #[test]
    fn sanitized_session_is_bitwise_transparent_on_clean_corpus() {
        let arch = ArchConfig::maxwell_gtx980();
        let plain =
            Session::new(arch.clone()).eval(EvalOptions::serial()).select_best(8_192).unwrap();
        let sane = Session::new(arch)
            .eval(EvalOptions::serial())
            .sanitized(true)
            .select_best(8_192)
            .unwrap();
        // The generated corpus is race-free, so the screen quarantines
        // nothing and the sweep is bit-identical to an unsanitized one.
        let races = sane.races.as_ref().expect("sanitized session records reports");
        assert!(races.iter().all(CandidateRaces::is_clean), "corpus must be race-free");
        assert_eq!(sane.resilience.quarantined, 0);
        assert_eq!(sane.row.version, plain.row.version);
        assert_eq!(sane.row.block_size, plain.row.block_size);
        assert_eq!(sane.row.coarsen, plain.row.coarsen);
        assert_eq!(sane.row.time_ns.to_bits(), plain.row.time_ns.to_bits());
        let summary = sane.metrics.sanitize.expect("sanitized sweeps summarize the screen");
        assert_eq!(summary.racy, 0);
        assert_eq!(summary.findings, 0);
        assert!(summary.candidates > 0);
        assert!(plain.races.is_none());
        assert!(plain.metrics.sanitize.is_none());
    }

    #[test]
    fn per_size_reports_merge() {
        let session = Session::new(ArchConfig::kepler_k40c()).eval(EvalOptions::serial());
        let mut merged = ResilienceReport::default();
        let mut per_size = 0;
        for n in [1024, 4096] {
            let rep = session.select_best(n).unwrap();
            per_size += rep.metrics.resilience.total_jobs;
            merged.merge(rep.resilience);
        }
        assert_eq!(merged.total_jobs, per_size);
    }

    #[test]
    fn session_run_reports_reduce_and_workload_kinds() {
        let arch = ArchConfig::maxwell_gtx980();
        let session = Session::new(arch.clone()).eval(EvalOptions::serial());
        // Reduce workloads report the classic selection row.
        let reduce = session.run(&Workload::sum(16_384)).unwrap();
        let classic = Session::new(arch).eval(EvalOptions::serial()).select_best(16_384).unwrap();
        let rep = reduce.as_reduce().expect("sum is a reduce workload");
        assert_eq!(rep.row.version, classic.row.version);
        assert_eq!(rep.row.time_ns.to_bits(), classic.row.time_ns.to_bits());
        // Non-reduce workloads report an oracle-validated winner.
        let arg = session.run(&Workload::argmax(16_384)).unwrap();
        let wrep = arg.as_workload().expect("argmax is a workload sweep");
        assert!(wrep.row.time_ns > 0.0);
        let w = Workload::argmax(16_384);
        assert_eq!(wrep.value, expected_value(w.key, &w.oracle_input()));
        assert_eq!(arg.winner_id(), wrep.row.variant);
    }

    #[test]
    fn workload_sweep_warm_start_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!(
            "tangram-wl-store-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::new(ArchConfig::pascal_p100())
            .eval(EvalOptions::serial())
            .store(&dir);
        let cold = session.run(&Workload::argmax(8_192)).unwrap();
        let cold = cold.as_workload().unwrap();
        assert_eq!(
            cold.metrics.store.as_ref().map(|s| s.saved),
            Some(true),
            "cold sweep persists its winner"
        );
        let warm = session.run(&Workload::argmax(8_192)).unwrap();
        let warm = warm.as_workload().unwrap();
        let answered_warm = warm.metrics.store.as_ref().map(|s| s.warm);
        assert_eq!(answered_warm, Some(true), "second sweep answers from the store");
        assert_eq!(warm.row.variant, cold.row.variant);
        assert_eq!(warm.row.block_size, cold.row.block_size);
        assert_eq!(warm.row.coarsen, cold.row.coarsen);
        assert_eq!(warm.row.time_ns.to_bits(), cold.row.time_ns.to_bits());
        assert_eq!(warm.value, cold.value);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_sweeps_quarantine_bad_records_and_racy_variants() {
        // A workload record that no longer confirms (its time bits do
        // not reproduce) leaves a CacheInvalid event and falls back
        // to the cold winner.
        let dir = std::env::temp_dir()
            .join(format!("tangram-wl-invalid-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        let session =
            Session::new(ArchConfig::kepler_k40c()).eval(EvalOptions::serial()).store(&dir);
        let w = Workload::segsum(4_096);
        let cold = session.run(&w).unwrap();
        let store = TuningStore::open(&dir, Menu::for_key(w.key).fingerprint()).unwrap();
        let key = StoreKey::for_workload("kepler", w.key, w.n);
        let Lookup::Hit(mut rec) = store.load(&key) else { panic!("cold sweep saved no record") };
        rec.time_ns_bits ^= 1;
        store.save(&rec).unwrap();
        let fallback = session.run(&w).unwrap();
        assert_eq!(fallback.metrics().store.as_ref().map(|s| s.outcome.as_str()), Some("invalid"));
        assert!(
            fallback
                .metrics()
                .resilience
                .events
                .iter()
                .any(|e| matches!(e.quarantined, Some(QuarantineReason::CacheInvalid(_)))),
            "got {:?}",
            fallback.metrics().resilience.events
        );
        assert_eq!(fallback.winner_id(), cold.winner_id());
        assert_eq!(fallback.time_ns().to_bits(), cold.time_ns().to_bits());
        let _ = std::fs::remove_dir_all(&dir);

        // A variant the sanitizer flags leaves a Race event and drops
        // off the live menu.
        let arch = ArchConfig::kepler_k40c();
        let menu = Menu::for_key(WorkloadKey::argmax());
        let mut screened: Vec<CandidateRaces> =
            (0..menu.len()).filter_map(|c| menu.sanitize(&arch, 1_024, c).unwrap()).collect();
        let racy = gpu_sim::negative_corpus().into_iter().next().unwrap();
        let report = gpu_sim::run_negative(&arch, gpu_sim::ExecMode::default(), &racy).unwrap();
        screened[1].reports = vec![report];
        let (live, jobs) = quarantine_racy(&menu, &screened);
        assert_eq!(jobs.len(), 1);
        assert_eq!((jobs[0].candidate, jobs[0].version.clone()), (1, menu.id(1)));
        assert!(matches!(jobs[0].quarantined, Some(QuarantineReason::Race(_))));
        assert_eq!(live.len(), menu.len() - 1);
        assert_eq!(live.find(&menu.id(1)), None);
    }

    #[test]
    fn sanitized_workload_sweep_is_transparent_on_clean_corpus() {
        let session = Session::new(ArchConfig::kepler_k40c()).eval(EvalOptions::serial());
        let plain = session.run(&Workload::histogram(32, 8_192)).unwrap();
        let plain = plain.as_workload().unwrap();
        let session = Session::new(ArchConfig::kepler_k40c())
            .eval(EvalOptions::serial())
            .sanitized(true);
        let sane = session.run(&Workload::histogram(32, 8_192)).unwrap();
        let sane = sane.as_workload().unwrap();
        let races = sane.races.as_ref().expect("sanitized sweeps record reports");
        assert!(races.iter().all(CandidateRaces::is_clean), "corpus must be race-free");
        assert_eq!(sane.row.variant, plain.row.variant);
        assert_eq!(sane.row.block_size, plain.row.block_size);
        assert_eq!(sane.row.time_ns.to_bits(), plain.row.time_ns.to_bits());
        assert_eq!(sane.value, plain.value);
    }
}
