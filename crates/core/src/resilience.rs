//! Graceful degradation for the variant-evaluation engine.
//!
//! A selection sweep must survive misbehaving variants and transient
//! faults: the paper's claim rests on measuring *many* generated
//! versions and trusting the harness to pick the winner, so one
//! trapping kernel or one injected bit-flip must not invalidate a
//! whole sweep (ROADMAP: production-scale resilience).
//!
//! This module wraps each measurement job of [`crate::evaluate`] in a
//! retry loop:
//!
//! 1. When a [`FaultConfig`] is active, early attempts run under a
//!    per-job, per-attempt derived [`FaultPlan`] and are validated
//!    against the `cpu-ref` oracle on exact (unsampled) execution.
//!    Detected corruption — a trap, a timeout, or an oracle mismatch —
//!    triggers a retry with exponential backoff.
//! 2. The final attempt always runs fault-free, so an accepted
//!    measurement is bit-identical to what the clean engine reports:
//!    injected faults can delay a winner, never alter it.
//! 3. A candidate that still fails on the clean attempt is
//!    **quarantined** with a structured [`QuarantineReason`]; the
//!    sweep continues over the survivors.
//!
//! The outcome is summarized in a [`ResilienceReport`] assembled in
//! canonical job order after the fan-out, so reports (like
//! measurements) are identical for every `--threads` value.

use gpu_sim::exec::BlockSelection;
use gpu_sim::{FaultPlan, SimError};
use serde::Serialize;
use tangram_passes::planner::CodeVersion;

use crate::evaluate::{
    jobs_for, measure_job, run_jobs_with, survivor_mask, ContextPool, EvalOptions, Fidelity, Job,
    Measured, Measurement, SweepMode,
};
use crate::menu::{Menu, Oracle};
use crate::tuner::BenchContext;

/// Deterministic fault-injection campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultConfig {
    /// Master seed; every per-job, per-attempt plan derives from it,
    /// so a campaign replays bit-for-bit from this one value.
    pub seed: u64,
    /// Expected injected faults per million executed instructions.
    pub rate_ppm: u32,
}

/// When measurements are checked against the `cpu-ref` oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationPolicy {
    /// Validate only attempts that run under an active fault plan
    /// (no overhead — and bit-identical results — when faults are
    /// off).
    #[default]
    Auto,
    /// Validate every accepted measurement, faults or not. Catches
    /// genuinely miscompiled variants at the cost of one exact
    /// execution per job.
    Always,
    /// Never validate (timing only).
    Never,
}

/// Retry/quarantine policy for one sweep.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceOptions {
    /// Fault-injection campaign; `None` leaves the simulator clean.
    pub fault: Option<FaultConfig>,
    /// Attempts per job before quarantine (≥ 1). The last attempt
    /// always runs fault-free.
    pub max_attempts: u32,
    /// Base backoff slept between attempts (doubles per retry);
    /// 0 disables sleeping.
    pub backoff_ms: u64,
    /// Oracle-validation policy.
    pub validate: ValidationPolicy,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            fault: None,
            max_attempts: 3,
            backoff_ms: 0,
            validate: ValidationPolicy::Auto,
        }
    }
}

impl ResilienceOptions {
    /// A campaign configuration: inject faults from `seed` at
    /// `rate_ppm`, keeping the default retry policy.
    pub fn campaign(seed: u64, rate_ppm: u32) -> Self {
        ResilienceOptions { fault: Some(FaultConfig { seed, rate_ppm }), ..Self::default() }
    }

    fn needs_oracle(&self) -> bool {
        match self.validate {
            ValidationPolicy::Never => false,
            ValidationPolicy::Always => true,
            ValidationPolicy::Auto => self.fault.is_some(),
        }
    }
}

/// Why a candidate was removed from a sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum QuarantineReason {
    /// The interpreter trapped (illegal instruction/operand, CAS
    /// without comparand, misaligned access).
    Trap(String),
    /// Some warps waited at a barrier the rest never reached.
    BarrierDeadlock(String),
    /// The launch exceeded its instruction budget.
    Timeout(String),
    /// The output disagreed with the `cpu-ref` oracle.
    OracleMismatch {
        /// Summary of the value the variant produced.
        got: String,
        /// Summary of the oracle value.
        expect: String,
    },
    /// The race sanitizer reported shared/global-memory hazards for
    /// the candidate (the payload is the first report's summary line).
    Race(String),
    /// A persisted tuning-store record failed validation (corrupt,
    /// truncated, stale, or no longer confirmable against the live
    /// corpus and oracle); the sweep fell back to a clean full run.
    CacheInvalid(String),
    /// The serve daemon's admission gate shed the request (queue
    /// full, per-tenant cap, or bounded queue wait exceeded); the
    /// payload is the typed busy reason sent back to the client.
    Overload(String),
    /// Any other simulator error (memory fault, malformed kernel, …).
    Sim(String),
    /// Faults were injected on every attempt and the job never
    /// produced a clean measurement (only possible with
    /// `max_attempts == 1`).
    PersistentFaults,
}

fn classify(e: &SimError) -> QuarantineReason {
    match e {
        SimError::Trap { .. } => QuarantineReason::Trap(e.to_string()),
        SimError::BarrierDeadlock { .. } => QuarantineReason::BarrierDeadlock(e.to_string()),
        SimError::Timeout { .. } => QuarantineReason::Timeout(e.to_string()),
        _ => QuarantineReason::Sim(e.to_string()),
    }
}

/// Per-job resilience outcome (only eventful jobs are retained in the
/// report's `events`).
#[derive(Debug, Clone, Serialize)]
pub struct JobReport {
    /// Candidate index in the sweep's candidate slice.
    pub candidate: usize,
    /// Version display string.
    pub version: String,
    /// Block size of this job's tuning.
    pub block_size: u32,
    /// Coarsening factor of this job's tuning.
    pub coarsen: u32,
    /// Attempts executed (1 = clean first try).
    pub attempts: u32,
    /// Faults injected across all attempts.
    pub faults_injected: u64,
    /// Injected faults whose attempt was caught by a trap, timeout,
    /// or oracle mismatch.
    pub faults_detected: u64,
    /// Whether the job ultimately produced an accepted measurement.
    pub measured: bool,
    /// Quarantine reason, when the job was removed.
    pub quarantined: Option<QuarantineReason>,
}

impl JobReport {
    fn eventful(&self) -> bool {
        self.attempts > 1 || self.faults_injected > 0 || self.quarantined.is_some()
    }
}

/// Structured outcome of a resilient sweep.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ResilienceReport {
    /// Jobs enumerated (candidates × tunings).
    pub total_jobs: usize,
    /// Jobs that produced an accepted measurement.
    pub measured: usize,
    /// Jobs skipped as infeasible (synthesis failure / launch
    /// exceeding hardware limits) — same meaning as the clean engine.
    pub infeasible: usize,
    /// Jobs quarantined after exhausting retries.
    pub quarantined: usize,
    /// Retry attempts beyond each job's first.
    pub retries: u64,
    /// Faults injected across the whole sweep.
    pub faults_injected: u64,
    /// Injected faults caught by a trap, timeout, or oracle mismatch.
    pub faults_detected: u64,
    /// Injected faults neutralized by a later clean, accepted
    /// measurement.
    pub faults_recovered: u64,
    /// Feasible jobs a halving sweep dropped without a final
    /// measurement: screened out of the survivor set, or (clean
    /// engine only) abandoned by the bounded rung once a lower bound
    /// on their time exceeded the incumbent. Always 0 under
    /// [`SweepMode::Exhaustive`]. A pruned job is never run to the
    /// end, so it also loses trap detection: a job that would have
    /// trapped after its abort point no longer fails the sweep.
    pub pruned: usize,
    /// Accepted measurements whose final attempt had injected faults
    /// (must stay 0: the engine only accepts fault-free attempts).
    pub silent: u64,
    /// Eventful jobs (retried, faulted, or quarantined) in canonical
    /// order.
    pub events: Vec<JobReport>,
}

impl ResilienceReport {
    /// One-line summary for logs and CI greps.
    pub fn summary_line(&self) -> String {
        format!(
            "resilience: jobs={} measured={} infeasible={} quarantined={} pruned={} \
             retries={} faults={} detected={} recovered={} silent={}",
            self.total_jobs,
            self.measured,
            self.infeasible,
            self.quarantined,
            self.pruned,
            self.retries,
            self.faults_injected,
            self.faults_detected,
            self.faults_recovered,
            self.silent,
        )
    }

    /// Fold another report (e.g. from the next array size of a
    /// figure) into this one.
    pub fn merge(&mut self, other: ResilienceReport) {
        self.total_jobs += other.total_jobs;
        self.measured += other.measured;
        self.infeasible += other.infeasible;
        self.quarantined += other.quarantined;
        self.retries += other.retries;
        self.faults_injected += other.faults_injected;
        self.faults_detected += other.faults_detected;
        self.faults_recovered += other.faults_recovered;
        self.pruned += other.pruned;
        self.silent += other.silent;
        self.events.extend(other.events);
    }

    pub(crate) fn absorb(&mut self, job: JobReport) {
        self.total_jobs += 1;
        if job.measured {
            self.measured += 1;
        } else if job.quarantined.is_some() {
            self.quarantined += 1;
        } else {
            self.infeasible += 1;
        }
        self.retries += u64::from(job.attempts.saturating_sub(1));
        self.faults_injected += job.faults_injected;
        self.faults_detected += job.faults_detected;
        if job.measured {
            self.faults_recovered += job.faults_injected;
        }
        if job.eventful() {
            self.events.push(job);
        }
    }
}

/// Stable per-job salt: a pure function of the job's identity, so the
/// derived fault stream never depends on worker scheduling.
fn job_salt(job: Job) -> u64 {
    ((job.candidate as u64) << 40)
        ^ (u64::from(job.tuning.block_size) << 20)
        ^ u64::from(job.tuning.coarsen)
}

/// Measure one job under the resilience policy. Infallible: hard
/// simulator errors become quarantine entries, never sweep aborts.
fn measure_job_resilient(
    ctx: &mut BenchContext,
    menu: &Menu,
    job: Job,
    res: &ResilienceOptions,
    oracle: Option<&Oracle>,
) -> (Option<Measured>, JobReport) {
    let mut report = JobReport {
        candidate: job.candidate,
        version: menu.id(job.candidate),
        block_size: job.tuning.block_size,
        coarsen: job.tuning.coarsen,
        attempts: 0,
        faults_injected: 0,
        faults_detected: 0,
        measured: false,
        quarantined: None,
    };
    let Ok(kernel) = menu.synthesize(job.candidate, job.tuning) else {
        return (None, report);
    };

    let max_attempts = res.max_attempts.max(1);
    for attempt in 0..max_attempts {
        report.attempts += 1;
        if attempt > 0 && res.backoff_ms > 0 {
            let ms = res.backoff_ms << (attempt - 1).min(16);
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }

        // The last attempt always runs clean so an accepted
        // measurement is never perturbed by injected stalls/flips.
        let last = attempt + 1 == max_attempts;
        let fault_active = res.fault.is_some() && (!last || max_attempts == 1);
        let plan = match (fault_active, res.fault) {
            (true, Some(fc)) => Some(
                FaultPlan::seeded(fc.seed, fc.rate_ppm)
                    .derive(job_salt(job))
                    .derive(u64::from(attempt)),
            ),
            _ => None,
        };
        let validate = oracle.is_some()
            && (fault_active || matches!(res.validate, ValidationPolicy::Always));

        if validate || fault_active {
            // Faulty/validated attempts run on a fresh scratch device:
            // its allocation layout (which fault addresses derive
            // from) is a pure function of `(arch, n)`, never of which
            // jobs a worker happened to run before — and injected
            // corruption dies with the device instead of leaking into
            // the shared timing context.
            let mut vdev = gpu_sim::Device::new(ctx.dev.arch().clone());
            let prep = vdev.alloc_f32(ctx.n).and_then(|input| match oracle {
                Some(o) => vdev.upload_f32(input, &o.data).map(|()| input),
                None => Ok(input),
            });
            let outcome = match prep {
                Ok(input) => {
                    vdev.set_fault_plan(plan);
                    kernel.run(&mut vdev, input, ctx.n, BlockSelection::All)
                }
                Err(e) => Err(e),
            };
            // The log survives errored launches, so faults that
            // caused the failure still count as injected/detected.
            let injected = vdev.take_fault_log().len() as u64;
            report.faults_injected += injected;
            let mismatch = match &outcome {
                Ok(got) => oracle.is_some_and(|o| !o.matches(got)),
                Err(_) => false,
            };
            match outcome {
                Err(SimError::InvalidLaunch(_)) => return (None, report),
                Err(e) => {
                    report.faults_detected += injected;
                    if fault_active {
                        continue; // possibly transient: retry
                    }
                    report.quarantined = Some(classify(&e));
                    break;
                }
                Ok(got) if mismatch => {
                    report.faults_detected += injected;
                    if fault_active {
                        continue; // corruption caught by the oracle: retry
                    }
                    report.quarantined = Some(QuarantineReason::OracleMismatch {
                        got: got.summary(),
                        expect: oracle.map(Oracle::expected).unwrap_or_default(),
                    });
                    break;
                }
                Ok(_) => {
                    if fault_active && injected > 0 {
                        // Correct value, but stalls/storms may have
                        // perturbed timing: only fault-free attempts
                        // are accepted as measurements.
                        if max_attempts == 1 {
                            report.quarantined = Some(QuarantineReason::PersistentFaults);
                            break;
                        }
                        continue;
                    }
                }
            }
        }

        // Clean (or validated-clean) timing measurement — the exact
        // code path of the non-resilient engine.
        match kernel.measure(ctx, Fidelity::Full) {
            Ok(time_ns) => {
                report.measured = true;
                let m = Measured { candidate: job.candidate, tuning: job.tuning, time_ns, kernel };
                return (Some(m), report);
            }
            Err(SimError::InvalidLaunch(_)) => return (None, report),
            Err(e) => {
                // The simulator is deterministic: a clean failure is
                // not transient, so retrying cannot help.
                report.quarantined = Some(classify(&e));
                break;
            }
        }
    }

    if report.quarantined.is_none() && !report.measured {
        report.quarantined = Some(QuarantineReason::PersistentFaults);
    }
    (None, report)
}

/// Outcome of one clean screening measurement under the resilient
/// halving sweep.
#[derive(Debug, Clone, Copy)]
enum Screened {
    /// Screening time (ranks the job for survivor selection).
    Time(f64),
    /// Synthesis failure or a launch exceeding hardware limits.
    Infeasible,
    /// A hard simulator error. The job is promoted straight to the
    /// survivor rung so the retry/quarantine machinery can give it a
    /// structured verdict instead of aborting the screen.
    Errored,
}

/// The engine's resilient rung: every job of `menu`'s sweep under
/// retry, quarantine, and fault-campaign support.
///
/// Returns the canonical job slots (the clean engine's layout;
/// quarantined jobs are `None`) plus the [`ResilienceReport`]. With
/// the default [`ResilienceOptions`] (no faults,
/// [`ValidationPolicy::Auto`]) the measurements are bit-identical to
/// the clean engine's. Validated attempts check the menu's oracle.
///
/// Under [`SweepMode::Halving`] the screening rung always runs
/// *clean* (no fault plan): survivor selection is then a pure
/// function of `(arch, n, candidates)`, so a fault campaign prunes
/// exactly the jobs the clean engine prunes and can never smuggle a
/// different winner through a perturbed screen.
///
/// # Errors
///
/// Only context-pool allocation failures abort; per-job simulator
/// errors are quarantined instead.
pub(crate) fn evaluate_resilient(
    pool: &ContextPool,
    menu: &Menu,
    opts: &EvalOptions,
    res: &ResilienceOptions,
) -> Result<(Vec<Option<Measured>>, ResilienceReport), SimError> {
    let jobs = jobs_for(menu);
    let oracle = if res.needs_oracle() { Some(menu.oracle(pool.n())) } else { None };
    let oracle = oracle.as_ref();
    let mut report = ResilienceReport::default();

    // Pick the jobs the resilient rung measures. Exhaustive: all of
    // them. Halving: the survivors of a clean, error-tolerant screen.
    let rung: Vec<usize> = match opts.sweep {
        SweepMode::Exhaustive => (0..jobs.len()).collect(),
        SweepMode::Halving => {
            let screen = run_jobs_with(pool, &jobs, opts.threads, &|ctx, job| {
                Ok(match measure_job(ctx, menu, job, Fidelity::Screen) {
                    Ok(Some(m)) => Screened::Time(m.time_ns),
                    Ok(None) => Screened::Infeasible,
                    Err(_) => Screened::Errored,
                })
            })?;
            let times: Vec<Option<f64>> = screen
                .iter()
                .map(|s| match s {
                    Screened::Time(t) => Some(*t),
                    _ => None,
                })
                .collect();
            let cand_of: Vec<usize> = jobs.iter().map(|j| j.candidate).collect();
            let mut keep = survivor_mask(&cand_of, &times);
            for (i, s) in screen.iter().enumerate() {
                match s {
                    Screened::Errored => keep[i] = true,
                    Screened::Time(_) | Screened::Infeasible => {}
                }
            }
            // Screened-out jobs never reach the resilient rung; they
            // are accounted here so `total_jobs` still covers the
            // whole canonical enumeration.
            for (i, s) in screen.iter().enumerate() {
                if keep[i] {
                    continue;
                }
                report.total_jobs += 1;
                match s {
                    Screened::Infeasible => report.infeasible += 1,
                    _ => report.pruned += 1,
                }
            }
            (0..jobs.len()).filter(|&i| keep[i]).collect()
        }
    };

    let rung_jobs: Vec<Job> = rung.iter().map(|&i| jobs[i]).collect();
    let outcomes = run_jobs_with(pool, &rung_jobs, opts.threads, &|ctx, job| {
        Ok(measure_job_resilient(ctx, menu, job, res, oracle))
    })?;

    let mut measurements: Vec<Option<Measured>> = Vec::new();
    measurements.resize_with(jobs.len(), || None);
    for (i, (m, r)) in rung.into_iter().zip(outcomes) {
        measurements[i] = m;
        report.absorb(r);
    }
    Ok((measurements, report))
}

/// A resilient sweep over an explicit `sum-f32` candidate list, in
/// the public [`Measurement`] shape: the engine's resilient rung
/// ([`crate::Session::resilience`]) on the reduction menu.
///
/// # Errors
///
/// Only context-pool allocation failures abort; per-job simulator
/// errors are quarantined instead.
pub fn evaluate_all_report(
    pool: &ContextPool,
    candidates: &[CodeVersion],
    opts: &EvalOptions,
    res: &ResilienceOptions,
) -> Result<(Vec<Option<Measurement>>, ResilienceReport), SimError> {
    let (results, report) = evaluate_resilient(pool, &Menu::of_versions(candidates), opts, res)?;
    Ok((results.into_iter().map(|m| m.and_then(Measured::into_measurement)).collect(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{evaluate, first_fastest};
    use gpu_sim::ArchConfig;
    use tangram_passes::planner;

    fn menu() -> Menu {
        let cands: Vec<CodeVersion> = planner::fig6_best()
            .into_iter()
            .take(4)
            .map(|l| planner::fig6_by_label(l).unwrap())
            .collect();
        Menu::of_versions(&cands)
    }

    fn assert_same_slots(a: &[Option<Measured>], b: &[Option<Measured>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => assert_eq!(x.time_ns.to_bits(), y.time_ns.to_bits()),
                _ => panic!("feasibility or survivor set differs"),
            }
        }
    }

    /// `clean` comes from the clean halving engine over `n` elements,
    /// `resilient` from the resilient rung's halving. The clean engine
    /// ranks only sampled jobs but keeps as many as a ranking of every
    /// job would, so it measures every sampled job `resilient` does;
    /// its bounded rung leaves an exact-regime job unmeasured only once
    /// it provably loses. Every job both measured is bit-identical.
    fn assert_agrees_with_bounded(
        n: u64,
        clean: &[Option<Measured>],
        resilient: &[Option<Measured>],
    ) {
        assert_eq!(clean.len(), resilient.len());
        let winner = first_fastest(clean, |m| m.time_ns).unwrap().time_ns;
        for (x, y) in clean.iter().zip(resilient) {
            match (x, y) {
                (Some(x), Some(y)) => assert_eq!(x.time_ns.to_bits(), y.time_ns.to_bits()),
                (None, Some(y)) => {
                    assert!(
                        BenchContext::exact_regime(y.kernel.grid(n)),
                        "a sampled survivor went unmeasured"
                    );
                    assert!(y.time_ns > winner, "a winner-beating job went unmeasured");
                }
                _ => {}
            }
        }
        assert_same_winner(clean, resilient);
    }

    fn assert_same_winner(a: &[Option<Measured>], b: &[Option<Measured>]) {
        let a = first_fastest(a, |m| m.time_ns).unwrap();
        let b = first_fastest(b, |m| m.time_ns).unwrap();
        assert_eq!(a.candidate, b.candidate, "fault campaign must not change the winner");
        assert_eq!(a.tuning, b.tuning);
        assert_eq!(a.time_ns.to_bits(), b.time_ns.to_bits());
    }

    #[test]
    fn default_policy_matches_clean_engine_bitwise() {
        // The whole pruned corpus in both sweep modes: exhaustive slots
        // match exactly; the resilient rung's own halving screen keeps
        // the survivors the clean engine keeps or provably beats.
        let arch = ArchConfig::maxwell_gtx980();
        let menu = Menu::of_versions(&planner::enumerate_pruned());
        let pool = ContextPool::new(&arch, 16_384);
        for sweep in [SweepMode::Exhaustive, SweepMode::Halving] {
            let opts = EvalOptions::default().with_sweep(sweep);
            let (clean, _) = evaluate(&pool, &menu, &opts).unwrap();
            let (resilient, report) =
                evaluate_resilient(&pool, &menu, &opts, &ResilienceOptions::default()).unwrap();
            match sweep {
                SweepMode::Exhaustive => assert_same_slots(&clean, &resilient),
                SweepMode::Halving => assert_agrees_with_bounded(16_384, &clean, &resilient),
            }
            assert_eq!(report.measured, resilient.iter().flatten().count());
            assert_eq!(report.total_jobs, clean.len());
            assert_eq!(report.quarantined, 0);
            assert_eq!(report.faults_injected, 0);
            assert_eq!(report.silent, 0);
            assert_eq!(report.retries, 0);
        }
    }

    #[test]
    fn fault_campaign_recovers_and_keeps_winner() {
        let arch = ArchConfig::kepler_k40c();
        let menu = menu();
        let pool = ContextPool::new(&arch, 8_192);
        let opts = EvalOptions::serial();
        let (clean, _) = evaluate(&pool, &menu, &opts).unwrap();
        let res = ResilienceOptions::campaign(0xC0FFEE, 500);
        let (faulty, report) = evaluate_resilient(&pool, &menu, &opts, &res).unwrap();
        assert!(report.faults_injected > 0, "campaign must inject faults");
        assert_eq!(report.silent, 0, "accepted measurements must be fault-free");
        assert_eq!(report.quarantined, 0, "clean retries must recover the corpus");
        assert_eq!(
            report.faults_recovered,
            report.faults_injected,
            "every injected fault is recovered by a clean retry: {}",
            report.summary_line()
        );
        assert_same_winner(&clean, &faulty);
    }

    #[test]
    fn halving_campaign_prunes_and_keeps_winner() {
        let arch = ArchConfig::maxwell_gtx980();
        // A reduce menu (tolerant oracle) and a variant menu (exact
        // oracle over the segsum corpus).
        let segsum = tangram_passes::workload::WorkloadKey::segsum(
            tangram_passes::workload::Dtype::F32,
        );
        for (menu, n) in [(menu(), 16_384), (Menu::for_key(segsum), 4_096)] {
            let pool = ContextPool::new(&arch, n);
            let opts = EvalOptions::serial().with_sweep(SweepMode::Halving);
            let (clean, _) = evaluate(&pool, &menu, &opts).unwrap();
            let (fault_free, fault_free_report) =
                evaluate_resilient(&pool, &menu, &opts, &ResilienceOptions::default()).unwrap();
            let res = ResilienceOptions::campaign(0xBEEF, 400);
            let (faulty, report) = evaluate_resilient(&pool, &menu, &opts, &res).unwrap();
            assert!(report.pruned > 0, "halving campaign must prune: {}", report.summary_line());
            assert_eq!(report.total_jobs, jobs_for(&menu).len(), "every job is accounted");
            assert!(report.faults_detected > 0, "the oracle must catch corruption");
            assert_eq!(report.silent, 0);
            // The clean screen makes the survivor sets identical to the
            // fault-free resilient halving sweep's.
            assert_same_slots(&fault_free, &faulty);
            assert_eq!(report.measured, fault_free_report.measured);
            assert_eq!(report.pruned, fault_free_report.pruned);
            assert_agrees_with_bounded(n, &clean, &faulty);
        }
    }

    #[test]
    fn same_seed_same_report_across_threads() {
        let arch = ArchConfig::maxwell_gtx980();
        let menu = menu();
        let pool = ContextPool::new(&arch, 4_096);
        let res = ResilienceOptions::campaign(42, 300);
        let (m1, r1) = evaluate_resilient(&pool, &menu, &EvalOptions::serial(), &res).unwrap();
        let (m2, r2) =
            evaluate_resilient(&pool, &menu, &EvalOptions::with_threads(4), &res).unwrap();
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "report depends on thread count");
        assert_same_slots(&m1, &m2);
    }
}
