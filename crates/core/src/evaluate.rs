//! The parallel variant-evaluation engine.
//!
//! A selection sweep measures every candidate `(version, block_size,
//! coarsen)` triple under the cost model. The measurements are
//! independent — each runs on its own simulated device — so this
//! module fans them out over a scoped worker pool: a shared atomic
//! work index hands out jobs in the **canonical enumeration order**
//! (candidate-major, then [`BLOCK_SIZES`], then the version's coarsen
//! options), each worker owns a [`BenchContext`] checked out of a
//! reusable pool, and results land in per-job slots.
//!
//! ## Determinism
//!
//! Thread count never changes the answer. Each measurement is a pure
//! function of `(arch, n, version, tuning)` — the simulator has no
//! global state and synthesis is cached but pure — and the winner is
//! reduced *after* the fan-out by walking the job slots in canonical
//! order with a strict `<` comparison, exactly the serial loop's
//! tie-break (earliest candidate wins ties). `threads = 1` and
//! `threads = N` therefore produce bit-identical winners and times.
//!
//! ## Successive halving
//!
//! [`SweepMode::Halving`] replaces the exhaustive full-fidelity sweep
//! with rungs over two statically split sets of jobs. A job whose
//! plan's grid is small enough that every fidelity runs every block
//! ([`BenchContext::exact_regime`]) is *exact-regime*; every other job
//! is *sampled*.
//!
//! - The *screening* rung measures every sampled job with a minimal
//!   sampled launch ([`BenchContext::measure_screen`]) — cheap,
//!   deterministic, and monotone enough to rank tunings. The
//!   *survivor* rung re-measures only the strongest screened jobs (the
//!   top eighth, counted over every job, plus every candidate's own
//!   sampled screen-best) at the normal fidelity.
//! - The *bounded* rung measures each exact-regime job once, at full
//!   fidelity, and abandons it as soon as a proven lower bound on its
//!   time ([`gpu_sim::launch_lower_bound`]) strictly exceeds the
//!   fastest full-fidelity time so far. The incumbent only falls
//!   between canonical-order chunks of a fixed size, so the
//!   abandoned set does not depend on the thread count.
//!
//! Every measurement that completes goes through the exact code path
//! of the exhaustive sweep, so any job measured — in particular the
//! winner — carries a bit-identical `time_ns`; pruned jobs simply
//! report `None`, like infeasible ones. A job abandoned by the bound
//! provably ends slower than one already measured, so it can neither
//! win nor tie.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{ArchConfig, ExecMode, SimError};
use parking_lot::Mutex;
use serde::Serialize;
use tangram_codegen::{SynthesizedVersion, Tuning};
use tangram_passes::planner::{BlockOp, CodeVersion};

use crate::menu::{Kernel, Menu};
use crate::tuner::{BenchContext, BLOCK_SIZES, COARSEN};

/// How a sweep explores the tuning space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Measure every job at full fidelity (the seed behavior, and the
    /// library default).
    #[default]
    Exhaustive,
    /// Successive halving: screen every sampled job with a minimal
    /// sampled launch and re-measure only the survivors (top eighth
    /// plus each candidate's screen-best) at full fidelity; measure
    /// every exact-regime job once, abandoning it when a lower bound
    /// on its time beats the fastest time so far. Pruned jobs report
    /// `None`; measured jobs are bit-identical to the exhaustive
    /// sweep's.
    Halving,
}

impl SweepMode {
    /// Canonical identifier, the inverse of the [`std::str::FromStr`] parse
    /// (`exhaustive` / `halving`).
    pub fn id(self) -> &'static str {
        match self {
            SweepMode::Exhaustive => "exhaustive",
            SweepMode::Halving => "halving",
        }
    }
}

impl std::str::FromStr for SweepMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exhaustive" => Ok(SweepMode::Exhaustive),
            "halving" => Ok(SweepMode::Halving),
            other => Err(format!("unknown sweep mode `{other}` (want exhaustive|halving)")),
        }
    }
}

/// A warm-start hint for a halving sweep: a `(candidate, tuning)` job
/// believed (not trusted) to be the winner — typically the nearest
/// cached n-bucket's record from the tuning store.
///
/// A seeded halving sweep still screens every job, but its survivor
/// rung starts from just each candidate's screen-best plus the seed
/// job, skipping the global top-eighth tier. If the seed then fails
/// to reproduce as the full-fidelity winner of that reduced set, the
/// sweep falls back and measures the rest of the normal survivor set
/// — so a stale or wrong seed costs one extra partial rung, never a
/// different winner. See
/// [`TuningStore::load_nearest`](crate::store::TuningStore::load_nearest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedHint {
    /// Index of the hinted winner in the sweep's candidate list.
    pub candidate: usize,
    /// The hinted winning tuning.
    pub tuning: Tuning,
}

/// How a sweep distributes and scopes its measurements.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Worker threads. `1` measures on the calling thread; larger
    /// values spawn a scoped pool. Clamped to at least 1.
    pub threads: usize,
    /// Search strategy over the tuning space.
    pub sweep: SweepMode,
    /// Interpreter hot path for the measurement devices (the
    /// predecoded µop engine by default; the lane-wise reference path
    /// is kept for A/B timing and differential tests).
    pub interp: ExecMode,
    /// Per-block dynamic instruction budget override for the
    /// measurement devices; `None` keeps the device default.
    pub instr_budget: Option<u64>,
    /// Warm-start hint for [`SweepMode::Halving`]: shrink the survivor
    /// rung around this job (see [`SeedHint`]). Ignored by exhaustive
    /// sweeps and by the resilient engine, and ignored when the hint
    /// names a job outside the sweep space.
    pub seed: Option<SeedHint>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            threads: default_threads(),
            sweep: SweepMode::default(),
            interp: ExecMode::default(),
            instr_budget: None,
            seed: None,
        }
    }
}

impl EvalOptions {
    /// Measure everything on the calling thread (the seed behavior).
    pub fn serial() -> Self {
        EvalOptions { threads: 1, ..Self::default() }
    }

    /// Use exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        EvalOptions { threads: threads.max(1), ..Self::default() }
    }

    /// Select the sweep strategy.
    #[must_use]
    pub fn with_sweep(mut self, sweep: SweepMode) -> Self {
        self.sweep = sweep;
        self
    }

    /// Select the interpreter hot path.
    #[must_use]
    pub fn with_interp(mut self, interp: ExecMode) -> Self {
        self.interp = interp;
        self
    }

    /// Override the per-block instruction budget.
    #[must_use]
    pub fn with_instr_budget(mut self, budget: Option<u64>) -> Self {
        self.instr_budget = budget;
        self
    }

    /// Warm-start a halving sweep from a [`SeedHint`].
    #[must_use]
    pub fn with_seed(mut self, seed: Option<SeedHint>) -> Self {
        self.seed = seed;
        self
    }
}

/// The host's available parallelism (1 if it cannot be queried).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The coarsening factors the sweep tries for `version`: cooperative
/// block codelets take no coarsening, compound ones sweep [`COARSEN`].
pub fn coarsen_options(version: CodeVersion) -> &'static [u32] {
    match version.block {
        BlockOp::Coop(_) => &[1],
        _ => &COARSEN,
    }
}

/// One completed measurement of a reduction sweep (the shape
/// [`crate::resilience::evaluate_all_report`] reports).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Index of the version in the candidate slice.
    pub candidate: usize,
    /// The measured version.
    pub version: CodeVersion,
    /// The tuning it ran with.
    pub tuning: Tuning,
    /// Modelled time (ns).
    pub time_ns: f64,
    /// The synthesized kernels (shared with the synthesis cache).
    pub synthesized: Arc<SynthesizedVersion>,
}

/// One completed measurement of any menu's sweep.
#[derive(Debug, Clone)]
pub(crate) struct Measured {
    pub(crate) candidate: usize,
    pub(crate) tuning: Tuning,
    pub(crate) time_ns: f64,
    pub(crate) kernel: Kernel,
}

impl Measured {
    /// The public reduction view; `None` for variant kernels.
    pub(crate) fn into_measurement(self) -> Option<Measurement> {
        match self.kernel {
            Kernel::Reduce(sv) => Some(Measurement {
                candidate: self.candidate,
                version: sv.version,
                tuning: self.tuning,
                time_ns: self.time_ns,
                synthesized: sv,
            }),
            Kernel::Workload(_) => None,
        }
    }
}

/// One job of a sweep: a menu candidate at one tuning.
#[derive(Clone, Copy)]
pub(crate) struct Job {
    pub(crate) candidate: usize,
    pub(crate) tuning: Tuning,
}

/// The canonical job enumeration: candidate-major, then
/// [`BLOCK_SIZES`], then the candidate's coarsening factors.
pub(crate) fn jobs_for(menu: &Menu) -> Vec<Job> {
    let mut jobs = Vec::new();
    for candidate in 0..menu.len() {
        for &block_size in &BLOCK_SIZES {
            for &coarsen in menu.coarsen(candidate) {
                jobs.push(Job { candidate, tuning: Tuning { block_size, coarsen } });
            }
        }
    }
    jobs
}

/// Measurement fidelity of one fan-out rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fidelity {
    /// The normal sampled measurement ([`BenchContext::measure`]).
    Full,
    /// The halving screen ([`BenchContext::measure_screen`]).
    Screen,
}

/// Measure one job; `Ok(None)` marks an infeasible combination
/// (synthesis failure or a launch exceeding hardware limits).
pub(crate) fn measure_job(
    ctx: &mut BenchContext,
    menu: &Menu,
    job: Job,
    fidelity: Fidelity,
) -> Result<Option<Measured>, SimError> {
    let Ok(kernel) = menu.synthesize(job.candidate, job.tuning) else {
        return Ok(None);
    };
    match kernel.measure(ctx, fidelity) {
        Ok(time_ns) => {
            Ok(Some(Measured { candidate: job.candidate, tuning: job.tuning, time_ns, kernel }))
        }
        Err(SimError::InvalidLaunch(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Wall-clock and job accounting for one fan-out rung of a sweep.
///
/// Observability only: `wall_ms` is host wall-clock (nondeterministic
/// across runs and machines) and must never enter determinism-checked
/// output — the job counts, by contrast, are identical for any thread
/// count.
#[derive(Debug, Clone, Serialize)]
pub struct RungStats {
    /// Rung name: `"full"` (exhaustive); `"screen"`, `"seeded"`,
    /// `"survivor"` and `"bounded"` (halving: screen and survivor over
    /// the sampled jobs, seeded over each candidate's sampled
    /// screen-best plus the seed job, bounded over the remaining
    /// exact-regime jobs); or `"resilient"` (retry/quarantine sweeps,
    /// timed as one rung).
    pub rung: String,
    /// Jobs dispatched to this rung.
    pub jobs: usize,
    /// Jobs that produced a measurement at this rung's fidelity.
    pub measured: usize,
    /// Feasible jobs this rung dropped without a final measurement:
    /// for `"screen"`, sampled jobs ranked out of the survivor set; for
    /// `"bounded"`, jobs abandoned once a lower bound on their time
    /// exceeded the incumbent. 0 for every other rung.
    pub pruned: usize,
    /// Wall-clock time of the rung in milliseconds.
    pub wall_ms: f64,
}

impl RungStats {
    pub(crate) fn tally<T>(rung: &str, jobs: usize, results: &[Option<T>], t0: Instant) -> Self {
        RungStats {
            rung: rung.to_string(),
            jobs,
            measured: results.iter().flatten().count(),
            pruned: 0,
            wall_ms: elapsed_ms(t0),
        }
    }
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A checkout pool of [`BenchContext`]s for one `(arch, n)` sweep.
///
/// Workers acquire a context for their lifetime and return it on
/// exit, so a pool that outlives one sweep (e.g.
/// across the candidate batches of a figure) amortizes the device and
/// input allocations instead of repaying them per batch.
#[derive(Debug)]
pub struct ContextPool {
    arch: ArchConfig,
    n: u64,
    exec_mode: ExecMode,
    instr_budget: Option<u64>,
    free: Mutex<Vec<BenchContext>>,
}

impl ContextPool {
    /// A pool producing contexts for arrays of `n` elements on `arch`.
    pub fn new(arch: &ArchConfig, n: u64) -> Self {
        ContextPool {
            arch: arch.clone(),
            n,
            exec_mode: ExecMode::default(),
            instr_budget: None,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Start building a pool for arrays of `n` elements on `arch`
    /// (the one way to assemble a configured pool — mirrors
    /// [`gpu_sim::exec::ExecConfig::builder`]).
    pub fn builder(arch: &ArchConfig, n: u64) -> ContextPoolBuilder {
        ContextPoolBuilder {
            arch: arch.clone(),
            n,
            exec_mode: ExecMode::default(),
            instr_budget: None,
        }
    }

    /// Check a context out, allocating only when the pool is empty.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors from [`BenchContext::new`].
    pub fn acquire(&self) -> Result<BenchContext, SimError> {
        let mut ctx = match self.free.lock().pop() {
            Some(ctx) => ctx,
            None => BenchContext::new(&self.arch, self.n)?,
        };
        ctx.dev.set_exec_mode(self.exec_mode);
        if let Some(budget) = self.instr_budget {
            ctx.dev.set_instr_budget(budget);
        }
        Ok(ctx)
    }

    /// Return a context for reuse.
    pub fn release(&self, ctx: BenchContext) {
        self.free.lock().push(ctx);
    }

    /// The array size (elements) this pool's contexts measure.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The architecture this pool's contexts simulate.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The interpreter hot path stamped on checked-out contexts.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }
}

/// Builder for [`ContextPool`] (see [`ContextPool::builder`]).
#[derive(Debug)]
pub struct ContextPoolBuilder {
    arch: ArchConfig,
    n: u64,
    exec_mode: ExecMode,
    instr_budget: Option<u64>,
}

impl ContextPoolBuilder {
    /// Select the interpreter hot path stamped on checked-out
    /// contexts.
    #[must_use]
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Override the per-block instruction budget stamped on
    /// checked-out contexts (`None` keeps the device default).
    #[must_use]
    pub fn instr_budget(mut self, budget: Option<u64>) -> Self {
        self.instr_budget = budget;
        self
    }

    /// Adopt the interpreter and budget settings of an
    /// [`EvalOptions`].
    #[must_use]
    pub fn opts(self, opts: &EvalOptions) -> Self {
        self.exec_mode(opts.interp).instr_budget(opts.instr_budget)
    }

    /// Finish building the pool.
    pub fn build(self) -> ContextPool {
        ContextPool {
            arch: self.arch,
            n: self.n,
            exec_mode: self.exec_mode,
            instr_budget: self.instr_budget,
            free: Mutex::new(Vec::new()),
        }
    }
}

/// Fan `jobs` over `threads` workers, applying `f` to each with a
/// pooled context. This is the one scheduling core every rung
/// (exhaustive, screening, survivor, resilient) shares: a shared
/// atomic index hands jobs out in canonical order, results land in
/// per-job slots, and the first hard error (by canonical index)
/// aborts — exactly what the serial loop would have reported.
pub(crate) fn run_jobs_with<J, T, F>(
    pool: &ContextPool,
    jobs: &[J],
    threads: usize,
    f: &F,
) -> Result<Vec<T>, SimError>
where
    J: Copy + Sync,
    T: Send,
    F: Fn(&mut BenchContext, J) -> Result<T, SimError> + Sync,
{
    let threads = threads.max(1).min(jobs.len().max(1));

    if threads <= 1 {
        let mut ctx = pool.acquire()?;
        let mut out = Vec::with_capacity(jobs.len());
        for &job in jobs {
            out.push(f(&mut ctx, job)?);
        }
        pool.release(ctx);
        return Ok(out);
    }

    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let results = Mutex::new(slots);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // First hard error by canonical job index. Claims are handed out
    // in index order, so every job before an erroring one was claimed
    // (and ran to completion) — the minimum recorded index is the
    // same job the serial loop would have failed on.
    let first_err: Mutex<Option<(usize, SimError)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut ctx = match pool.acquire() {
                    Ok(ctx) => ctx,
                    Err(e) => {
                        record_err(&first_err, 0, e);
                        abort.store(true, Ordering::Relaxed);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() || abort.load(Ordering::Relaxed) {
                        break;
                    }
                    match f(&mut ctx, jobs[i]) {
                        Ok(v) => results.lock()[i] = Some(v),
                        Err(e) => {
                            record_err(&first_err, i, e);
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                pool.release(ctx);
            });
        }
    });

    if let Some((_, e)) = first_err.into_inner() {
        return Err(e);
    }
    // No error ⇒ every slot was claimed and filled.
    Ok(results.into_inner().into_iter().map(|s| s.expect("job slot filled")).collect())
}

/// Denominator of the halving keep fraction: the survivor rung
/// re-measures the global top `1/HALVING_KEEP_DENOM` of screened jobs
/// (plus each candidate's screen-best).
const HALVING_KEEP_DENOM: usize = 8;

/// Exact-regime jobs run in canonical-order chunks of this many, and
/// the incumbent falls only between chunks, so which jobs the bound
/// prunes does not depend on the thread count.
const BOUND_CHUNK: usize = 8;

/// Keep mask of every candidate's own screen-best job, so each
/// candidate's tuning winner reaches full fidelity. `candidates[i]`
/// is job `i`'s candidate index. Ties break toward the earlier
/// canonical index, matching [`best_measurement`].
pub(crate) fn candidate_best_mask(
    candidates: &[usize],
    screen_times: &[Option<f64>],
) -> Vec<bool> {
    let mut keep = vec![false; candidates.len()];
    let n_candidates = candidates.iter().map(|&c| c + 1).max().unwrap_or(0);
    let mut best_per: Vec<Option<(f64, usize)>> = vec![None; n_candidates];
    for (i, t) in screen_times.iter().enumerate() {
        if let Some(t) = *t {
            let slot = &mut best_per[candidates[i]];
            if slot.is_none_or(|(bt, _)| t < bt) {
                *slot = Some((t, i));
            }
        }
    }
    for (_, i) in best_per.into_iter().flatten() {
        keep[i] = true;
    }
    keep
}

/// Canonical-order keep mask for the survivor rung: the global top
/// eighth of screened times plus every candidate's own screen-best
/// ([`candidate_best_mask`]).
pub(crate) fn survivor_mask(candidates: &[usize], screen_times: &[Option<f64>]) -> Vec<bool> {
    let screened = screen_times.iter().flatten().count();
    top_mask(candidates, screen_times, screened.div_ceil(HALVING_KEEP_DENOM))
}

/// The `keep` fastest screened jobs plus every candidate's own
/// screen-best.
fn top_mask(candidates: &[usize], screen_times: &[Option<f64>], keep: usize) -> Vec<bool> {
    let mut scored: Vec<(f64, usize)> = screen_times
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (t, i)))
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut mask = candidate_best_mask(candidates, screen_times);
    for &(_, i) in scored.iter().take(keep) {
        mask[i] = true;
    }
    mask
}

/// The jobs at `indices`.
fn pick(jobs: &[Job], indices: &[usize]) -> Vec<Job> {
    indices.iter().map(|&i| jobs[i]).collect()
}

/// Measure `indices` into `jobs` at full fidelity as one rung,
/// scattering the results back into the full-length slot vector.
fn full_rung(
    rung: &str,
    pool: &ContextPool,
    menu: &Menu,
    jobs: &[Job],
    indices: &[usize],
    threads: usize,
    out: &mut [Option<Measured>],
) -> Result<RungStats, SimError> {
    let t0 = Instant::now();
    let full = run_jobs_with(pool, &pick(jobs, indices), threads, &|ctx, job| {
        measure_job(ctx, menu, job, Fidelity::Full)
    })?;
    let stats = RungStats::tally(rung, indices.len(), &full, t0);
    for (&i, m) in indices.iter().zip(full) {
        out[i] = m;
    }
    Ok(stats)
}

/// What one exact-regime job came to under the incumbent.
enum Bounded {
    Measured(Measured),
    Infeasible,
    /// Abandoned: a lower bound on its time beat the incumbent.
    Pruned,
}

/// Measure `job` at full fidelity, abandoning it as soon as a proven
/// lower bound on its time strictly exceeds `incumbent_ns` (see
/// [`gpu_sim::Device::set_ceiling`]). A measured job's time is
/// bit-identical to an unbounded measurement's.
fn measure_bounded(
    ctx: &mut BenchContext,
    menu: &Menu,
    job: Job,
    incumbent_ns: Option<f64>,
) -> Result<Bounded, SimError> {
    ctx.dev.set_ceiling(incumbent_ns);
    let measured = measure_job(ctx, menu, job, Fidelity::Full);
    ctx.dev.set_ceiling(None);
    match measured {
        Ok(Some(m)) => Ok(Bounded::Measured(m)),
        Ok(None) => Ok(Bounded::Infeasible),
        Err(SimError::CeilingExceeded { .. }) => Ok(Bounded::Pruned),
        Err(e) => Err(e),
    }
}

/// The successive-halving sweep.
///
/// Jobs split statically by regime. A job whose plan's grid is small
/// enough that even the screen runs every block
/// ([`BenchContext::exact_regime`]) is *exact-regime*: its screen
/// would equal its full measurement, so it is measured once, in the
/// bounded rung. Every other job is *sampled* and takes the screen
/// and survivor rungs; the survivor rung keeps the global top eighth
/// counted over every job that synthesized (so never fewer than a
/// sweep ranking all jobs together would keep) plus each candidate's
/// sampled screen-best.
///
/// With a resolved `seed` (a job index), the survivor rung starts
/// reduced — each candidate's sampled screen-best plus the seed job —
/// and the global top-eighth tier is measured only if the seed fails
/// to reproduce as the winner of the reduced set.
///
/// The bounded rung then runs the exact-regime jobs in canonical
/// order, in chunks of [`BOUND_CHUNK`], against the fastest
/// full-fidelity time so far (the incumbent), abandoning each job as
/// soon as a lower bound on its time strictly exceeds it. An abandoned
/// job provably loses, and ties still fall to the canonical order.
fn evaluate_halving(
    pool: &ContextPool,
    menu: &Menu,
    jobs: &[Job],
    threads: usize,
    seed: Option<usize>,
) -> Result<(Vec<Option<Measured>>, Vec<RungStats>), SimError> {
    let n = pool.n();
    // `None`: the job does not synthesize (infeasible in either regime).
    // Synthesis fans out over the workers, as it does inside a rung.
    let grids: Vec<Option<u32>> = run_jobs_with(pool, jobs, threads, &|_, job| {
        Ok(menu.synthesize(job.candidate, job.tuning).ok().map(|k| k.grid(n)))
    })?;
    let exact: Vec<bool> =
        grids.iter().map(|g| g.is_none_or(BenchContext::exact_regime)).collect();
    let sampled: Vec<usize> = (0..jobs.len()).filter(|&i| !exact[i]).collect();

    let t0 = Instant::now();
    let screen = run_jobs_with(pool, &pick(jobs, &sampled), threads, &|ctx, job| {
        measure_job(ctx, menu, job, Fidelity::Screen)
    })?;
    let mut rungs = vec![RungStats::tally("screen", sampled.len(), &screen, t0)];
    let mut times: Vec<Option<f64>> = vec![None; jobs.len()];
    for (&i, m) in sampled.iter().zip(&screen) {
        times[i] = m.as_ref().map(|m| m.time_ns);
    }
    let cand_of: Vec<usize> = jobs.iter().map(|j| j.candidate).collect();

    let mut out: Vec<Option<Measured>> = Vec::new();
    out.resize_with(jobs.len(), || None);
    // Jobs already measured at full fidelity.
    let mut done = vec![false; jobs.len()];
    let mut confirmed = false;
    if let Some(si) = seed {
        done = candidate_best_mask(&cand_of, &times);
        done[si] = true;
        let seeded: Vec<usize> = (0..jobs.len()).filter(|&i| done[i]).collect();
        rungs.push(full_rung("seeded", pool, menu, jobs, &seeded, threads, &mut out)?);
        confirmed = first_fastest(&out, |m| m.time_ns).is_some_and(|m| {
            m.candidate == jobs[si].candidate && m.tuning == jobs[si].tuning
        });
    }
    if !confirmed {
        // The hint did not hold up (or there was none): measure
        // whatever the full survivor rung keeps that is not done yet.
        let synthesized = times.iter().flatten().count()
            + (0..jobs.len()).filter(|&i| exact[i] && grids[i].is_some()).count();
        let keep = top_mask(&cand_of, &times, synthesized.div_ceil(HALVING_KEEP_DENOM));
        let surviving: Vec<usize> = (0..jobs.len()).filter(|&i| keep[i] && !done[i]).collect();
        rungs.push(full_rung("survivor", pool, menu, jobs, &surviving, threads, &mut out)?);
        for &i in &surviving {
            done[i] = true;
        }
    }
    rungs[0].pruned = sampled.iter().filter(|&&i| times[i].is_some() && !done[i]).count();

    let t1 = Instant::now();
    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| exact[i] && !done[i]).collect();
    let mut bounded = RungStats {
        rung: "bounded".to_string(),
        jobs: pending.len(),
        measured: 0,
        pruned: 0,
        wall_ms: 0.0,
    };
    let mut incumbent = first_fastest(&out, |m| m.time_ns).map(|m| m.time_ns);
    for chunk in pending.chunks(BOUND_CHUNK) {
        let results = run_jobs_with(pool, &pick(jobs, chunk), threads, &|ctx, job| {
            measure_bounded(ctx, menu, job, incumbent)
        })?;
        for (&i, r) in chunk.iter().zip(results) {
            match r {
                Bounded::Measured(m) => {
                    bounded.measured += 1;
                    incumbent = Some(incumbent.map_or(m.time_ns, |t| t.min(m.time_ns)));
                    out[i] = Some(m);
                }
                Bounded::Pruned => bounded.pruned += 1,
                Bounded::Infeasible => {}
            }
        }
    }
    bounded.wall_ms = elapsed_ms(t1);
    rungs.push(bounded);
    Ok((out, rungs))
}

/// Measure every job of `menu`'s sweep, fanning jobs over
/// `opts.threads` workers, plus one [`RungStats`] per fan-out rung
/// (one for exhaustive sweeps; screen, optionally seeded, survivor
/// unless a seed confirmed, and bounded for halving).
///
/// The returned vector has one slot per job in canonical enumeration
/// order; `None` marks infeasible combinations (and, under
/// [`SweepMode::Halving`], jobs pruned at the screen or by the
/// bound). The
/// slot layout (and every value in it) is identical for any thread
/// count; every `Some` slot is a full-fidelity measurement. Only the
/// wall-clock fields of the stats are nondeterministic.
///
/// # Errors
///
/// Propagates the first hard simulator error in canonical job order.
/// Infeasible jobs ([`SimError::InvalidLaunch`] and synthesis
/// failures) are recorded as `None`, not errors.
pub(crate) fn evaluate(
    pool: &ContextPool,
    menu: &Menu,
    opts: &EvalOptions,
) -> Result<(Vec<Option<Measured>>, Vec<RungStats>), SimError> {
    let jobs = jobs_for(menu);
    match opts.sweep {
        SweepMode::Exhaustive => {
            let t0 = Instant::now();
            let results = run_jobs_with(pool, &jobs, opts.threads, &|ctx, job| {
                measure_job(ctx, menu, job, Fidelity::Full)
            })?;
            let stats = RungStats::tally("full", jobs.len(), &results, t0);
            Ok((results, vec![stats]))
        }
        SweepMode::Halving => {
            // Resolve the hint against the actual sweep space; a hint
            // naming a job that does not exist silently degrades to
            // an unseeded sweep.
            let seed = opts.seed.and_then(|s| {
                jobs.iter().position(|j| j.candidate == s.candidate && j.tuning == s.tuning)
            });
            evaluate_halving(pool, menu, &jobs, opts.threads, seed)
        }
    }
}

fn record_err(first_err: &Mutex<Option<(usize, SimError)>>, i: usize, e: SimError) {
    let mut slot = first_err.lock();
    if slot.as_ref().is_none_or(|(j, _)| i < *j) {
        *slot = Some((i, e));
    }
}

/// The sweep winner: the first canonical slot strictly faster than
/// everything after it — the serial loop's exact tie-break.
pub fn best_measurement(results: &[Option<Measurement>]) -> Option<&Measurement> {
    first_fastest(results, |m| m.time_ns)
}

/// [`best_measurement`] over any slot type.
pub(crate) fn first_fastest<T>(results: &[Option<T>], time_ns: impl Fn(&T) -> f64) -> Option<&T> {
    let mut best: Option<&T> = None;
    for m in results.iter().flatten() {
        if best.is_none_or(|b| time_ns(m) < time_ns(b)) {
            best = Some(m);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_passes::planner;
    use tangram_passes::specialize::ReduceOp;
    use tangram_passes::workload::{Dtype, WorkloadKey};

    fn menu() -> Menu {
        let cands: Vec<CodeVersion> = planner::fig6_best()
            .into_iter()
            .take(4)
            .map(|l| planner::fig6_by_label(l).unwrap())
            .collect();
        Menu::of_versions(&cands)
    }

    fn best(results: &[Option<Measured>]) -> &Measured {
        first_fastest(results, |m| m.time_ns).expect("a feasible job")
    }

    /// Same slot layout, and every measured slot bit-identical.
    fn assert_same_slots(a: &[Option<Measured>], b: &[Option<Measured>], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.tuning, y.tuning, "{ctx}");
                    assert_eq!(x.time_ns.to_bits(), y.time_ns.to_bits(), "{ctx}");
                }
                _ => panic!("feasibility or survivor set differs: {ctx}"),
            }
        }
    }

    fn assert_same_winner(a: &Measured, b: &Measured, ctx: &str) {
        assert_eq!(a.candidate, b.candidate, "{ctx}");
        assert_eq!(a.tuning, b.tuning, "{ctx}");
        assert_eq!(a.time_ns.to_bits(), b.time_ns.to_bits(), "{ctx}");
    }

    #[test]
    fn canonical_order_is_candidate_major() {
        let reduce = menu();
        let jobs = jobs_for(&reduce);
        let per_candidate: usize = BLOCK_SIZES.len() * reduce.coarsen(0).len();
        assert_eq!(jobs[0].candidate, 0);
        assert_eq!(jobs[per_candidate].candidate, 1);
        assert!(jobs.windows(2).all(|w| w[0].candidate <= w[1].candidate));
        // Variant menus sweep every coarsening factor.
        let variants = Menu::for_key(WorkloadKey::argmax());
        let jobs = jobs_for(&variants);
        assert_eq!(jobs.len(), variants.len() * BLOCK_SIZES.len() * COARSEN.len());
        assert!(jobs.windows(2).all(|w| w[0].candidate <= w[1].candidate));
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let arch = ArchConfig::maxwell_gtx980();
        let menu = menu();
        let pool = ContextPool::new(&arch, 65_536);
        let (serial, _) = evaluate(&pool, &menu, &EvalOptions::serial()).unwrap();
        let (parallel, _) = evaluate(&pool, &menu, &EvalOptions::with_threads(4)).unwrap();
        assert_same_slots(&serial, &parallel, "threads 1 vs 4");
        assert_same_winner(best(&serial), best(&parallel), "threads 1 vs 4");
    }

    #[test]
    fn pool_reuses_released_contexts() {
        let arch = ArchConfig::kepler_k40c();
        let pool = ContextPool::new(&arch, 1024);
        let a = pool.acquire().unwrap();
        let input = a.input;
        pool.release(a);
        let b = pool.acquire().unwrap();
        assert_eq!(b.input, input, "released context is checked out again");
    }

    #[test]
    fn pool_stamps_exec_mode_and_budget() {
        let arch = ArchConfig::maxwell_gtx980();
        let pool = ContextPool::builder(&arch, 1024)
            .exec_mode(ExecMode::Reference)
            .instr_budget(Some(123_456))
            .build();
        let ctx = pool.acquire().unwrap();
        assert_eq!(ctx.dev.exec_mode(), ExecMode::Reference);
        assert_eq!(ctx.dev.instr_budget(), 123_456);
    }

    #[test]
    fn survivor_mask_keeps_every_candidate_best() {
        let menu = menu();
        let jobs = jobs_for(&menu);
        // Synthetic screen: strictly increasing times, so the global
        // top eighth is a prefix — later candidates survive only via
        // their per-candidate best.
        let times: Vec<Option<f64>> = (0..jobs.len()).map(|i| Some(i as f64)).collect();
        let cand_of: Vec<usize> = jobs.iter().map(|j| j.candidate).collect();
        let keep = survivor_mask(&cand_of, &times);
        for c in 0..menu.len() {
            let best = jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.candidate == c)
                .map(|(i, _)| i)
                .min()
                .unwrap();
            assert!(keep[best], "candidate {c}'s screen-best must survive");
        }
        let kept = keep.iter().filter(|&&k| k).count();
        assert!(kept < jobs.len(), "halving must prune something");
        assert!(kept >= jobs.len().div_ceil(HALVING_KEEP_DENOM));
    }

    #[test]
    fn halving_survivors_are_bitwise_exhaustive_measurements() {
        // The full pruned corpus on every paper architecture, plus a
        // variant menu whose timings depend on the data.
        let pruned = Menu::of_versions(&planner::enumerate_pruned());
        let mut cases: Vec<(ArchConfig, Menu, u64)> = ArchConfig::paper_archs()
            .into_iter()
            .map(|arch| (arch, pruned.clone(), 65_536))
            .collect();
        cases.push((
            ArchConfig::maxwell_gtx980(),
            Menu::for_key(WorkloadKey::histogram(64)),
            16_384,
        ));
        for (arch, menu, n) in cases {
            let pool = ContextPool::new(&arch, n);
            let (exhaustive, _) = evaluate(&pool, &menu, &EvalOptions::default()).unwrap();
            let halving_opts = EvalOptions::default().with_sweep(SweepMode::Halving);
            let (halving, _) = evaluate(&pool, &menu, &halving_opts).unwrap();
            assert_eq!(exhaustive.len(), halving.len());
            let mut pruned = 0usize;
            for (e, h) in exhaustive.iter().zip(&halving) {
                match (e, h) {
                    (_, None) => pruned += 1,
                    (Some(a), Some(b)) => {
                        assert_eq!(a.tuning, b.tuning);
                        assert_eq!(
                            a.time_ns.to_bits(),
                            b.time_ns.to_bits(),
                            "surviving jobs must re-measure at full fidelity"
                        );
                    }
                    (None, Some(_)) => panic!("halving measured an infeasible job"),
                }
            }
            assert!(pruned > 0, "halving must prune part of the space");
            assert_same_winner(best(&exhaustive), best(&halving), "halving must keep the winner");
        }
    }

    #[test]
    fn seeded_halving_with_true_winner_confirms_without_survivor_rung() {
        let arch = ArchConfig::maxwell_gtx980();
        let menu = menu();
        let pool = ContextPool::new(&arch, 65_536);
        let opts = EvalOptions::serial().with_sweep(SweepMode::Halving);
        let (plain, plain_rungs) = evaluate(&pool, &menu, &opts).unwrap();
        let winner = best(&plain);
        let hint = SeedHint { candidate: winner.candidate, tuning: winner.tuning };
        let (seeded, rungs) = evaluate(&pool, &menu, &opts.with_seed(Some(hint))).unwrap();
        assert_same_winner(best(&seeded), winner, "true seed");
        assert_eq!(
            rungs.iter().map(|r| r.rung.as_str()).collect::<Vec<_>>(),
            ["screen", "seeded", "bounded"],
            "a confirming seed skips the survivor rung"
        );
        assert!(
            rungs[1].jobs < plain_rungs[1].jobs,
            "seeded rung ({} jobs) must be smaller than the survivor rung ({} jobs)",
            rungs[1].jobs,
            plain_rungs[1].jobs
        );
    }

    #[test]
    fn seeded_halving_with_wrong_seed_falls_back_to_same_winner() {
        let arch = ArchConfig::pascal_p100();
        let menu = menu();
        let pool = ContextPool::new(&arch, 32_768);
        let opts = EvalOptions::serial().with_sweep(SweepMode::Halving);
        let (plain, _) = evaluate(&pool, &menu, &opts).unwrap();
        let winner = best(&plain);
        // A deliberately wrong hint: a feasible non-winning job.
        let wrong = plain
            .iter()
            .flatten()
            .find(|m| m.candidate != winner.candidate || m.tuning != winner.tuning)
            .expect("sweep has more than one measured job");
        let hint = SeedHint { candidate: wrong.candidate, tuning: wrong.tuning };
        let (seeded, rungs) = evaluate(&pool, &menu, &opts.with_seed(Some(hint))).unwrap();
        assert_same_winner(best(&seeded), winner, "a wrong seed must not change the winner");
        assert_eq!(
            rungs.iter().map(|r| r.rung.as_str()).collect::<Vec<_>>(),
            ["screen", "seeded", "survivor", "bounded"],
            "a non-confirming seed falls back to the survivor rung"
        );
    }

    #[test]
    fn seed_outside_the_sweep_space_is_ignored() {
        let arch = ArchConfig::kepler_k40c();
        let menu = menu();
        let pool = ContextPool::new(&arch, 16_384);
        let opts = EvalOptions::serial().with_sweep(SweepMode::Halving);
        let (plain, plain_rungs) = evaluate(&pool, &menu, &opts).unwrap();
        // block_size 48 is not in BLOCK_SIZES: the hint cannot resolve.
        let hint = SeedHint { candidate: 0, tuning: Tuning { block_size: 48, coarsen: 1 } };
        let (seeded, rungs) = evaluate(&pool, &menu, &opts.with_seed(Some(hint))).unwrap();
        assert_same_slots(&plain, &seeded, "unresolvable seed");
        assert_eq!(rungs.len(), plain_rungs.len());
        assert_eq!(rungs[1].rung, "survivor");
    }

    #[test]
    fn seeded_halving_matches_unseeded_across_arches_and_sizes() {
        for arch in
            [ArchConfig::maxwell_gtx980(), ArchConfig::kepler_k40c(), ArchConfig::pascal_p100()]
        {
            for (label, menu, n) in [
                ("sum", menu(), 16_384u64),
                ("sum", menu(), 131_072),
                ("argmax", Menu::for_key(WorkloadKey::argmax()), 16_384),
            ] {
                let pool = ContextPool::new(&arch, n);
                let opts = EvalOptions::serial().with_sweep(SweepMode::Halving);
                let (plain, _) = evaluate(&pool, &menu, &opts).unwrap();
                let winner = best(&plain);
                let hint = SeedHint { candidate: winner.candidate, tuning: winner.tuning };
                let (seeded, _) = evaluate(&pool, &menu, &opts.with_seed(Some(hint))).unwrap();
                let ctx = format!("{} {label} n={n}", arch.id);
                assert_same_winner(best(&seeded), winner, &ctx);
            }
        }
    }

    #[test]
    fn halving_thread_counts_agree_bitwise() {
        // At 16K the bounded rung prunes most exact-regime jobs.
        let arch = ArchConfig::kepler_k40c();
        let menu = Menu::of_versions(&planner::enumerate_pruned());
        let pool = ContextPool::new(&arch, 16_384);
        let opts = EvalOptions::serial().with_sweep(SweepMode::Halving);
        let (serial, serial_rungs) = evaluate(&pool, &menu, &opts).unwrap();
        let (parallel, parallel_rungs) =
            evaluate(&pool, &menu, &EvalOptions { threads: 4, ..opts }).unwrap();
        assert_same_slots(&serial, &parallel, "halving threads 1 vs 4");
        let counts = |rungs: &[RungStats]| -> Vec<(String, usize, usize, usize)> {
            rungs.iter().map(|r| (r.rung.clone(), r.jobs, r.measured, r.pruned)).collect()
        };
        assert_eq!(counts(&serial_rungs), counts(&parallel_rungs), "rung counts");
        let bounded = serial_rungs.last().unwrap();
        assert_eq!(bounded.rung, "bounded");
        assert!(bounded.pruned > 0, "the bound must prune at 16K: {bounded:?}");
    }

    /// The bounded halving sweep against the exhaustive reference on
    /// every workload key: its winner is never slower, it is the very
    /// same job whenever the exhaustive winner is exact-regime, and
    /// every slot it measured is bit-identical to the exhaustive one.
    #[test]
    fn bounded_halving_keeps_the_exhaustive_winner_on_every_key() {
        let keys = [
            WorkloadKey::sum(),
            WorkloadKey::reduce(ReduceOp::Max),
            WorkloadKey::reduce(ReduceOp::Min),
            WorkloadKey::argmax(),
            WorkloadKey::argmin(),
            WorkloadKey::histogram(64),
            WorkloadKey::scan(Dtype::F32),
            WorkloadKey::scan(Dtype::U32),
            WorkloadKey::exscan(Dtype::F32),
            WorkloadKey::segsum(Dtype::F32),
        ];
        let halving = EvalOptions::default().with_sweep(SweepMode::Halving);
        for arch in ArchConfig::paper_archs() {
            for n in [1024, 4096, 16_384, 65_536, 3000] {
                let pool = ContextPool::new(&arch, n);
                for key in keys {
                    let ctx = format!("{} n={n} {key}", arch.id);
                    let menu = Menu::for_key(key);
                    let (exhaustive, _) = evaluate(&pool, &menu, &EvalOptions::default()).unwrap();
                    let (bounded, _) = evaluate(&pool, &menu, &halving).unwrap();
                    let (e, h) = (best(&exhaustive), best(&bounded));
                    assert!(h.time_ns <= e.time_ns, "{ctx}: {} > {}", h.time_ns, e.time_ns);
                    if BenchContext::exact_regime(e.kernel.grid(n)) {
                        assert_same_winner(e, h, &ctx);
                    }
                    for (x, y) in exhaustive.iter().zip(&bounded) {
                        if let (Some(x), Some(y)) = (x, y) {
                            assert_eq!(x.time_ns.to_bits(), y.time_ns.to_bits(), "{ctx}");
                        }
                        assert!(x.is_some() || y.is_none(), "{ctx}: an infeasible job measured");
                    }
                }
            }
        }
    }
}
