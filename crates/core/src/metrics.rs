//! Sweep-level observability (`tangram::metrics`).
//!
//! The `gpu_sim::profile` layer attributes dynamic counters to static
//! instruction sites of one launch; this module aggregates the level
//! above it — whole selection sweeps. A [`SweepMetrics`] captures one
//! `(arch, n)` sweep: per-rung job counts and wall-clock timings,
//! prune/quarantine/retry totals (via [`ResilienceReport`]), the
//! winning row, and the winner's per-site [`LaunchProfile`]. A
//! [`ProfileReport`] collects the sweeps of a whole run plus
//! *spotlight* profiles — profiled runs of the paper's pedagogical
//! kernels (the Fig. 1c cooperative codelet and its §III-C shuffle
//! variant) that reproduce the §IV counter narrative: atomic
//! contention serializations at the global-accumulate site, shuffle
//! exchanges replacing shared-memory traffic.
//!
//! Determinism: every counter in these types is bit-identical for any
//! thread count; only the `wall_ms` fields are host wall-clock and
//! must never enter determinism-checked comparisons (the verify
//! script strips them).

use gpu_sim::profile::LaunchProfile;
use gpu_sim::{ArchConfig, SimError};
use serde::Serialize;
use tangram_codegen::{synthesize_cached, Tuning};
use tangram_passes::planner::{self, BlockOp, Coop};
use tangram_passes::specialize::ReduceOp;

use crate::evaluate::RungStats;
use crate::resilience::ResilienceReport;
use crate::tuner::BenchContext;

/// Hit/miss accounting for a memoization cache (e.g. the figure
/// harness's baseline cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheMetrics {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then populate) an entry.
    pub misses: u64,
}

impl CacheMetrics {
    /// Record one lookup.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another cache's counters into this one.
    pub fn merge(&mut self, other: CacheMetrics) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Aggregate outcome of a sweep's race-sanitizer screen (present only
/// when the session ran with [`crate::api::Session::sanitized`] on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SanitizeSummary {
    /// Candidates the screen executed under shadow-state tracking.
    pub candidates: usize,
    /// Candidates quarantined for reporting at least one hazard.
    pub racy: usize,
    /// Deduplicated findings across all screened candidates.
    pub findings: usize,
    /// Raw hazard occurrences (per-byte, pre-dedup) across the screen.
    pub occurrences: u64,
}

/// What the persistent tuning store did for one sweep (present only
/// when the session ran with [`crate::api::Session::store`]
/// configured).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StoreSummary {
    /// Store directory.
    pub dir: String,
    /// Cache mode (`rw`/`ro`).
    pub mode: String,
    /// Record key (`arch/op/dtype/bucket`).
    pub key: String,
    /// Lookup outcome: `warm` (cached winner confirmed, sweep
    /// skipped), `miss` (no usable record), `invalid` (record failed
    /// integrity or confirmation — see `detail`), or `disabled`
    /// (store could not be opened).
    pub outcome: String,
    /// Failure detail for `invalid`/`disabled` outcomes, and the
    /// write-back error when saving failed.
    pub detail: Option<String>,
    /// Whether the sweep was answered from the cache.
    pub warm: bool,
    /// Whether a cold sweep was warm-started (survivor rung seeded)
    /// from the nearest cached n-bucket's winner.
    pub seeded: bool,
    /// Whether a fresh record was written back.
    pub saved: bool,
}

/// The winning job of a sweep of any key.
#[derive(Debug, Clone, Serialize)]
pub struct WinnerRow {
    /// Winning candidate: a `CodeVersion` string for reductions, a
    /// [`WlVariant::id`](crate::WlVariant::id) for the other workloads.
    pub id: String,
    /// Winning block size.
    pub block_size: u32,
    /// Winning coarsening factor.
    pub coarsen: u32,
    /// Modelled time of the winner (ns).
    pub time_ns: f64,
}

/// Everything observed about one `(arch, workload, n)` sweep. Every
/// counter is bit-identical for any thread count; only `wall_ms` and
/// the rung timings are host wall-clock.
#[derive(Debug, Clone, Serialize)]
pub struct SweepMetrics {
    /// Architecture identifier (`kepler`/`maxwell`/`pascal`).
    pub arch: String,
    /// Array size (elements).
    pub n: u64,
    /// The typed workload the sweep was keyed by (`sum-f32` for the
    /// classic selection sweeps).
    pub workload: tangram_passes::workload::WorkloadKey,
    /// Sweep strategy (`exhaustive`/`halving`, `resilient-` prefixed
    /// under a resilience policy).
    pub mode: String,
    /// Interpreter hot path (`uop`/`reference`).
    pub interp: String,
    /// Evaluation worker threads.
    pub threads: usize,
    /// Per-rung job counts and wall-clock timings.
    pub rungs: Vec<RungStats>,
    /// Job accounting: measured / infeasible / pruned / quarantined /
    /// retries / fault totals. For clean sweeps only the job counts
    /// are populated.
    pub resilience: ResilienceReport,
    /// The winning job.
    pub winner: WinnerRow,
    /// Per-site profile of the winner's main kernel (present when the
    /// sweep ran with profiling enabled).
    pub winner_profile: Option<LaunchProfile>,
    /// Race-sanitizer screen totals (present when the sweep ran
    /// sanitized).
    pub sanitize: Option<SanitizeSummary>,
    /// Persistent tuning-store outcome (present when the session has
    /// a store configured).
    pub store: Option<StoreSummary>,
    /// Wall-clock of the whole sweep in milliseconds
    /// (nondeterministic; excluded from determinism checks).
    pub wall_ms: f64,
}

/// A profiled run of one spotlight kernel (§IV counter narrative).
#[derive(Debug, Clone, Serialize)]
pub struct KernelSpotlight {
    /// Architecture identifier.
    pub arch: String,
    /// Which narrative the kernel illustrates (`fig1c-coop`,
    /// `shuffle-coop`).
    pub label: String,
    /// The code version that ran.
    pub version: String,
    /// Modelled time of the profiled run (ns).
    pub time_ns: f64,
    /// Per-site counters of the main kernel.
    pub profile: LaunchProfile,
}

/// Machine-readable aggregate of a profiled run: every sweep's
/// metrics plus the spotlight kernel profiles, serializable to JSON
/// via the `--metrics-json` flag of the `sweep` and `figures` bins.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ProfileReport {
    /// One entry per sweep of any key, in execution order.
    pub sweeps: Vec<SweepMetrics>,
    /// Profiled spotlight kernels (Fig. 1c cooperative codelet and
    /// the §III-C shuffle variant), one pair per architecture.
    pub spotlights: Vec<KernelSpotlight>,
    /// Baseline-cache hit/miss accounting, when a baseline cache was
    /// in play (the figure harness).
    pub baselines: Option<CacheMetrics>,
}

impl ProfileReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold another report into this one (sweeps and spotlights
    /// append; baseline counters merge).
    pub fn merge(&mut self, other: ProfileReport) {
        self.sweeps.extend(other.sweeps);
        self.spotlights.extend(other.spotlights);
        match (&mut self.baselines, other.baselines) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (slot @ None, theirs) => *slot = theirs,
            (Some(_), None) => {}
        }
    }

    /// Pretty-printed JSON of the whole report.
    ///
    /// # Errors
    ///
    /// Propagates the serializer's error instead of swallowing it
    /// into an `{"error": …}` payload — callers (the bins) surface it
    /// as a typed CLI failure.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// One-line summary for logs: sweep count and total spotlight
    /// counter mass.
    pub fn summary_line(&self) -> String {
        let atomic: u64 =
            self.spotlights.iter().map(|s| s.profile.total_atomic_serial()).sum();
        let shuffle: u64 =
            self.spotlights.iter().map(|s| s.profile.total_shuffle_exchanges()).sum();
        format!(
            "metrics: sweeps={} spotlights={} atomic_serial={} shuffle_exchanges={}",
            self.sweeps.len(),
            self.spotlights.len(),
            atomic,
            shuffle
        )
    }
}

/// The spotlight code versions: the pruned version whose block level
/// is the Fig. 1c cooperative codelet (`Coop::V`, lowered from the
/// `FIG1C` corpus source) and the pruned shuffle variant of the same
/// codelet (`Coop::Vs`). Both carry an atomic grid combine, so their
/// profiles exhibit the §IV counters of interest: per-site atomic
/// contention at the global accumulate, and (for the variant) shuffle
/// exchanges in place of shared-memory tree traffic.
fn spotlight_versions() -> Vec<(&'static str, planner::CodeVersion)> {
    let pruned = planner::enumerate_pruned();
    let mut out = Vec::new();
    if let Some(v) = pruned.iter().find(|v| v.block == BlockOp::Coop(Coop::V)) {
        out.push(("fig1c-coop", *v));
    }
    if let Some(v) = pruned.iter().find(|v| v.block == BlockOp::Coop(Coop::Vs)) {
        out.push(("shuffle-coop", *v));
    }
    out
}

/// Array size for the spotlight runs: small enough that every block
/// executes functionally (`exact` profiles, unscaled counters), large
/// enough that atomic contention across blocks is visible.
const SPOTLIGHT_N: u64 = 65_536;

/// Run the spotlight kernels profiled on `arch` and return their
/// per-site counter profiles.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn spotlight_profiles(arch: &ArchConfig) -> Result<Vec<KernelSpotlight>, SimError> {
    let mut ctx = BenchContext::new(arch, SPOTLIGHT_N)?;
    let mut out = Vec::new();
    for (label, version) in spotlight_versions() {
        let tuning = Tuning { block_size: 256, coarsen: 1 };
        let Ok(sv) = synthesize_cached(version, tuning, ReduceOp::Sum) else {
            continue;
        };
        let (time_ns, profiles, _trace) =
            ctx.measure_profiled_with(&sv, gpu_sim::exec::BlockSelection::All)?;
        let Some(profile) = profiles.into_iter().next() else { continue };
        out.push(KernelSpotlight {
            arch: arch.id.clone(),
            label: label.to_string(),
            version: version.to_string(),
            time_ns,
            profile,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_metrics_rates() {
        let mut m = CacheMetrics::default();
        assert_eq!(m.hit_rate(), 0.0);
        m.record(false);
        m.record(true);
        m.record(true);
        assert!((m.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        let mut other = CacheMetrics::default();
        other.record(false);
        m.merge(other);
        assert_eq!(m.misses, 2);
    }

    #[test]
    fn spotlights_cover_atomics_and_shuffles() {
        let arch = ArchConfig::maxwell_gtx980();
        let spots = spotlight_profiles(&arch).unwrap();
        assert_eq!(spots.len(), 2, "both spotlight versions must be in the pruned set");
        let fig1c = spots.iter().find(|s| s.label == "fig1c-coop").unwrap();
        assert!(
            fig1c.profile.total_atomic_serial() > 0,
            "atomic grid combine must serialize under contention"
        );
        assert_eq!(fig1c.profile.total_shuffle_exchanges(), 0, "Fig. 1c has no shuffles");
        let shfl = spots.iter().find(|s| s.label == "shuffle-coop").unwrap();
        assert!(shfl.profile.total_shuffle_exchanges() > 0, "Vs must exchange via shuffles");
        assert!(shfl.profile.exact, "spotlight runs must execute every block");
    }

    #[test]
    fn profile_report_merges_and_serializes() {
        let arch = ArchConfig::pascal_p100();
        let mut report = ProfileReport::new();
        report.spotlights = spotlight_profiles(&arch).unwrap();
        let mut other = ProfileReport::new();
        other.baselines = Some(CacheMetrics { hits: 3, misses: 1 });
        report.merge(other);
        assert_eq!(report.baselines.unwrap().hits, 3);
        let json = match report.to_json() {
            Ok(json) => json,
            Err(e) => panic!("report must serialize: {e}"),
        };
        let v = match serde_json::from_str(&json) {
            Ok(v) => v,
            Err(e) => panic!("report JSON must parse: {e}"),
        };
        let spots = v.get("spotlights").and_then(|s| s.as_seq()).unwrap();
        assert_eq!(spots.len(), 2);
        assert!(report.summary_line().contains("spotlights=2"));
    }
}
