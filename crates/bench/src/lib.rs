//! # tangram-bench — the figure/table regeneration harness
//!
//! Produces the data behind every evaluation artifact of the paper
//! (§IV): the search-space table (§IV-B), the Fig. 6 composition, and
//! the speedup-over-CUB series of Figs. 7–10.
//!
//! All times are modelled nanoseconds from the `gpu-sim` cost models —
//! deterministic and hardware-independent. Large arrays are measured
//! with sampled block execution (see `gpu_sim::exec::BlockSelection`);
//! correctness of every version is established separately by the test
//! suite at exact sizes.

#![warn(missing_docs)]

pub mod cli;

use std::collections::HashMap;

use cpu_ref::OpenMpModel;
use gpu_baselines::{CubReduce, KokkosReduce};
use gpu_sim::exec::BlockSelection;
use gpu_sim::profile::{LaunchProfile, Trace};
use gpu_sim::{
    negative_corpus, run_negative, ArchConfig, Device, ExecMode, NegativeKernel, RaceReport,
    SimError,
};
use serde::{Deserialize, Serialize, Value};
use tangram::api::CandidateRaces;
use tangram::metrics::{CacheMetrics, SanitizeSummary, StoreSummary, SweepMetrics};
use tangram::resilience::ResilienceReport;
use tangram::Session;

/// One point of a Fig. 7–10 series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigurePoint {
    /// Array size (32-bit elements).
    pub n: u64,
    /// Best Tangram version's modelled time (ns).
    pub tangram_ns: f64,
    /// The winning version (display string).
    pub version: String,
    /// Fig. 6 label of the winner, when applicable.
    pub fig6_label: Option<char>,
    /// Winning tuning (block size, coarsening).
    pub tuning: (u32, u32),
    /// CUB baseline time (ns).
    pub cub_ns: f64,
    /// Kokkos baseline time (ns).
    pub kokkos_ns: f64,
    /// OpenMP (POWER8 model) time (ns).
    pub openmp_ns: f64,
}

impl FigurePoint {
    /// Speedup of the best Tangram version over CUB (the figures'
    /// y-axis; >1 = Tangram faster).
    pub fn tangram_speedup(&self) -> f64 {
        self.cub_ns / self.tangram_ns
    }

    /// Speedup of Kokkos over CUB.
    pub fn kokkos_speedup(&self) -> f64 {
        self.cub_ns / self.kokkos_ns
    }

    /// Speedup of OpenMP over CUB.
    pub fn openmp_speedup(&self) -> f64 {
        self.cub_ns / self.openmp_ns
    }
}

/// A complete per-architecture series (Figs. 8/9/10; Fig. 7 combines
/// the Tangram series of all three).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArchSeries {
    /// Architecture identifier (`kepler`/`maxwell`/`pascal`).
    pub arch: String,
    /// Points, one per array size.
    pub points: Vec<FigurePoint>,
}

/// Measure the CUB baseline at size `n` (modelled ns).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_cub(arch: &ArchConfig, n: u64) -> Result<f64, SimError> {
    let cub = CubReduce::new();
    let mut dev = Device::new(arch.clone());
    let input = dev.alloc_f32(n)?;
    let selection = selection_for(cub.grid_for(n));
    dev.reset_clock();
    cub.run(&mut dev, input, n, selection)?;
    Ok(dev.elapsed_ns())
}

/// Measure the Kokkos baseline at size `n` (modelled ns).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_kokkos(arch: &ArchConfig, n: u64) -> Result<f64, SimError> {
    let kokkos = KokkosReduce::new();
    let mut dev = Device::new(arch.clone());
    let input = dev.alloc_f32(n)?;
    let selection = selection_for((n / 1024).clamp(1, 2048) as u32);
    dev.reset_clock();
    kokkos.run(&mut dev, input, n, selection)?;
    Ok(dev.elapsed_ns())
}

fn selection_for(grid: u32) -> BlockSelection {
    if grid > 64 {
        BlockSelection::Sample { max_blocks: 6 }
    } else {
        BlockSelection::All
    }
}

/// Memoized baseline measurements, keyed by `(arch id, n)`.
///
/// Fig. 7 is assembled from the same per-architecture series as
/// Figs. 8–10, and every figure shares one size grid — so CUB, Kokkos
/// and the OpenMP model are each measured once per `(arch, n)` and
/// reused, instead of once per figure.
#[derive(Debug, Default)]
pub struct BaselineCache {
    cub: HashMap<(String, u64), f64>,
    kokkos: HashMap<(String, u64), f64>,
    openmp: HashMap<u64, f64>,
    stats: CacheMetrics,
}

impl BaselineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// CUB time at `(arch, n)`, measured on first use.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn cub(&mut self, arch: &ArchConfig, n: u64) -> Result<f64, SimError> {
        if let Some(&t) = self.cub.get(&(arch.id.clone(), n)) {
            self.stats.record(true);
            return Ok(t);
        }
        self.stats.record(false);
        let t = measure_cub(arch, n)?;
        self.cub.insert((arch.id.clone(), n), t);
        Ok(t)
    }

    /// Kokkos time at `(arch, n)`, measured on first use.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn kokkos(&mut self, arch: &ArchConfig, n: u64) -> Result<f64, SimError> {
        if let Some(&t) = self.kokkos.get(&(arch.id.clone(), n)) {
            self.stats.record(true);
            return Ok(t);
        }
        self.stats.record(false);
        let t = measure_kokkos(arch, n)?;
        self.kokkos.insert((arch.id.clone(), n), t);
        Ok(t)
    }

    /// OpenMP (POWER8 model) time at `n` — architecture-independent.
    pub fn openmp(&mut self, n: u64) -> f64 {
        self.stats.record(self.openmp.contains_key(&n));
        *self.openmp.entry(n).or_insert_with(|| OpenMpModel::power8_minsky().time_ns(n))
    }

    /// Hit/miss accounting across every baseline lookup so far.
    pub fn metrics(&self) -> CacheMetrics {
        self.stats
    }
}

/// Everything one [`arch_series_session`] run produces beyond the
/// figure points themselves: merged job accounting, per-size sweep
/// metrics, the last profiled winner's scheduler trace, and the last
/// sanitizer screen's per-candidate race reports.
#[derive(Debug)]
pub struct SeriesReport {
    /// The figure series.
    pub series: ArchSeries,
    /// Per-size job accounting merged into one report.
    pub resilience: ResilienceReport,
    /// Per-size sweep metrics, in input order.
    pub metrics: Vec<SweepMetrics>,
    /// Scheduler trace of the last (largest-size) profiled winner;
    /// `None` when the session does not profile.
    pub trace: Option<Trace>,
    /// Per-candidate race reports of the last size's sanitizer screen;
    /// `None` when the session does not sanitize. (The screen caps its
    /// array size, so the reports are identical across sizes.)
    pub races: Option<Vec<CandidateRaces>>,
}

/// The figure series plus observability, driven by a configured
/// [`Session`]: per-size sweep metrics ride along, job accounting is
/// merged across sizes, and — when the session profiles — the
/// scheduler [`Trace`] of the last (largest-size) winner is returned
/// for Chrome `trace_event` export. The points are bit-identical
/// across profiling and sanitizing: profiling re-runs winners and
/// sanitizing screens candidates on scratch devices; neither
/// re-selects winners.
///
/// # Errors
///
/// Propagates simulator errors; fails when a size has no surviving
/// candidate or on baseline measurement errors.
pub fn arch_series_session(
    session: &Session,
    sizes: &[u64],
    baselines: &mut BaselineCache,
) -> Result<SeriesReport, SimError> {
    let arch = session.arch().clone();
    let mut points = Vec::with_capacity(sizes.len());
    let mut metrics = Vec::with_capacity(sizes.len());
    let mut merged = ResilienceReport::default();
    let mut trace = None;
    let mut races = None;
    for &n in sizes {
        let report = session.select_best(n)?;
        merged.merge(report.resilience);
        metrics.push(report.metrics);
        if report.trace.is_some() {
            trace = report.trace;
        }
        if report.races.is_some() {
            races = report.races;
        }
        let row = report.row;
        let cub_ns = baselines.cub(&arch, n)?;
        let kokkos_ns = baselines.kokkos(&arch, n)?;
        points.push(FigurePoint {
            n,
            tangram_ns: row.time_ns,
            version: row.version.to_string(),
            fig6_label: row.fig6_label,
            tuning: (row.block_size, row.coarsen),
            cub_ns,
            kokkos_ns,
            openmp_ns: baselines.openmp(n),
        });
    }
    Ok(SeriesReport {
        series: ArchSeries { arch: arch.id.clone(), points },
        resilience: merged,
        metrics,
        trace,
        races,
    })
}

/// Human-readable one-liner of a winner's dynamic counters, shared by
/// the `sweep` and `figures` bins (`profile: kernel=… issues=… …`).
/// The counters come straight from the site totals; `exact=false`
/// marks a block-sampled launch whose counts cover only the sample.
pub fn profile_summary_line(p: &LaunchProfile) -> String {
    let (mut issues, mut divergent, mut conflicts, mut atomics, mut txns) = (0, 0, 0, 0, 0);
    for s in &p.sites {
        issues += s.issues;
        divergent += s.divergent_issues;
        conflicts += s.shared_bank_conflicts;
        atomics += s.atomic_ops;
        txns += s.global_transactions;
    }
    format!(
        "profile: kernel={} exact={} issues={} divergent={} bank_conflicts={} atomic_ops={} atomic_serial={} shuffles={} gmem_txn={}",
        p.kernel,
        p.exact,
        issues,
        divergent,
        conflicts,
        atomics,
        p.total_atomic_serial(),
        p.total_shuffle_exchanges(),
        txns
    )
}

/// Human-readable one-liner of a sweep's race-sanitizer screen,
/// shared by the `sweep` and `figures` bins.
pub fn sanitize_summary_line(s: &SanitizeSummary) -> String {
    format!(
        "sanitize: candidates={} racy={} findings={} occurrences={}",
        s.candidates, s.racy, s.findings, s.occurrences
    )
}

/// Human-readable one-liner of a sweep's tuning-store outcome, shared
/// by the `sweep` and `figures` bins. The verify script greps
/// `outcome=warm` off this line; keep the `key=`/`outcome=`/`saved=`
/// tokens stable.
pub fn cache_summary_line(s: &StoreSummary) -> String {
    let mut line = format!(
        "cache: mode={} key={} outcome={} warm={} saved={}",
        s.mode, s.key, s.outcome, s.warm, s.saved
    );
    if let Some(detail) = &s.detail {
        line.push_str(&format!(" detail=[{detail}]"));
    }
    line
}

/// Aggregated tuning-store one-liner for a multi-size series (the
/// `figures` bin sweeps one session across many sizes): outcome
/// counts over every sweep that consulted the store, or `None` when
/// no store was configured.
pub fn cache_series_line(metrics: &[SweepMetrics]) -> Option<String> {
    let stores: Vec<&StoreSummary> = metrics.iter().filter_map(|m| m.store.as_ref()).collect();
    let first = stores.first()?;
    let warm = stores.iter().filter(|s| s.warm).count();
    let saved = stores.iter().filter(|s| s.saved).count();
    let invalid = stores.iter().filter(|s| s.outcome == "invalid").count();
    Some(format!(
        "cache: mode={} sweeps={} warm={} saved={} invalid={}",
        first.mode,
        stores.len(),
        warm,
        saved,
        invalid
    ))
}

/// Run the deliberately-racy negative corpus through the sanitizer on
/// `arch` (default interpreter hot path) and return each kernel with
/// its race report — the bins' `--seed-racy` smoke mode. Every kernel
/// of the corpus races by construction, so a sanitizer that returns an
/// all-clean vector here is broken.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn seeded_racy_reports(
    arch: &ArchConfig,
) -> Result<Vec<(NegativeKernel, RaceReport)>, SimError> {
    negative_corpus()
        .into_iter()
        .map(|nk| {
            let report = run_negative(arch, ExecMode::default(), &nk)?;
            Ok((nk, report))
        })
        .collect()
}

/// Assemble the `--sanitize-json` payload: one entry per sanitizer
/// screen (`(arch id, n, per-candidate reports)`), plus — under
/// `--seed-racy` — the seeded negative-corpus reports with their
/// expected findings.
///
/// # Errors
///
/// Propagates the serializer's error (instead of swallowing it into
/// an `{"error": …}` payload) so the bins can die with a typed CLI
/// message.
pub fn sanitize_json(
    screens: &[(String, u64, Vec<CandidateRaces>)],
    seeded: &[(NegativeKernel, RaceReport)],
) -> Result<String, serde_json::Error> {
    let screen_entries: Vec<Value> = screens
        .iter()
        .map(|(arch, n, candidates)| {
            Value::Map(vec![
                ("arch".to_string(), arch.to_value()),
                ("n".to_string(), n.to_value()),
                ("candidates".to_string(), candidates.to_value()),
            ])
        })
        .collect();
    let seeded_entries: Vec<Value> = seeded
        .iter()
        .map(|(nk, report)| {
            Value::Map(vec![
                ("label".to_string(), nk.label.to_value()),
                ("expect".to_string(), nk.expect.label().to_value()),
                ("expect_pc".to_string(), (nk.expect_pc as u64).to_value()),
                ("report".to_string(), report.to_value()),
            ])
        })
        .collect();
    let map = vec![
        ("screens".to_string(), Value::Seq(screen_entries)),
        ("seeded".to_string(), Value::Seq(seeded_entries)),
    ];
    serde_json::to_string_pretty(&Value::Map(map))
}

/// Geometric mean of the Tangram-over-CUB speedups in a series
/// (the paper's "2× on average").
pub fn geomean_speedup(points: &[FigurePoint]) -> f64 {
    if points.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = points.iter().map(|p| p.tangram_speedup().ln()).sum();
    (log_sum / points.len() as f64).exp()
}

/// Maximum Tangram-over-CUB speedup (the paper's "up to 7.8×").
pub fn max_speedup(points: &[FigurePoint]) -> f64 {
    points.iter().map(FigurePoint::tangram_speedup).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram::evaluate::EvalOptions;

    #[test]
    fn baseline_cache_measures_once_per_arch_and_size() {
        let arch = ArchConfig::pascal_p100();
        let mut cache = BaselineCache::new();
        let first = cache.cub(&arch, 2048).unwrap();
        assert_eq!(cache.cub.len(), 1);
        let again = cache.cub(&arch, 2048).unwrap();
        assert_eq!(first.to_bits(), again.to_bits());
        assert_eq!(cache.cub.len(), 1, "repeat lookup must not re-measure");
        // A different architecture is a distinct key.
        cache.cub(&ArchConfig::kepler_k40c(), 2048).unwrap();
        assert_eq!(cache.cub.len(), 2);
        assert_eq!(cache.openmp(2048).to_bits(), cache.openmp(2048).to_bits());
    }

    #[test]
    fn cache_metrics_count_hits_and_misses() {
        let arch = ArchConfig::maxwell_gtx980();
        let mut cache = BaselineCache::new();
        cache.cub(&arch, 1024).unwrap();
        cache.cub(&arch, 1024).unwrap();
        cache.openmp(1024);
        cache.openmp(1024);
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses), (2, 2));
        assert!((m.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn profiled_series_matches_plain_series() {
        let arch = ArchConfig::maxwell_gtx980();
        let sizes = [1024, 16_384];
        let opts = EvalOptions::serial();
        let plain = Session::new(arch.clone()).eval(opts);
        let plain = arch_series_session(&plain, &sizes, &mut BaselineCache::new()).unwrap();
        assert!(plain.trace.is_none(), "unprofiled sessions return no trace");
        let session = Session::new(arch).eval(opts).profiled(true);
        let rep = arch_series_session(&session, &sizes, &mut BaselineCache::new()).unwrap();
        for (a, b) in plain.series.points.iter().zip(&rep.series.points) {
            assert_eq!(a.version, b.version);
            assert_eq!(a.tangram_ns.to_bits(), b.tangram_ns.to_bits());
            assert_eq!(a.cub_ns.to_bits(), b.cub_ns.to_bits());
        }
        assert_eq!(rep.metrics.len(), sizes.len());
        assert!(rep.metrics.iter().all(|m| m.winner_profile.is_some()));
        assert!(rep.resilience.total_jobs > 0);
        assert!(rep.trace.is_some(), "profiled sessions return the last winner's trace");
        assert!(rep.races.is_none(), "unsanitized sessions record no race reports");
    }

    #[test]
    fn baselines_measure_positively() {
        let arch = ArchConfig::maxwell_gtx980();
        let cub = measure_cub(&arch, 4096).unwrap();
        let kokkos = measure_kokkos(&arch, 4096).unwrap();
        assert!(cub > 0.0 && kokkos > 0.0);
        // CUB pays two launches plus host overhead at tiny sizes.
        assert!(cub > 2.0 * arch.launch_overhead_ns);
    }

    #[test]
    fn geomean_of_unit_speedups_is_one() {
        let p = |s: f64| FigurePoint {
            n: 1,
            tangram_ns: 1.0 / s,
            version: String::new(),
            fig6_label: None,
            tuning: (0, 0),
            cub_ns: 1.0,
            kokkos_ns: 1.0,
            openmp_ns: 1.0,
        };
        let pts = vec![p(2.0), p(0.5)];
        assert!((geomean_speedup(&pts) - 1.0).abs() < 1e-12);
        assert!((max_speedup(&pts) - 2.0).abs() < 1e-12);
    }
}
