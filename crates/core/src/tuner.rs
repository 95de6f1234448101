//! The autotuner for `__tunable` parameters (§IV-C: "All Tangram code
//! versions are tuned using tunable parameters to determine optimal
//! block and grid dimensions … a simple script that runs all versions
//! with different tuning parameters").
//!
//! Tuning runs the synthesized kernel under the cost model (sampled
//! block execution for large grids, so a sweep is cheap) and keeps the
//! fastest configuration. A [`BenchContext`] shares one device and one
//! input allocation across every candidate of a sweep — at the paper's
//! largest size (256M elements, 1 GiB) re-allocating per candidate
//! would dominate.

use std::sync::Arc;

use gpu_sim::exec::BlockSelection;
use gpu_sim::profile::{LaunchProfile, Trace};
use gpu_sim::{ArchConfig, Device, DevicePtr, SimError};
use tangram_codegen::{synthesize_cached, SynthesizedVersion, SynthesizedWorkload, Tuning};
use tangram_passes::planner::CodeVersion;
use tangram_passes::specialize::ReduceOp;

use crate::evaluate::coarsen_options;
use crate::runner::{run_reduction, run_workload, upload};
use crate::workload::WorkloadValue;

/// Block sizes the tuner sweeps.
pub const BLOCK_SIZES: [u32; 5] = [32, 64, 128, 256, 512];
/// Coarsening factors the tuner sweeps for compound block codelets.
pub const COARSEN: [u32; 5] = [1, 2, 4, 8, 16];

/// Grids larger than this are measured with sampled block execution.
const SAMPLE_GRID_THRESHOLD: u32 = 64;

/// Outcome of tuning one version for one array size.
#[derive(Debug, Clone)]
pub struct TunedVersion {
    /// The synthesized kernels at the winning tuning (shared with the
    /// process-wide synthesis cache).
    pub synthesized: Arc<SynthesizedVersion>,
    /// Modelled time at the winning tuning (ns).
    pub time_ns: f64,
}

/// A reusable measurement context: one device, one input buffer.
#[derive(Debug)]
pub struct BenchContext {
    /// The simulated device (clock reset per measurement).
    pub dev: Device,
    /// The input allocation (contents irrelevant for timing).
    pub input: DevicePtr,
    /// Array size in elements.
    pub n: u64,
    /// Allocator watermark just past the input: each measurement rolls
    /// the device's bump allocator back here, so per-run scratch
    /// (partials, outputs) reuses one arena region instead of growing
    /// the arena by the whole partials footprint per measured job.
    mark: u64,
    /// Tag of the input corpus currently uploaded into `input` (0 =
    /// uninitialized). Reduction timing is data-independent so the
    /// sweep never uploads; workload sweeps whose timing depends on
    /// the data (histogram atomic contention) upload a deterministic
    /// corpus once per context via [`BenchContext::ensure_input`].
    input_tag: u64,
}

impl BenchContext {
    /// Create a context for arrays of `n` elements on `arch`.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors.
    pub fn new(arch: &ArchConfig, n: u64) -> Result<Self, SimError> {
        let mut dev = Device::new(arch.clone());
        let input = dev.alloc_f32(n)?;
        let mark = dev.alloc_mark();
        Ok(BenchContext { dev, input, n, mark, input_tag: 0 })
    }

    /// Upload the corpus `make(n)` into the context's input buffer if
    /// the buffer does not already hold the corpus tagged `tag`
    /// (`tag` must be non-zero). Cheap to call before every
    /// measurement: after the first upload it is a single compare.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn ensure_input(
        &mut self,
        tag: u64,
        make: impl FnOnce(u64) -> Vec<f32>,
    ) -> Result<(), SimError> {
        debug_assert_ne!(tag, 0, "tag 0 means uninitialized");
        if self.input_tag != tag {
            self.dev.upload_f32(self.input, &make(self.n))?;
            self.input_tag = tag;
        }
        Ok(())
    }

    /// Whether a launch plan of `grid` blocks is measured exactly at
    /// every fidelity: both [`BenchContext::selection_for`] and
    /// [`BenchContext::screen_selection_for`] run every block.
    pub fn exact_regime(grid: u32) -> bool {
        grid <= SAMPLE_GRID_THRESHOLD
    }

    /// The block-selection mode used for a launch plan of `grid`
    /// blocks.
    pub fn selection_for(grid: u32) -> BlockSelection {
        if Self::exact_regime(grid) {
            BlockSelection::All
        } else {
            BlockSelection::Sample { max_blocks: 6 }
        }
    }

    /// The cheaper block-selection mode used by the halving sweep's
    /// screening rung: a minimal block sample whose modelled time
    /// still ranks configurations well enough to pick survivors.
    pub fn screen_selection_for(grid: u32) -> BlockSelection {
        if Self::exact_regime(grid) {
            BlockSelection::All
        } else {
            BlockSelection::Sample { max_blocks: 1 }
        }
    }

    /// Measure one synthesized version (modelled ns).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure(&mut self, sv: &SynthesizedVersion) -> Result<f64, SimError> {
        let plan = sv.plan(self.n);
        self.measure_with(sv, Self::selection_for(plan.grid))
    }

    /// Measure one synthesized version at screening fidelity
    /// (modelled ns). Screening times rank candidates; they are never
    /// reported as final measurements.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure_screen(&mut self, sv: &SynthesizedVersion) -> Result<f64, SimError> {
        let plan = sv.plan(self.n);
        self.measure_with(sv, Self::screen_selection_for(plan.grid))
    }

    /// Measure one synthesized version with site-level profiling
    /// enabled: returns the modelled time (bit-identical to
    /// [`BenchContext::measure`] — profiling never perturbs the
    /// model), the per-kernel [`LaunchProfile`]s of the measurement's
    /// launches in launch order, and the scheduler [`Trace`] of the
    /// measurement. Profiling is switched back off before returning,
    /// so the context can go straight back into an unprofiled sweep.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure_profiled(
        &mut self,
        sv: &SynthesizedVersion,
    ) -> Result<(f64, Vec<LaunchProfile>, Trace), SimError> {
        let plan = sv.plan(self.n);
        self.measure_profiled_with(sv, Self::selection_for(plan.grid))
    }

    /// [`BenchContext::measure_profiled`] under an explicit block
    /// selection ([`BlockSelection::All`] yields `exact`, unscaled
    /// site counters).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure_profiled_with(
        &mut self,
        sv: &SynthesizedVersion,
        selection: BlockSelection,
    ) -> Result<(f64, Vec<LaunchProfile>, Trace), SimError> {
        self.profiled(|ctx| ctx.measure_with(sv, selection))
    }

    /// Run `measure` with site profiling switched on, returning its
    /// modelled time plus the launches' profiles and the trace.
    pub(crate) fn profiled(
        &mut self,
        measure: impl FnOnce(&mut Self) -> Result<f64, SimError>,
    ) -> Result<(f64, Vec<LaunchProfile>, Trace), SimError> {
        self.dev.set_profiling(true);
        let measured = measure(self);
        self.dev.set_profiling(false);
        let time_ns = measured?;
        let profiles =
            self.dev.launches().iter().filter_map(|l| l.profile.clone()).collect();
        Ok((time_ns, profiles, self.dev.take_trace()))
    }

    /// Measure one synthesized version under an explicit block
    /// selection (modelled ns).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure_with(
        &mut self,
        sv: &SynthesizedVersion,
        selection: BlockSelection,
    ) -> Result<f64, SimError> {
        self.dev.reset_clock();
        self.dev.clear_launches();
        // Release the previous measurement's scratch; the timing model
        // is data-independent, so reusing (un-zeroed) scratch cannot
        // perturb modelled times, and exact-value runs overwrite every
        // partial before the second kernel reads it.
        self.dev.free_to(self.mark);
        run_reduction(&mut self.dev, sv, self.input, self.n, selection)?;
        Ok(self.dev.elapsed_ns())
    }

    /// Measure one synthesized non-reduce workload (modelled ns).
    /// Callers whose workload timing is data-dependent (histograms)
    /// must [`BenchContext::ensure_input`] the corpus first.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure_workload(&mut self, sw: &SynthesizedWorkload) -> Result<f64, SimError> {
        let plan = sw.plan(self.n);
        self.measure_workload_with(sw, Self::selection_for(plan.grid))
    }

    /// Measure one synthesized workload at screening fidelity
    /// (modelled ns) — the workload analogue of
    /// [`BenchContext::measure_screen`].
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure_workload_screen(&mut self, sw: &SynthesizedWorkload) -> Result<f64, SimError> {
        let plan = sw.plan(self.n);
        self.measure_workload_with(sw, Self::screen_selection_for(plan.grid))
    }

    /// Measure one synthesized workload under an explicit block
    /// selection (modelled ns).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure_workload_with(
        &mut self,
        sw: &SynthesizedWorkload,
        selection: BlockSelection,
    ) -> Result<f64, SimError> {
        self.dev.reset_clock();
        self.dev.clear_launches();
        self.dev.free_to(self.mark);
        run_workload(&mut self.dev, sw, self.input, self.n, selection)?;
        Ok(self.dev.elapsed_ns())
    }

    /// Run one synthesized workload exactly (every block executes) and
    /// return its output value along with the modelled time. Used for
    /// oracle validation of sweep winners.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_workload_exact(
        &mut self,
        sw: &SynthesizedWorkload,
    ) -> Result<(WorkloadValue, f64), SimError> {
        self.dev.reset_clock();
        self.dev.clear_launches();
        self.dev.free_to(self.mark);
        let value = run_workload(&mut self.dev, sw, self.input, self.n, BlockSelection::All)?;
        Ok((value, self.dev.elapsed_ns()))
    }
}

/// Measure one synthesized version at array size `n` on a fresh
/// device (convenience wrapper over [`BenchContext`]).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure(arch: &ArchConfig, sv: &SynthesizedVersion, n: u64) -> Result<f64, SimError> {
    BenchContext::new(arch, n)?.measure(sv)
}

/// Tune `version` inside an existing context: sweep the tunables,
/// synthesize each candidate, keep the fastest.
///
/// # Errors
///
/// Propagates simulator errors. Tuning combinations that exceed
/// hardware limits (e.g. shared memory) are skipped.
pub fn tune_in(ctx: &mut BenchContext, version: CodeVersion) -> Result<TunedVersion, SimError> {
    let mut best: Option<TunedVersion> = None;
    for &block_size in &BLOCK_SIZES {
        for &coarsen in coarsen_options(version) {
            let tuning = Tuning { block_size, coarsen };
            let Ok(sv) = synthesize_cached(version, tuning, ReduceOp::Sum) else { continue };
            match ctx.measure(&sv) {
                Ok(time_ns) => {
                    if best.as_ref().is_none_or(|b| time_ns < b.time_ns) {
                        best = Some(TunedVersion { synthesized: sv, time_ns });
                    }
                }
                Err(SimError::InvalidLaunch(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }
    best.ok_or_else(|| SimError::InvalidLaunch("no feasible tuning".into()))
}

/// Tune `version` for arrays of `n` elements on `arch`.
///
/// # Errors
///
/// See [`tune_in`].
pub fn tune(arch: &ArchConfig, version: CodeVersion, n: u64) -> Result<TunedVersion, SimError> {
    let mut ctx = BenchContext::new(arch, n)?;
    tune_in(&mut ctx, version)
}

/// Correctness-oriented smoke check used by tests: run the tuned
/// version exactly and compare to the oracle.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn verify(arch: &ArchConfig, tuned: &TunedVersion, data: &[f32]) -> Result<bool, SimError> {
    let mut dev = Device::new(arch.clone());
    let input = upload(&mut dev, data)?;
    let got =
        run_reduction(&mut dev, &tuned.synthesized, input, data.len() as u64, BlockSelection::All)?;
    let expect = cpu_ref::parallel_sum(data, 4);
    let tol = (expect.abs() * 1e-5).max(1e-3);
    Ok((f64::from(got) - expect).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_codegen::synthesize;
    use tangram_passes::planner;

    #[test]
    fn tuning_picks_a_feasible_config() {
        let arch = ArchConfig::maxwell_gtx980();
        let v = planner::fig6_by_label('p').unwrap();
        let tuned = tune(&arch, v, 65_536).unwrap();
        assert!(tuned.time_ns > 0.0);
        assert!(BLOCK_SIZES.contains(&tuned.synthesized.tuning.block_size));
    }

    #[test]
    fn tuned_version_is_correct() {
        let arch = ArchConfig::kepler_k40c();
        let v = planner::fig6_by_label('e').unwrap();
        let tuned = tune(&arch, v, 10_000).unwrap();
        let data: Vec<f32> = (0..10_000).map(|i| ((i % 21) as f32) - 4.0).collect();
        assert!(verify(&arch, &tuned, &data).unwrap());
    }

    #[test]
    fn coarsening_helps_large_arrays_for_compound_versions() {
        let arch = ArchConfig::pascal_p100();
        let v = planner::fig6_by_label('a').unwrap();
        let n = 16 << 20;
        let mut ctx = BenchContext::new(&arch, n).unwrap();
        let c1 = synthesize(v, Tuning { block_size: 256, coarsen: 1 }).unwrap();
        let c8 = synthesize(v, Tuning { block_size: 256, coarsen: 8 }).unwrap();
        let t1 = ctx.measure(&c1).unwrap();
        let t8 = ctx.measure(&c8).unwrap();
        assert!(t8 < t1, "coarsen=8 {t8} should beat coarsen=1 {t1} at 16M");
    }

    #[test]
    fn context_is_reusable() {
        let arch = ArchConfig::kepler_k40c();
        let mut ctx = BenchContext::new(&arch, 4096).unwrap();
        let sv = synthesize(planner::fig6_by_label('n').unwrap(), Tuning::default()).unwrap();
        let a = ctx.measure(&sv).unwrap();
        let b = ctx.measure(&sv).unwrap();
        assert!((a - b).abs() < 1e-6, "measurements are deterministic");
    }
}
