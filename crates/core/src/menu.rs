//! The per-kind candidate menu behind the one sweep engine.
//!
//! Every workload key is tuned by the same engine ([`crate::Session::run`]):
//! store lookup → seed → sanitize → evaluate → confirm → save. What
//! differs between kinds is only *what* is swept, and that is a
//! [`Menu`]: the candidate ids, their tuning axes, how a candidate
//! synthesizes at a tuning, and the cpu-ref [`Oracle`] its output is
//! checked against. Reductions offer the planner's pruned
//! `CodeVersion`s, timed with `ReduceOp::Sum` kernels over an
//! untouched input (the schedule search is shared across operators);
//! every other kind offers its [`WlVariant`]s, timed over the
//! deterministic oracle corpus because histogram contention depends
//! on the data.

use std::sync::Arc;

use gpu_sim::exec::BlockSelection;
use gpu_sim::profile::{LaunchProfile, Trace};
use gpu_sim::{ArchConfig, Device, DevicePtr, ExecMode, RaceReport, SimError};
use tangram_codegen::{
    synthesize_cached, synthesize_workload_cached, CodegenError, SynthesizedVersion,
    SynthesizedWorkload, Tuning,
};
use tangram_passes::planner::{self, CodeVersion};
use tangram_passes::specialize::ReduceOp;
use tangram_passes::workload::{enumerate_variants_for, WlVariant, WorkloadKey, WorkloadKind};

use crate::api::CandidateRaces;
use crate::evaluate::{coarsen_options, Fidelity};
use crate::runner::{run_reduction, run_workload, upload};
use crate::store::corpus_fingerprint;
use crate::tuner::{BenchContext, BLOCK_SIZES, COARSEN};
use crate::workload::{
    expected_value, scan_input, workload_corpus, workload_corpus_fingerprint,
    workload_input_for, WorkloadValue,
};

/// What one sweep chooses among. Candidate `c` is an index into the
/// menu; jobs are `(c, tuning)` pairs in canonical order.
#[derive(Debug, Clone)]
pub(crate) enum Menu {
    /// A plain reduction over the planner's code versions. `op` is
    /// the operator user data is reduced with; timing always runs the
    /// `Sum` kernels.
    Reduce { op: ReduceOp, versions: Vec<CodeVersion> },
    /// Any other kind over its pass-family × distribution variants.
    Variants { key: WorkloadKey, variants: Vec<WlVariant> },
}

/// The synthesized kernels of one candidate at one tuning (shared
/// with the process-wide synthesis caches).
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
    Reduce(Arc<SynthesizedVersion>),
    Workload(Arc<SynthesizedWorkload>),
}

impl Menu {
    /// The menu a sweep of `key` ranges over.
    pub(crate) fn for_key(key: WorkloadKey) -> Menu {
        match key.kind {
            WorkloadKind::Reduce(op) => Menu::Reduce { op, versions: planner::enumerate_pruned() },
            kind => Menu::Variants { key, variants: enumerate_variants_for(kind) },
        }
    }

    /// A `sum-f32` menu over an explicit version list.
    pub(crate) fn of_versions(versions: &[CodeVersion]) -> Menu {
        Menu::Reduce { op: ReduceOp::Sum, versions: versions.to_vec() }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Menu::Reduce { versions, .. } => versions.len(),
            Menu::Variants { variants, .. } => variants.len(),
        }
    }

    /// Display id of candidate `c` (what reports and store records
    /// name the winner by).
    pub(crate) fn id(&self, c: usize) -> String {
        match self {
            Menu::Reduce { versions, .. } => versions[c].to_string(),
            Menu::Variants { variants, .. } => variants[c].id(),
        }
    }

    /// The candidate whose display id is `id`.
    pub(crate) fn find(&self, id: &str) -> Option<usize> {
        (0..self.len()).find(|&c| self.id(c) == id)
    }

    /// The coarsening factors swept for candidate `c` (block sizes
    /// are always [`BLOCK_SIZES`]).
    pub(crate) fn coarsen(&self, c: usize) -> &'static [u32] {
        match self {
            Menu::Reduce { versions, .. } => coarsen_options(versions[c]),
            Menu::Variants { .. } => &COARSEN,
        }
    }

    /// Whether `(c, tuning)` is a job of this menu's sweep space.
    pub(crate) fn contains(&self, c: usize, tuning: Tuning) -> bool {
        BLOCK_SIZES.contains(&tuning.block_size) && self.coarsen(c).contains(&tuning.coarsen)
    }

    /// The store fingerprint of the corpus this menu sweeps.
    pub(crate) fn fingerprint(&self) -> u64 {
        match self {
            Menu::Reduce { versions, .. } => corpus_fingerprint(versions),
            Menu::Variants { .. } => workload_corpus_fingerprint(),
        }
    }

    /// The same menu restricted to the candidates `keep` marks.
    pub(crate) fn retain(&self, keep: &[bool]) -> Menu {
        let mut menu = self.clone();
        let mut mask = keep.iter();
        match &mut menu {
            Menu::Reduce { versions, .. } => versions.retain(|_| *mask.next().unwrap_or(&true)),
            Menu::Variants { variants, .. } => variants.retain(|_| *mask.next().unwrap_or(&true)),
        }
        menu
    }

    /// The kernels timed for candidate `c` at `tuning`.
    pub(crate) fn synthesize(&self, c: usize, tuning: Tuning) -> Result<Kernel, CodegenError> {
        match self {
            Menu::Reduce { versions, .. } => {
                synthesize_cached(versions[c], tuning, ReduceOp::Sum).map(Kernel::Reduce)
            }
            Menu::Variants { key, variants } => {
                synthesize_workload_cached(*key, variants[c], tuning).map(Kernel::Workload)
            }
        }
    }

    /// The kernels that compute the menu's workload on user data:
    /// [`Menu::synthesize`], except that reductions fold with the
    /// key's own operator.
    pub(crate) fn runnable(&self, c: usize, tuning: Tuning) -> Result<Kernel, CodegenError> {
        match self {
            Menu::Reduce { versions, op, .. } => {
                synthesize_cached(versions[c], tuning, *op).map(Kernel::Reduce)
            }
            Menu::Variants { .. } => self.synthesize(c, tuning),
        }
    }

    /// Whether a cold sweep's winner is re-run against the oracle
    /// before it is reported. Variant winners are (their report
    /// carries the checked value); reduce winners are not — an exact
    /// full-size run per sum sweep would cost more than the sweep.
    pub(crate) fn confirms_winner(&self) -> bool {
        matches!(self, Menu::Variants { .. })
    }

    /// The cpu-ref oracle for this menu's workload at `n` elements.
    pub(crate) fn oracle(&self, n: u64) -> Oracle {
        match self {
            // The resilience oracle's integer ramp, compared with a
            // relative tolerance: the device sums in a different
            // association than the f64 reference.
            Menu::Reduce { .. } => {
                let data = scan_input(n);
                let sum = cpu_ref::parallel_sum(&data, 4);
                Oracle { data, expect: Expect::Near(sum) }
            }
            Menu::Variants { key, .. } => {
                let data = workload_input_for(*key, n);
                let want = expected_value(*key, &data);
                Oracle { data, expect: Expect::Exact(want) }
            }
        }
    }

    /// Run candidate `c` once under the race sanitizer at its first
    /// feasible tuning. Reductions run over a zeroed input; variants
    /// over the oracle corpus, since histogram hazards depend on the
    /// data. `None` when the candidate has no feasible tuning or dies
    /// on a hard simulator error — the engine classifies those.
    pub(crate) fn sanitize(
        &self,
        arch: &ArchConfig,
        n: u64,
        c: usize,
    ) -> Result<Option<CandidateRaces>, SimError> {
        let corpus = match self {
            Menu::Reduce { .. } => None,
            Menu::Variants { key, .. } => Some(workload_input_for(*key, n)),
        };
        for &block_size in &BLOCK_SIZES {
            for &coarsen in self.coarsen(c) {
                let Ok(kernel) = self.synthesize(c, Tuning { block_size, coarsen }) else {
                    continue;
                };
                let mut dev = Device::new(arch.clone());
                dev.set_sanitizing(true);
                let input = match &corpus {
                    Some(data) => upload(&mut dev, data)?,
                    None => dev.alloc_f32(n)?,
                };
                match kernel.run(&mut dev, input, n, BlockSelection::All) {
                    Ok(_) => {
                        let reports: Vec<RaceReport> =
                            dev.launches().iter().filter_map(|l| l.races.clone()).collect();
                        return Ok(Some(CandidateRaces {
                            candidate: c,
                            version: self.id(c),
                            block_size,
                            coarsen,
                            reports,
                        }));
                    }
                    Err(SimError::InvalidLaunch(_)) => continue,
                    Err(_) => return Ok(None),
                }
            }
        }
        Ok(None)
    }
}

impl Kernel {
    /// Display id of the code (a `CodeVersion` string or a
    /// [`WlVariant::id`]).
    pub(crate) fn id(&self) -> String {
        match self {
            Kernel::Reduce(sv) => sv.version.to_string(),
            Kernel::Workload(sw) => sw.variant.id(),
        }
    }

    pub(crate) fn tuning(&self) -> Tuning {
        match self {
            Kernel::Reduce(sv) => sv.tuning,
            Kernel::Workload(sw) => sw.tuning,
        }
    }

    /// Blocks of the main launch over `n` elements (what the block
    /// selection of a measurement is chosen by).
    pub(crate) fn grid(&self, n: u64) -> u32 {
        match self {
            Kernel::Reduce(sv) => sv.plan(n).grid,
            Kernel::Workload(sw) => sw.plan(n).grid,
        }
    }

    /// Run over `n` elements at `input` and return the output value.
    pub(crate) fn run(
        &self,
        dev: &mut Device,
        input: DevicePtr,
        n: u64,
        selection: BlockSelection,
    ) -> Result<WorkloadValue, SimError> {
        match self {
            Kernel::Reduce(sv) => {
                run_reduction(dev, sv, input, n, selection).map(WorkloadValue::Scalar)
            }
            Kernel::Workload(sw) => run_workload(dev, sw, input, n, selection),
        }
    }

    /// Modelled time (ns) on a sweep context. Variant timing runs over
    /// the key's corpus, uploaded once per context.
    pub(crate) fn measure(
        &self,
        ctx: &mut BenchContext,
        fidelity: Fidelity,
    ) -> Result<f64, SimError> {
        match (self, fidelity) {
            (Kernel::Reduce(sv), Fidelity::Full) => ctx.measure(sv),
            (Kernel::Reduce(sv), Fidelity::Screen) => ctx.measure_screen(sv),
            (Kernel::Workload(sw), fidelity) => {
                let (tag, make) = workload_corpus(sw.key);
                ctx.ensure_input(tag, make)?;
                match fidelity {
                    Fidelity::Full => ctx.measure_workload(sw),
                    Fidelity::Screen => ctx.measure_workload_screen(sw),
                }
            }
        }
    }

    /// A full-fidelity measurement re-run with site profiling on: the
    /// first launch's [`LaunchProfile`] and the scheduler [`Trace`].
    pub(crate) fn profile(
        &self,
        ctx: &mut BenchContext,
    ) -> Result<(Option<LaunchProfile>, Trace), SimError> {
        let (_, profiles, trace) = match self {
            Kernel::Reduce(sv) => ctx.measure_profiled(sv)?,
            Kernel::Workload(sw) => {
                let (tag, make) = workload_corpus(sw.key);
                ctx.ensure_input(tag, make)?;
                ctx.profiled(|ctx| ctx.measure_workload(sw))?
            }
        };
        Ok((profiles.into_iter().next(), trace))
    }
}

/// The cpu-ref oracle a menu's outputs are checked against: the
/// deterministic input corpus and its expected value.
#[derive(Debug)]
pub(crate) struct Oracle {
    pub(crate) data: Vec<f32>,
    expect: Expect,
}

#[derive(Debug)]
enum Expect {
    /// An f64 reference sum, matched within a relative tolerance.
    Near(f64),
    /// An exact value (packed arg-pairs, bins, raw output words).
    Exact(WorkloadValue),
}

impl Oracle {
    pub(crate) fn matches(&self, got: &WorkloadValue) -> bool {
        match (&self.expect, got) {
            (Expect::Near(expect), WorkloadValue::Scalar(got)) => {
                let tol = (expect.abs() * 1e-5).max(1e-3);
                (f64::from(*got) - expect).abs() <= tol
            }
            (Expect::Exact(want), got) => want == got,
            (Expect::Near(_), _) => false,
        }
    }

    /// One-line display of the expected value.
    pub(crate) fn expected(&self) -> String {
        match &self.expect {
            Expect::Near(sum) => format!("scalar={sum}"),
            Expect::Exact(want) => want.summary(),
        }
    }

    /// Run `kernel` exactly over the oracle corpus on a fresh device
    /// under `interp`; the caller checks the value with
    /// [`Oracle::matches`].
    pub(crate) fn run(
        &self,
        arch: &ArchConfig,
        interp: ExecMode,
        kernel: &Kernel,
    ) -> Result<WorkloadValue, SimError> {
        let mut dev = Device::new(arch.clone());
        dev.set_exec_mode(interp);
        let input = upload(&mut dev, &self.data)?;
        kernel.run(&mut dev, input, self.data.len() as u64, BlockSelection::All)
    }
}
