//! Analytic timing model.
//!
//! The functional interpreter gathers [`LaunchStats`]; this module
//! converts them into nanoseconds under an architecture's cost
//! parameters. The model is a calibrated roofline with first-class
//! treatment of the effects the paper's evaluation hinges on:
//!
//! * **kernel-launch overhead** — dominates small arrays and
//!   penalizes the pruned two-kernel versions (§IV-B);
//! * **occupancy and latency hiding** — smaller shared-memory
//!   footprints (shuffle / shared-atomic variants) admit more resident
//!   blocks and hide latency better (§III-B, §III-C);
//! * **shared-atomic microarchitecture** — Kepler's software
//!   lock-update-unlock loop vs Maxwell/Pascal native units (§II-A2);
//! * **global-atomic serialization** — same-address chains run at the
//!   L2 atomic-unit rate;
//! * **achieved DRAM bandwidth** — scalar vs vectorized (CUB-style)
//!   access streams (§IV-C1).

use serde::{Deserialize, Serialize};

use crate::arch::ArchConfig;
use crate::exec::LaunchDims;
use crate::isa::InstrClass;
use crate::kernel::Kernel;
use crate::stats::LaunchStats;

/// What bound a launch's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Limiter {
    /// Instruction-issue throughput.
    Compute,
    /// DRAM bandwidth.
    Memory,
    /// Global atomic serialization.
    Atomics,
}

/// Timing breakdown for one kernel launch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LaunchTiming {
    /// Total modelled wall time in nanoseconds, including the launch
    /// overhead.
    pub time_ns: f64,
    /// Launch (driver + hardware dispatch) overhead.
    pub launch_ns: f64,
    /// Instruction-issue component.
    pub compute_ns: f64,
    /// DRAM component.
    pub memory_ns: f64,
    /// Global-atomic serialization component.
    pub atomic_ns: f64,
    /// Exposed memory latency on the critical path.
    pub latency_ns: f64,
    /// Resident blocks per SM (occupancy model).
    pub blocks_per_sm: u32,
    /// Achieved occupancy: resident warps / maximum warps.
    pub occupancy: f64,
    /// Which roofline term dominated.
    pub limiter: Limiter,
}

/// Per-launch modelling options.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingOptions {
    /// Override the achieved-bandwidth efficiency factor. Used by the
    /// Kokkos-like baseline to model the paper's observation that its
    /// staged, compute-bound kernels outrun a plain streaming kernel
    /// on very large inputs (§IV-C2); see DESIGN.md for why this is a
    /// modelled input rather than a derived quantity.
    pub bw_efficiency_override: Option<f64>,
    /// Extra issue-cycles per warp-instruction (models heavier
    /// per-instruction kernels without emitting every instruction).
    pub extra_issue_cycles: f64,
}

/// Issue-cycle cost of one warp instruction of a class (excluding the
/// contention terms handled separately).
fn issue_cost(class: InstrClass) -> f64 {
    match class {
        InstrClass::Alu | InstrClass::Fp => 1.0,
        InstrClass::Shfl => 1.0,
        InstrClass::LdShared | InstrClass::StShared => 2.0,
        InstrClass::LdGlobal | InstrClass::StGlobal => 4.0,
        InstrClass::AtomGlobal => 4.0,
        // Base handled here; contention added from the arch model.
        InstrClass::AtomShared => 0.0,
        InstrClass::Bar => 8.0,
        InstrClass::Branch => 1.0,
        InstrClass::Other => 1.0,
    }
}

/// Compute the modelled execution time of a launch.
///
/// `stats` must come from executing `kernel` with `dims` (scaled stats
/// from sampled execution are fine — the model is linear in them).
pub fn time_launch(
    arch: &ArchConfig,
    kernel: &Kernel,
    dims: LaunchDims,
    stats: &LaunchStats,
    opts: TimingOptions,
) -> LaunchTiming {
    let bw_eff = opts.bw_efficiency_override.unwrap_or_else(|| {
        let frac_vec = stats.vector_load_fraction();
        arch.bw_eff_scalar + (arch.bw_eff_vector - arch.bw_eff_scalar) * frac_vec
    });
    roofline(arch, kernel, dims, stats, opts, bw_eff, false)
}

/// A proven lower bound on [`time_launch`] of any launch whose final
/// statistics dominate `stats` counter by counter — e.g. the partial
/// statistics of the blocks a launch has run so far.
///
/// It is `time_launch`'s roofline with every term made nondecreasing
/// in the counters: memory is priced at the best bandwidth efficiency
/// the arch reaches (`time_launch` interpolates between the scalar and
/// vector efficiencies by the vector fraction, which is not monotone),
/// and the shared-atomic term is replaced by a minorant that is
/// monotone in both its counters. Occupancy, latency hiding and the SMs
/// in use depend only on `kernel` and `dims`, and IEEE rounding is
/// monotone, so the bound never exceeds the final `time_ns` in `f64`.
/// It bounds launches timed with the default [`TimingOptions`].
pub fn launch_lower_bound(
    arch: &ArchConfig,
    kernel: &Kernel,
    dims: LaunchDims,
    stats: &LaunchStats,
) -> f64 {
    // At vector fraction 1 the interpolation evaluates exactly this
    // expression, and a smaller fraction never rounds above it.
    let best = arch.bw_eff_scalar + (arch.bw_eff_vector - arch.bw_eff_scalar);
    let bw_eff = best.max(arch.bw_eff_scalar);
    roofline(arch, kernel, dims, stats, TimingOptions::default(), bw_eff, true).time_ns
}

/// An abort ceiling for one launch of a multi-launch measurement: the
/// launch is abandoned once the measurement's clock provably ends
/// strictly above `limit_ns` (see [`Ceiling::exceeded_by`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ceiling {
    /// The time the whole measurement must not provably exceed (ns).
    pub limit_ns: f64,
    /// Modelled time already on the clock before this launch (ns).
    pub base_ns: f64,
    /// Launches the measurement makes after this one; each costs at
    /// least the launch overhead.
    pub launches_after: u32,
}

impl Ceiling {
    /// Whether a launch whose time is at least `bound_ns` ends the
    /// measurement strictly above the limit. The clock is summed in
    /// the order the device advances it, so every partial sum is a
    /// lower bound on the real one.
    pub fn exceeded_by(&self, arch: &ArchConfig, bound_ns: f64) -> bool {
        let mut end = self.base_ns + bound_ns;
        for _ in 0..self.launches_after {
            end += arch.launch_overhead_ns;
        }
        end > self.limit_ns
    }
}

/// The roofline behind [`time_launch`] (`lower == false`) and
/// [`launch_lower_bound`] (`lower == true`), with memory priced at
/// `bw_eff`.
fn roofline(
    arch: &ArchConfig,
    kernel: &Kernel,
    dims: LaunchDims,
    stats: &LaunchStats,
    opts: TimingOptions,
    bw_eff: f64,
    lower: bool,
) -> LaunchTiming {
    let smem = kernel.smem_bytes(dims.dynamic_smem);
    // Virtual registers are SSA-like and overstate pressure; clamp to
    // a plausible allocated range.
    let regs = u32::from(kernel.num_regs).clamp(16, 128);
    let blocks_per_sm = arch.blocks_per_sm(dims.block, smem, regs).max(1);
    let warps_per_block = dims.block.div_ceil(arch.warp_size);
    let active_warps = (blocks_per_sm * warps_per_block).min(arch.max_threads_per_sm / arch.warp_size);
    let occupancy = f64::from(active_warps) / f64::from(arch.max_threads_per_sm / arch.warp_size);
    let hide = (f64::from(active_warps) / arch.hide_warps).clamp(arch.min_hide, 1.0);

    // ---- compute term -------------------------------------------------
    // Accumulate in the canonical class order (ClassCounts::iter) so
    // the floating-point sum is bit-identical across runs — hash-map
    // iteration here used to make modelled times nondeterministic in
    // the last few ulps.
    let mut issue_cycles = 0.0f64;
    for (class, count) in stats.warp_instrs.iter() {
        issue_cycles += count as f64 * issue_cost(class);
    }
    issue_cycles += stats.total_warp_instrs() as f64 * opts.extra_issue_cycles;
    issue_cycles += stats.shared_bank_conflict_cycles as f64;
    issue_cycles += stats.fault_stall_cycles as f64;
    // Shared atomics: per-issue base plus serialization, under the
    // generation's implementation.
    let shared_issues = stats.class(InstrClass::AtomShared) as f64;
    if shared_issues > 0.0 {
        let base = arch.shared_atomic.warp_cost(1) as f64;
        let per_conflict = arch.shared_atomic.warp_cost(2) as f64 - base;
        let serial = stats.shared_atomic_serial as f64;
        issue_cycles += if lower {
            // issues·base + max(0, serial − issues)·per_conflict falls
            // as issues grow when per_conflict > base (Kepler's lock
            // loop). With m = min(base, per_conflict) this minorant is
            // monotone in both counters, exact when base ≥ per_conflict,
            // and exact integer arithmetic far below 2^53.
            let m = base.min(per_conflict);
            shared_issues * (base - m) + shared_issues.max(serial) * m
        } else {
            let extra_conflicts = (serial - shared_issues).max(0.0);
            shared_issues * base + extra_conflicts * per_conflict
        };
    }
    let sms_used = f64::from(arch.sm_count.min(dims.grid.max(1)));
    let per_sm_throughput = arch.issue_width * hide;
    let compute_ns = issue_cycles / (sms_used * per_sm_throughput) / arch.cycles_per_ns();

    // ---- memory term --------------------------------------------------
    let eff_bw_bytes_per_ns = arch.dram_bw_gbps * bw_eff; // GB/s == bytes/ns
    let memory_ns = if eff_bw_bytes_per_ns > 0.0 {
        stats.dram_bytes() as f64 / eff_bw_bytes_per_ns
    } else {
        0.0
    };

    // ---- global-atomic term --------------------------------------------
    let scope_discount = if arch.has_scoped_atomics { arch.cta_scope_discount } else { 1.0 };
    let chain_ns = stats.global_atomic_max_chain as f64 / arch.global_atomic_chain_rate;
    let thru_ns = stats.global_atomics as f64 / arch.global_atomic_rate * scope_discount;
    let atomic_ns = chain_ns.max(thru_ns);

    // ---- latency exposure ----------------------------------------------
    let touches_memory = stats.global_load_transactions
        + stats.global_store_transactions
        + stats.global_atomics
        > 0;
    let latency_ns = if touches_memory { arch.mem_latency_ns } else { 0.0 };

    let body = compute_ns.max(memory_ns).max(atomic_ns);
    let limiter = if body == memory_ns && memory_ns >= compute_ns {
        Limiter::Memory
    } else if body == atomic_ns {
        Limiter::Atomics
    } else {
        Limiter::Compute
    };
    LaunchTiming {
        time_ns: arch.launch_overhead_ns + body + latency_ns,
        launch_ns: arch.launch_overhead_ns,
        compute_ns,
        memory_ns,
        atomic_ns,
        latency_ns,
        blocks_per_sm,
        occupancy,
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Ty;
    use crate::kernel::{Kernel, ParamKind};

    fn kernel_with_smem(smem: u64) -> Kernel {
        Kernel {
            name: "k".into(),
            instrs: vec![crate::isa::Instr::Exit],
            params: vec![ParamKind::Scalar(Ty::U32)],
            static_smem: smem,
            dynamic_smem: false,
            num_regs: 16,
            num_preds: 1,
            cfg_cache: Default::default(),
            uop_cache: Default::default(),
            jit_cache: Default::default(),
        }
    }

    fn stats_with(f: impl FnOnce(&mut LaunchStats)) -> LaunchStats {
        let mut s = LaunchStats::default();
        f(&mut s);
        s
    }

    #[test]
    fn empty_kernel_costs_launch_overhead() {
        let arch = ArchConfig::pascal_p100();
        let k = kernel_with_smem(0);
        let t = time_launch(&arch, &k, LaunchDims::new(1, 32), &LaunchStats::default(), TimingOptions::default());
        assert!((t.time_ns - arch.launch_overhead_ns).abs() < 1.0);
        assert_eq!(t.latency_ns, 0.0);
    }

    #[test]
    fn memory_bound_large_stream() {
        let arch = ArchConfig::maxwell_gtx980();
        let k = kernel_with_smem(0);
        // 64 MiB of perfectly coalesced scalar loads.
        let s = stats_with(|s| {
            s.global_load_transactions = 64 * 1024 * 1024 / 128;
            s.global_load_bytes_useful = 64 * 1024 * 1024;
            s.issue(InstrClass::LdGlobal, 32, 32);
        });
        let t = time_launch(&arch, &k, LaunchDims::new(65536, 256), &s, TimingOptions::default());
        assert_eq!(t.limiter, Limiter::Memory);
        let expect = 64.0 * 1024.0 * 1024.0 / (224.0 * arch.bw_eff_scalar);
        assert!((t.memory_ns - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn vectorized_loads_reach_higher_bandwidth() {
        let arch = ArchConfig::kepler_k40c();
        let k = kernel_with_smem(0);
        let scalar = stats_with(|s| {
            s.global_load_transactions = 1 << 20;
            s.global_load_bytes_useful = 128 << 20;
        });
        let vector = stats_with(|s| {
            s.global_load_transactions = 1 << 20;
            s.global_load_bytes_useful = 128 << 20;
            s.global_vector_bytes = 128 << 20;
        });
        let dims = LaunchDims::new(4096, 256);
        let ts = time_launch(&arch, &k, dims, &scalar, TimingOptions::default());
        let tv = time_launch(&arch, &k, dims, &vector, TimingOptions::default());
        assert!(tv.memory_ns < ts.memory_ns);
        let ratio = ts.memory_ns / tv.memory_ns;
        let expect = arch.bw_eff_vector / arch.bw_eff_scalar;
        assert!((ratio - expect).abs() < 1e-9);
    }

    #[test]
    fn kepler_shared_atomics_cost_more_than_maxwell() {
        let kep = ArchConfig::kepler_k40c();
        let max = ArchConfig::maxwell_gtx980();
        let k = kernel_with_smem(4);
        // 1000 fully-conflicting warp atomics.
        let s = stats_with(|s| {
            for _ in 0..1000 {
                s.issue(InstrClass::AtomShared, 32, 32);
            }
            s.shared_atomics = 32_000;
            s.shared_atomic_serial = 32_000;
        });
        let dims = LaunchDims::new(32, 256);
        let tk = time_launch(&kep, &k, dims, &s, TimingOptions::default());
        let tm = time_launch(&max, &k, dims, &s, TimingOptions::default());
        assert!(tk.compute_ns > 5.0 * tm.compute_ns, "kepler {} vs maxwell {}", tk.compute_ns, tm.compute_ns);
    }

    #[test]
    fn global_atomic_chain_serializes() {
        let arch = ArchConfig::kepler_k40c();
        let k = kernel_with_smem(0);
        let s = stats_with(|s| {
            s.global_atomics = 100_000;
            s.global_atomic_max_chain = 100_000;
        });
        let t = time_launch(&arch, &k, LaunchDims::new(1024, 128), &s, TimingOptions::default());
        assert_eq!(t.limiter, Limiter::Atomics);
        assert!(t.atomic_ns >= 100_000.0 / arch.global_atomic_chain_rate);
    }

    #[test]
    fn smaller_smem_footprint_improves_occupancy_and_time() {
        let arch = ArchConfig::maxwell_gtx980();
        let fat = kernel_with_smem(24 * 1024);
        let slim = kernel_with_smem(256);
        let s = stats_with(|s| {
            for _ in 0..200_000 {
                s.issue(InstrClass::Alu, 32, 32);
            }
        });
        let dims = LaunchDims::new(64, 128);
        let tf = time_launch(&arch, &fat, dims, &s, TimingOptions::default());
        let tsl = time_launch(&arch, &slim, dims, &s, TimingOptions::default());
        assert!(tsl.blocks_per_sm > tf.blocks_per_sm);
        assert!(tsl.compute_ns < tf.compute_ns);
    }

    #[test]
    fn bw_override_used_by_kokkos_model() {
        let arch = ArchConfig::kepler_k40c();
        let k = kernel_with_smem(0);
        let s = stats_with(|s| {
            s.global_load_transactions = 1 << 20;
            s.global_load_bytes_useful = 128 << 20;
        });
        let dims = LaunchDims::new(4096, 256);
        let base = time_launch(&arch, &k, dims, &s, TimingOptions::default());
        let boosted = time_launch(
            &arch,
            &k,
            dims,
            &s,
            TimingOptions { bw_efficiency_override: Some(2.0), ..Default::default() },
        );
        assert!(boosted.memory_ns < base.memory_ns / 2.5);
    }
}
