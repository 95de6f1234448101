//! Soundness of the simulator's abort ceiling, which the halving sweep
//! uses to abandon exact-regime jobs that provably lose: over every
//! measurement of the pruned reduce corpus and of every workload
//! variant, a ceiling equal to the measurement's own final time never
//! abandons it. Every check along the way (before the kernel is
//! compiled and after each block of each launch) adds
//! `gpu_sim::launch_lower_bound` of the blocks run so far to the clock
//! and to the overhead of the launches still planned, so this holds
//! only if none of those sums ever exceeds the final time. A ceiling of
//! zero abandons every measurement, so the ceiling is in force.

use gpu_sim::exec::BlockSelection;
use gpu_sim::{ArchConfig, Device, DevicePtr, SimError};
use tangram::tangram_codegen::{synthesize_cached, synthesize_workload_cached, Tuning};
use tangram::tangram_passes::planner::enumerate_pruned;
use tangram::{
    enumerate_variants_for, run_reduction, run_workload, upload, Dtype, ReduceOp, WorkloadKey,
};

const SIZES: [u64; 2] = [4096, 3000];

fn device(arch: &ArchConfig, n: u64) -> (Device, DevicePtr) {
    let mut dev = Device::new(arch.clone());
    let data: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32) - 6.0).collect();
    let input = upload(&mut dev, &data).unwrap();
    (dev, input)
}

/// Run `measure` on a fresh device unbounded, then under a ceiling of
/// its final clock, then under a ceiling of zero.
fn check(
    arch: &ArchConfig,
    n: u64,
    ctx: &str,
    measure: impl Fn(&mut Device, DevicePtr) -> Result<(), SimError>,
) {
    let (mut dev, input) = device(arch, n);
    measure(&mut dev, input).unwrap();
    assert!(dev.launches().iter().all(|l| l.exact), "{ctx}: the check needs exact launches");
    let final_ns = dev.elapsed_ns();

    let (mut dev, input) = device(arch, n);
    dev.set_ceiling(Some(final_ns));
    if let Err(e) = measure(&mut dev, input) {
        panic!("{ctx}: a ceiling at the final time {final_ns} ns abandoned the measurement: {e}");
    }
    assert_eq!(dev.elapsed_ns().to_bits(), final_ns.to_bits(), "{ctx}: the ceiling moved the time");

    let (mut dev, input) = device(arch, n);
    dev.set_ceiling(Some(0.0));
    assert!(
        matches!(measure(&mut dev, input), Err(SimError::CeilingExceeded { blocks_run: 0, .. })),
        "{ctx}: a zero ceiling must abandon the first launch before any block"
    );
}

#[test]
fn reduce_corpus_never_exceeds_a_ceiling_at_its_final_time() {
    for arch in ArchConfig::paper_archs() {
        for n in SIZES {
            for v in enumerate_pruned() {
                let sv = synthesize_cached(v, Tuning::default(), ReduceOp::Sum).unwrap();
                check(&arch, n, &format!("{} n={n} {v}", arch.id), |dev, input| {
                    run_reduction(dev, &sv, input, n, BlockSelection::All).map(drop)
                });
            }
        }
    }
}

#[test]
fn workload_variants_never_exceed_a_ceiling_at_their_final_time() {
    let keys = [
        WorkloadKey::argmax(),
        WorkloadKey::argmin(),
        WorkloadKey::histogram(64),
        WorkloadKey::scan(Dtype::F32),
        WorkloadKey::exscan(Dtype::F32),
        WorkloadKey::segsum(Dtype::F32),
    ];
    for arch in ArchConfig::paper_archs() {
        for n in SIZES {
            for key in keys {
                for variant in enumerate_variants_for(key.kind) {
                    let sw = synthesize_workload_cached(key, variant, Tuning::default()).unwrap();
                    check(&arch, n, &format!("{} n={n} {key} {variant}", arch.id), |dev, input| {
                        run_workload(dev, &sw, input, n, BlockSelection::All).map(drop)
                    });
                }
            }
        }
    }
}
