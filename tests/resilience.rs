//! Robustness-layer tests: traps instead of panics, barrier-deadlock
//! detection, deterministic fault injection, and graceful degradation
//! of the selection sweep.

use gpu_sim::exec::BlockSelection;
use gpu_sim::isa::{CmpOp, Operand, Sreg, Ty};
use gpu_sim::kernel::KernelBuilder;
use gpu_sim::{ArchConfig, Device, FaultPlan, LaunchDims, SimError};
use proptest::prelude::*;
use tangram::evaluate::{best_measurement, ContextPool, EvalOptions};
use tangram::resilience::{evaluate_all_report, ResilienceOptions};
use tangram::tangram_codegen::{synthesize, Tuning};
use tangram::tangram_passes::planner;
use tangram::{run_reduction, upload};

mod support;

/// A kernel in which warp 0 waits at a barrier that warp 1 never
/// reaches (it branches straight to exit and retires) must trap as
/// `BarrierDeadlock` — the silent-release behavior this detector
/// replaced would mask real divergent-barrier bugs.
#[test]
fn divergent_barrier_returns_deadlock_error() {
    let mut b = KernelBuilder::new("divergent_bar");
    let p = b.pred();
    b.setp(CmpOp::Ge, Ty::U32, p, Operand::Sreg(Sreg::TidX), Operand::ImmI(32));
    let skip = b.label();
    b.bra_if(p, true, skip);
    b.bar();
    b.place(skip);
    b.exit();
    let kernel = b.finish().unwrap();

    let mut dev = Device::new(ArchConfig::maxwell_gtx980());
    let err = dev.launch_simple(&kernel, LaunchDims::new(1, 64), &[]).unwrap_err();
    match err {
        SimError::BarrierDeadlock { waiting_warps, .. } => {
            assert_eq!(waiting_warps, vec![0], "warp 0 is the one left waiting");
        }
        other => panic!("expected BarrierDeadlock, got {other:?}"),
    }
}

/// The same fault seed must inject the same faults on every run:
/// campaigns replay bit-for-bit.
#[test]
fn same_seed_injects_identical_faults() {
    let sv = synthesize(
        planner::fig6_by_label('a').unwrap(),
        Tuning { block_size: 128, coarsen: 4 },
    )
    .unwrap();
    let data: Vec<f32> = (0..4096).map(|i| ((i % 13) as f32) - 2.0).collect();
    let run = |seed: u64| {
        let mut dev = Device::new(ArchConfig::kepler_k40c());
        let input = upload(&mut dev, &data).unwrap();
        dev.set_fault_plan(Some(FaultPlan::seeded(seed, 2_000)));
        let got = run_reduction(&mut dev, &sv, input, 4096, BlockSelection::All);
        (format!("{got:?}"), format!("{:?}", dev.fault_log()))
    };
    let (v1, log1) = run(99);
    let (v2, log2) = run(99);
    assert!(!log1.contains("[]"), "rate 2000ppm must inject at least one fault");
    assert_eq!(v1, v2, "same seed, same outcome");
    assert_eq!(log1, log2, "same seed, same injected faults");
    let (_, log3) = run(100);
    assert_ne!(log1, log3, "different seed, different fault stream");
}

/// Same fault seed ⇒ identical `ResilienceReport` and measurements
/// for every `--threads` value.
#[test]
fn fault_campaign_is_thread_count_invariant() {
    let arch = ArchConfig::pascal_p100();
    let cands = support::fig6_subset();
    let pool = ContextPool::new(&arch, 2_048);
    let res = ResilienceOptions::campaign(7, 400);
    let (m1, r1) = evaluate_all_report(&pool, cands, &EvalOptions::serial(), &res).unwrap();
    let (m2, r2) =
        evaluate_all_report(&pool, cands, &EvalOptions::with_threads(3), &res).unwrap();
    assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    let times = |ms: &[Option<tangram::evaluate::Measurement>]| -> Vec<Option<u64>> {
        ms.iter().map(|m| m.as_ref().map(|m| m.time_ns.to_bits())).collect()
    };
    assert_eq!(times(&m1), times(&m2));
}

/// A fault campaign never silently reports a wrong winner: accepted
/// measurements are fault-free and bit-identical to the clean sweep,
/// and every injected fault is recovered or quarantined.
#[test]
fn campaign_winner_matches_clean_sweep() {
    let arch = ArchConfig::maxwell_gtx980();
    let cands = support::fig6_subset();
    let pool = ContextPool::new(&arch, 4_096);
    let opts = EvalOptions::serial();
    let (clean, _) =
        evaluate_all_report(&pool, cands, &opts, &ResilienceOptions::default()).unwrap();
    let (faulty, report) =
        evaluate_all_report(&pool, cands, &opts, &ResilienceOptions::campaign(11, 500)).unwrap();
    assert!(report.faults_injected > 0);
    assert_eq!(report.silent, 0);
    if report.quarantined == 0 {
        assert_eq!(
            report.faults_recovered,
            report.faults_injected,
            "with no quarantines every fault must be recovered: {}",
            report.summary_line()
        );
    }
    let (cb, fb) = (best_measurement(&clean).unwrap(), best_measurement(&faulty).unwrap());
    assert_eq!(cb.version, fb.version);
    assert_eq!(cb.time_ns.to_bits(), fb.time_ns.to_bits());
}

/// With a single attempt there is no clean retry: jobs whose only
/// attempt faulted must be quarantined, never accepted.
#[test]
fn single_attempt_campaign_quarantines_faulted_jobs() {
    let arch = ArchConfig::kepler_k40c();
    let cands = support::fig6_subset();
    let pool = ContextPool::new(&arch, 4_096);
    let mut res = ResilienceOptions::campaign(3, 2_000);
    res.max_attempts = 1;
    let (_, report) =
        evaluate_all_report(&pool, cands, &EvalOptions::serial(), &res).unwrap();
    assert!(report.faults_injected > 0, "high rate must inject: {}", report.summary_line());
    assert_eq!(report.silent, 0);
    assert_eq!(report.faults_recovered, 0, "no retries, so nothing is recovered");
    assert!(report.quarantined > 0, "faulted jobs must be quarantined: {}", report.summary_line());
    assert_eq!(
        report.measured + report.infeasible + report.quarantined,
        report.total_jobs
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Every Fig. 6 corpus variant terminates without a trap under an
    /// empty `FaultPlan` and matches the CPU oracle — the trap layer
    /// and the (inactive) fault hook change nothing for healthy
    /// kernels.
    #[test]
    fn fig6_corpus_traps_nothing_under_empty_plan(
        which in 0usize..16,
        block_exp in 0u32..4,
        n in 1usize..4000,
        seed in any::<u32>(),
    ) {
        let (_, version) = planner::fig6_versions()[which];
        let tuning = Tuning { block_size: 32 << block_exp, coarsen: 2 };
        let values: Vec<f32> = (0..n)
            .map(|i| (((i as u32).wrapping_mul(seed | 1) >> 7) % 9) as f32 - 4.0)
            .collect();
        let expect: f32 = values.iter().sum();
        let sv = synthesize(version, tuning).unwrap();
        let mut dev = Device::new(ArchConfig::maxwell_gtx980());
        let input = upload(&mut dev, &values).unwrap();
        // An empty plan must behave exactly like no plan at all.
        dev.set_fault_plan(Some(FaultPlan::empty(seed.into())));
        let got = run_reduction(&mut dev, &sv, input, n as u64, BlockSelection::All);
        prop_assert!(dev.fault_log().is_empty(), "empty plan must inject nothing");
        match got {
            Ok(v) => prop_assert_eq!(v, expect, "version {} n={}", sv.id(), n),
            Err(e) => prop_assert!(false, "trap on {}: {}", sv.id(), e),
        }
    }
}
