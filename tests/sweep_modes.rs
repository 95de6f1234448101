//! Sweep-strategy equivalence on the full pruned corpus: the
//! successive-halving sweep must select the exhaustive sweep's winner
//! — same version, same tuning, bit-identical modelled time — for
//! every paper architecture, and the interpreter hot path must not
//! change any measurement.

use gpu_sim::{ArchConfig, ExecMode};
use tangram::api::Session;
use tangram::evaluate::{ContextPool, EvalOptions, Measurement, SweepMode};
use tangram::resilience::{evaluate_all_report, ResilienceOptions};
use tangram::tangram_passes::planner::CodeVersion;
mod support;

/// Every job slot of a sweep over `candidates` under the default
/// resilience policy (no faults, no validation), which yields the
/// clean engine's slots bit for bit (the engine's own unit tests pin
/// that equivalence).
fn slots(
    pool: &ContextPool,
    candidates: &[CodeVersion],
    opts: &EvalOptions,
) -> Vec<Option<Measurement>> {
    evaluate_all_report(pool, candidates, opts, &ResilienceOptions::default()).unwrap().0
}

#[test]
fn halving_winner_matches_exhaustive_on_full_corpus() {
    for arch in ArchConfig::paper_archs() {
        let session = Session::new(arch.clone());
        let exhaustive = session.clone().eval(EvalOptions::default()).select_best(65_536);
        let exhaustive = exhaustive.unwrap();
        let halving = session
            .eval(EvalOptions::default().with_sweep(SweepMode::Halving))
            .select_best(65_536)
            .unwrap();

        let (be, bh) = (&exhaustive.row, &halving.row);
        assert_eq!(be.version, bh.version, "winner version differs on {}", arch.id);
        assert_eq!(
            (be.block_size, be.coarsen),
            (bh.block_size, bh.coarsen),
            "winner tuning differs on {}",
            arch.id
        );
        assert_eq!(
            be.time_ns.to_bits(),
            bh.time_ns.to_bits(),
            "winner time differs on {}",
            arch.id
        );

        // Both sweeps see the same feasible space, and the screen must
        // have pruned a substantial share of it.
        let (e, h) = (&exhaustive.resilience, &halving.resilience);
        assert_eq!(e.total_jobs, h.total_jobs, "on {}", arch.id);
        assert_eq!(e.infeasible, h.infeasible, "on {}", arch.id);
        assert_eq!(e.measured, h.measured + h.pruned, "on {}", arch.id);
        assert!(
            h.pruned * 2 > e.measured,
            "halving pruned only {} of {} feasible jobs on {}",
            h.pruned,
            e.measured,
            arch.id
        );
    }
}

#[test]
fn interpreter_hot_path_does_not_change_measurements() {
    // A fig6 subset keeps this cheap; the full differential coverage
    // lives in the prop_exec_modes property test.
    let candidates = support::fig6_subset();
    let arch = ArchConfig::kepler_k40c();
    let uop = ContextPool::builder(&arch, 32_768).exec_mode(ExecMode::Predecoded).build();
    let opts = EvalOptions::serial();
    let a = slots(&uop, candidates, &opts);
    for mode in [ExecMode::Reference, ExecMode::Compiled] {
        let pool = ContextPool::builder(&arch, 32_768).exec_mode(mode).build();
        let b = slots(&pool, candidates, &opts);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (None, None) => {}
                (Some(p), Some(q)) => {
                    assert_eq!(p.tuning, q.tuning, "tuning differs under {}", mode.id());
                    assert_eq!(
                        p.time_ns.to_bits(),
                        q.time_ns.to_bits(),
                        "time differs under {}",
                        mode.id()
                    );
                }
                _ => panic!("feasibility differs between uop and {}", mode.id()),
            }
        }
    }
}
