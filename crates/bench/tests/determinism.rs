//! Thread-count determinism: the parallel evaluation engine must
//! produce bit-identical selection tables and figure JSON for
//! `threads = 1` and `threads = 4`, on every paper architecture.

use gpu_sim::ArchConfig;
use tangram::evaluate::EvalOptions;
use tangram::{SelectionRow, Session};
use tangram_bench::{arch_series_session, ArchSeries, BaselineCache};

const SIZES: [u64; 2] = [1024, 16_384];

fn selection_table(arch: &ArchConfig, opts: EvalOptions) -> Vec<SelectionRow> {
    let session = Session::new(arch.clone()).eval(opts);
    SIZES.iter().map(|&n| session.select_best(n).unwrap().row).collect()
}

fn series(arch: &ArchConfig, opts: EvalOptions) -> ArchSeries {
    let session = Session::new(arch.clone()).eval(opts);
    arch_series_session(&session, &SIZES, &mut BaselineCache::new()).unwrap().series
}

#[test]
fn selection_rows_are_identical_across_thread_counts() {
    for arch in ArchConfig::paper_archs() {
        let serial = selection_table(&arch, EvalOptions::serial());
        let parallel = selection_table(&arch, EvalOptions::with_threads(4));
        let a = serde_json::to_string_pretty(&serial).unwrap();
        let b = serde_json::to_string_pretty(&parallel).unwrap();
        assert_eq!(a, b, "selection table differs on {}", arch.id);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.time_ns.to_bits(), p.time_ns.to_bits(), "modelled ns on {}", arch.id);
        }
    }
}

#[test]
fn figure_json_is_identical_across_thread_counts() {
    for arch in ArchConfig::paper_archs() {
        let serial = series(&arch, EvalOptions::serial());
        let parallel = series(&arch, EvalOptions::with_threads(4));
        let a = serde_json::to_string_pretty(&serial).unwrap();
        let b = serde_json::to_string_pretty(&parallel).unwrap();
        assert_eq!(a, b, "figure series differs on {}", arch.id);
    }
}
