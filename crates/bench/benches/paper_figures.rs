//! Criterion benches reporting the *modelled* GPU times behind the
//! paper's Figs. 7–10.
//!
//! Each measurement is the simulator cost model's nanoseconds for one
//! reduction (returned through `iter_custom`), so `cargo bench`
//! output reads as the figure data: compare `tangram/<n>` against
//! `cub/<n>` and `kokkos/<n>` within a group to recover the speedup
//! series. The `figures` binary prints the same data as tables.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::ArchConfig;
use tangram::Session;
use tangram_bench::{measure_cub, measure_kokkos};

const SIZES: [u64; 4] = [1_024, 65_536, 1 << 20, 16 << 20];

fn bench_arch(c: &mut Criterion, arch: &ArchConfig, figure: &str) {
    let mut group = c.benchmark_group(format!("{figure}-{}", arch.id));
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(200));
    let session = Session::new(arch.clone());
    for &n in &SIZES {
        // Selection and measurement happen once; criterion replays the
        // modelled duration.
        let row = session.select_best(n).expect("selection").row;
        let tangram_ns = row.time_ns;
        let cub_ns = measure_cub(arch, n).expect("cub");
        let kokkos_ns = measure_kokkos(arch, n).expect("kokkos");
        group.bench_function(format!("tangram/{n}"), |b| {
            b.iter_custom(|iters| Duration::from_secs_f64(tangram_ns * 1e-9 * iters as f64))
        });
        group.bench_function(format!("cub/{n}"), |b| {
            b.iter_custom(|iters| Duration::from_secs_f64(cub_ns * 1e-9 * iters as f64))
        });
        group.bench_function(format!("kokkos/{n}"), |b| {
            b.iter_custom(|iters| Duration::from_secs_f64(kokkos_ns * 1e-9 * iters as f64))
        });
    }
    group.finish();
}

fn fig8_kepler(c: &mut Criterion) {
    bench_arch(c, &ArchConfig::kepler_k40c(), "fig8");
}

fn fig9_maxwell(c: &mut Criterion) {
    bench_arch(c, &ArchConfig::maxwell_gtx980(), "fig9");
}

fn fig10_pascal(c: &mut Criterion) {
    bench_arch(c, &ArchConfig::pascal_p100(), "fig10");
}

/// Fig. 7 is the per-architecture best-version series: bench the
/// OpenMP model alongside for the CPU line.
fn fig7_openmp_line(c: &mut Criterion) {
    let model = cpu_ref::OpenMpModel::power8_minsky();
    let mut group = c.benchmark_group("fig7-openmp");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(200));
    for &n in &SIZES {
        let t = model.time_ns(n);
        group.bench_function(format!("openmp/{n}"), |b| {
            b.iter_custom(|iters| Duration::from_secs_f64(t * 1e-9 * iters as f64))
        });
    }
    group.finish();
}

criterion_group! {
    name = figures;
    // The measurements are deterministic modelled durations; disable
    // the plotting backend (zero variance breaks its axis scaling).
    config = Criterion::default().without_plots();
    targets = fig8_kepler, fig9_maxwell, fig10_pascal, fig7_openmp_line
}
criterion_main!(figures);
