//! Host-side throughput of the SIMT interpreter itself (real wall
//! time, not modelled time): how fast the substrate executes the
//! synthesized kernels and the hand-written baselines.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpu_baselines::CubReduce;
use gpu_sim::exec::BlockSelection;
use gpu_sim::{ArchConfig, Device, ExecMode};
use tangram::evaluate::EvalOptions;
use tangram::tangram_codegen::{synthesize, Tuning};
use tangram::tangram_passes::planner;
use tangram::{run_reduction, upload, Session};

fn interpreter_throughput(c: &mut Criterion) {
    let n: u64 = 65_536;
    let data: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
    let arch = ArchConfig::maxwell_gtx980();
    let mut group = c.benchmark_group("interpreter");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    for label in ['m', 'n', 'p'] {
        let sv = synthesize(planner::fig6_by_label(label).unwrap(), Tuning::default()).unwrap();
        group.bench_function(format!("fig6-{label}/64K"), |b| {
            b.iter(|| {
                let mut dev = Device::new(arch.clone());
                let input = upload(&mut dev, &data).unwrap();
                run_reduction(&mut dev, &sv, input, n, BlockSelection::All).unwrap()
            })
        });
    }
    let cub = CubReduce::new();
    group.bench_function("cub/64K", |b| {
        b.iter(|| {
            let mut dev = Device::new(arch.clone());
            let input = upload(&mut dev, &data).unwrap();
            cub.run(&mut dev, input, n, BlockSelection::All).unwrap()
        })
    });
    group.finish();
}

/// Warp-issue dispatch: a deeply divergent kernel at an exact block
/// count keeps the interpreter in `run_warp`'s issue loop, so this
/// tracks the per-instruction hot path (no per-issue allocation, no
/// `Instr` clone, array-based stat counters).
fn warp_issue_dispatch(c: &mut Criterion) {
    let n: u64 = 32_768;
    let data: Vec<f32> = (0..n).map(|i| (i % 9) as f32).collect();
    let arch = ArchConfig::maxwell_gtx980();
    let mut group = c.benchmark_group("warp-issue");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    // (m) = tree reduction in shared memory: branch-heavy, barriers.
    // (p) = shuffle + atomic: Shfl/Atom issue paths.
    for label in ['m', 'p'] {
        let sv = synthesize(planner::fig6_by_label(label).unwrap(), Tuning::default()).unwrap();
        group.bench_function(format!("fig6-{label}/32K-exact"), |b| {
            let mut dev = Device::new(arch.clone());
            let input = upload(&mut dev, &data).unwrap();
            b.iter(|| {
                dev.reset_clock();
                run_reduction(&mut dev, &sv, input, n, BlockSelection::All).unwrap()
            })
        });
    }
    group.finish();
}

/// Warp-uniform scalarization: the same synthesized kernels under the
/// predecoded µop engine (warp-uniform ops execute once per warp and
/// broadcast) and under the lane-wise reference interpreter (every op
/// executes per active lane). The uop/reference ratio is the
/// end-to-end win of predecode plus scalarization; BENCH_interp.json
/// records the medians.
fn uniform_scalarization(c: &mut Criterion) {
    let n: u64 = 32_768;
    let data: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    let arch = ArchConfig::maxwell_gtx980();
    let mut group = c.benchmark_group("uniform-scalarization");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    // (m) = shared-memory tree: uniform loop bounds and barriers.
    // (p) = shuffle + atomic: uniform shuffle deltas, divergent tail.
    for label in ['m', 'p'] {
        let sv = synthesize(planner::fig6_by_label(label).unwrap(), Tuning::default()).unwrap();
        for (mode_name, mode) in [("uop", ExecMode::Predecoded), ("reference", ExecMode::Reference)]
        {
            group.bench_function(format!("fig6-{label}/{mode_name}"), |b| {
                let mut dev = Device::new(arch.clone());
                dev.set_exec_mode(mode);
                let input = upload(&mut dev, &data).unwrap();
                b.iter(|| {
                    dev.reset_clock();
                    run_reduction(&mut dev, &sv, input, n, BlockSelection::All).unwrap()
                })
            });
        }
    }
    group.finish();
}

/// The compiled tier against the µop engine on the same kernels: the
/// jit/uop ratio is the end-to-end win of closure threading,
/// register-major rows, and superinstruction runs over predecode
/// alone. The reference tier rides along as the common anchor;
/// BENCH_interp.json records the medians.
fn jit(c: &mut Criterion) {
    let n: u64 = 32_768;
    let data: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    let arch = ArchConfig::maxwell_gtx980();
    let mut group = c.benchmark_group("jit");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    // (m) = shared-memory tree: barriers bound the superinstruction
    //       runs. (p) = shuffle + atomic: Shfl/Atom closures plus a
    //       divergent tail.
    for label in ['m', 'p'] {
        let sv = synthesize(planner::fig6_by_label(label).unwrap(), Tuning::default()).unwrap();
        for (mode_name, mode) in [
            ("compiled", ExecMode::Compiled),
            ("uop", ExecMode::Predecoded),
            ("reference", ExecMode::Reference),
        ] {
            group.bench_function(format!("fig6-{label}/{mode_name}"), |b| {
                let mut dev = Device::new(arch.clone());
                dev.set_exec_mode(mode);
                let input = upload(&mut dev, &data).unwrap();
                b.iter(|| {
                    dev.reset_clock();
                    run_reduction(&mut dev, &sv, input, n, BlockSelection::All).unwrap()
                })
            });
        }
    }
    group.finish();
}

/// The full tuner sweep over the pruned space at one size — the
/// workload the parallel evaluation engine accelerates. Serial and
/// 4-worker variants bracket the engine overhead; BENCH_sweep.json
/// records the wall-clock baselines from the release `sweep` binary.
fn tuner_sweep(c: &mut Criterion) {
    let n: u64 = 1 << 20;
    let arch = ArchConfig::maxwell_gtx980();
    let mut group = c.benchmark_group("tuner-sweep");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    for threads in [1usize, 4] {
        let session = Session::new(arch.clone()).eval(EvalOptions::with_threads(threads));
        group.bench_function(format!("pruned/1M/threads-{threads}"), |b| {
            b.iter(|| black_box(session.select_best(n).unwrap()))
        });
    }
    group.finish();
}

fn synthesis_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    group.bench_function("synthesize-fig6p", |b| {
        b.iter(|| synthesize(planner::fig6_by_label('p').unwrap(), Tuning::default()).unwrap())
    });
    group.bench_function("enumerate-pruned", |b| b.iter(planner::enumerate_pruned));
    group.finish();
}

criterion_group! {
    name = simulator;
    config = Criterion::default().without_plots();
    targets = interpreter_throughput, warp_issue_dispatch, uniform_scalarization, jit, tuner_sweep, synthesis_cost
}
criterion_main!(simulator);
