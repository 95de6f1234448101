//! The traced run: per-layer metrics, measured from outside the
//! program by timing calls into each layer's public functions.
//!
//! 1. The set-up pass and the references, untraced, as in a normal run.
//! 2. Steady passes for half the budget untraced, then for half traced
//!    (a root span around every `Session::run` / `Client::query`); the
//!    difference of their qps is the tracing overhead.
//! 3. A replay of the workload's distinct sweeps: each is run once
//!    through `Session::run` (span `api.session_run`) and once
//!    decomposed into the public calls beneath it (spans under a
//!    `replay` root with the same request id). The share of the
//!    `Session::run` wall that the decomposed children cover is
//!    `trace.coverage.session_run`.
//! 4. Fixed probes of the layers a workload does not reach itself:
//!    codegen, the interpreter tiers and hooks, the fault campaign,
//!    the store, the warm confirm, and the daemon.
//!
//! Every span is kept in memory and written to
//! `.perfbench-out/trace-<workload>-<seed>.jsonl` when the run ends.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use tangram::evaluate::{coarsen_options, ContextPool};
use tangram::gpu_sim::{BlockSelection, Device, ExecMode};
use tangram::resilience::evaluate_all_report;
use tangram::runner::{run_reduction, run_workload};
use tangram::store::{corpus_fingerprint, StoreKey, StoreRecord, TuningStore};
use tangram::tangram_codegen::{
    synthesis_cache_stats, synthesize, synthesize_cached, synthesize_workload,
    synthesize_workload_cached, workload_cache_stats, Tuning,
};
use tangram::tangram_passes::planner::{enumerate_pruned, CodeVersion};
use tangram::tuner::{BenchContext, BLOCK_SIZES, COARSEN};
use tangram::{
    enumerate_variants_for, expected_value, workload_input_for, ReduceOp, ResilienceOptions,
    Session, Workload, WorkloadKey,
};

use crate::gen::{self, Hook, SweepQuery};
use crate::stats::{median, percentile, ratio};
use crate::trace::{child_coverage, self_time_by_name, to_json_lines, Recorder};
use crate::workloads::{
    arch, eval_options, session_for, Bench, Route, ServeBench, StepTiming, FAULT_RATE_PPM,
    FAULT_SEED,
};
use crate::{Json, Tally};

/// Key families with their own `tuner.*_us` metrics.
const FAMILIES: [&str; 8] = [
    "sum", "max", "min", "argmax", "argmin", "hist", "scan", "segsum",
];
/// Size of the probe sweeps for families a workload does not sweep.
const PROBE_N: u64 = 1 << 20;
/// Tag of the corpus the replay uploads into a context's input.
const CORPUS_TAG: u64 = 0x7065_7266_6265_6e63;

/// Per-layer metrics: name → (value, unit), in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut j = Json::default();
        for (name, value, unit) in &self.0 {
            j.raw(
                name,
                &format!(
                    "[{},\"{unit}\"]",
                    if value.is_finite() { *value } else { 0.0 }
                ),
            );
        }
        j.done()
    }
}

fn family(key: WorkloadKey) -> &'static str {
    let id = key.id();
    let base = id.split('-').next().unwrap_or("");
    match base {
        "exscan" | "scan" => "scan",
        b if b.starts_with("hist") => "hist",
        b => FAMILIES.iter().copied().find(|f| *f == b).unwrap_or("sum"),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Accumulated replay counts.
#[derive(Default)]
struct Replay {
    /// Per family: (screen seconds, screen jobs, full seconds, full jobs).
    tuner: BTreeMap<&'static str, (f64, usize, f64, usize)>,
    sweeps: usize,
    screen_s: f64,
    survivor_s: f64,
    jobs: usize,
    screened: usize,
    survivors: usize,
    reruns: usize,
    oracle_s: Vec<f64>,
    validate_s: Vec<f64>,
    matches: usize,
    coverage: Vec<f64>,
    self_s: Vec<f64>,
}

/// The synthesized kernels of one job of a decomposed sweep.
enum Candidate {
    Reduce(std::sync::Arc<tangram::tangram_codegen::SynthesizedVersion>),
    Workload(std::sync::Arc<tangram::tangram_codegen::SynthesizedWorkload>),
}

impl Candidate {
    fn grid(&self, n: u64) -> u32 {
        match self {
            Candidate::Reduce(sv) => sv.plan(n).grid,
            Candidate::Workload(sw) => sw.plan(n).grid,
        }
    }

    fn measure(&self, ctx: &mut BenchContext, screen: bool) -> Option<f64> {
        let r = match (self, screen) {
            (Candidate::Reduce(sv), true) => ctx.measure_screen(sv),
            (Candidate::Reduce(sv), false) => ctx.measure(sv),
            (Candidate::Workload(sw), true) => ctx.measure_workload_screen(sw),
            (Candidate::Workload(sw), false) => ctx.measure_workload(sw),
        };
        r.ok()
    }
}

/// The survivor rung's keep mask, rebuilt from the public description
/// of successive halving: every candidate's screen-best job plus the
/// global top eighth of screened jobs.
pub fn survivor_mask(candidate_of: &[usize], times: &[Option<f64>]) -> Vec<bool> {
    let mut keep = vec![false; times.len()];
    let mut best: HashMap<usize, (f64, usize)> = HashMap::new();
    for (i, t) in times.iter().enumerate() {
        if let Some(t) = *t {
            let slot = best.entry(candidate_of[i]).or_insert((t, i));
            if t < slot.0 {
                *slot = (t, i);
            }
        }
    }
    for (_, i) in best.into_values() {
        keep[i] = true;
    }
    let mut scored: Vec<(f64, usize)> = times
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (t, i)))
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for &(_, i) in scored.iter().take(scored.len().div_ceil(8)) {
        keep[i] = true;
    }
    keep
}

/// Run `q` through `Session::run` and then decomposed, recording
/// both under request `req`.
fn replay_one(q: &SweepQuery, req: u64, rec: &mut Recorder, acc: &mut Replay) {
    let run_span = rec.enter("api.session_run", req);
    let real = session_for(q).run(&Workload::new(q.key, q.n));
    rec.exit(run_span);
    let Ok(real) = real else { return };

    let arch = arch(q.arch);
    let opts = eval_options();
    let root = rec.enter("replay", req);
    let pool = ContextPool::builder(&arch, q.n).opts(&opts).build();
    let Ok(mut ctx) = pool.acquire() else {
        rec.exit(root);
        return;
    };
    let fam = family(q.key);
    let reduce = q.key.kind.is_reduce();
    let mut winner: Option<(String, Tuning, f64, usize)> = None;
    // Whether the replayed winner's exact value matched the oracle
    // (reductions carry no value to check).
    let mut value_ok = true;

    if q.hook == Hook::Fault {
        let res = ResilienceOptions::campaign(FAULT_SEED, FAULT_RATE_PPM);
        let done = rec.span("resilience.campaign", req, || {
            evaluate_all_report(&pool, &enumerate_pruned(), &opts, &res)
        });
        if let Ok((results, _)) = done {
            if let Some(m) = tangram::evaluate::best_measurement(&results) {
                winner = Some((m.version.to_string(), m.tuning, m.time_ns, 0));
            }
        }
    } else {
        // The canonical job list: candidates × block sizes × coarsening.
        let mut jobs: Vec<(usize, String, Tuning, Option<Candidate>)> = Vec::new();
        let screen_span = rec.enter("evaluate.screen", req);
        if reduce {
            for (c, v) in enumerate_pruned().into_iter().enumerate() {
                for &block_size in &BLOCK_SIZES {
                    for &coarsen in coarsen_options(v) {
                        let t = Tuning {
                            block_size,
                            coarsen,
                        };
                        let k = rec.span("codegen.lookup", req, || {
                            synthesize_cached(v, t, ReduceOp::Sum)
                                .ok()
                                .map(Candidate::Reduce)
                        });
                        jobs.push((c, v.to_string(), t, k));
                    }
                }
            }
        } else {
            let key = q.key;
            rec.span("gpu_sim.upload", req, || {
                ctx.ensure_input(CORPUS_TAG, |n| workload_input_for(key, n))
            })
            .ok();
            for (c, v) in enumerate_variants_for(key.kind).into_iter().enumerate() {
                for &block_size in &BLOCK_SIZES {
                    for &coarsen in &COARSEN {
                        let t = Tuning {
                            block_size,
                            coarsen,
                        };
                        let k = rec.span("codegen.lookup", req, || {
                            synthesize_workload_cached(key, v, t)
                                .ok()
                                .map(Candidate::Workload)
                        });
                        jobs.push((c, v.id(), t, k));
                    }
                }
            }
        }
        let t_screen = Instant::now();
        let times: Vec<Option<f64>> = jobs
            .iter()
            .map(|(_, _, _, k)| {
                k.as_ref()
                    .and_then(|k| rec.span("tuner.screen", req, || k.measure(&mut ctx, true)))
            })
            .collect();
        let screen_s = secs(t_screen);
        rec.exit(screen_span);

        let cand_of: Vec<usize> = jobs.iter().map(|j| j.0).collect();
        let keep = survivor_mask(&cand_of, &times);
        let survivor_span = rec.enter("evaluate.survivor", req);
        let t_full = Instant::now();
        let mut full_jobs = 0;
        for (i, (_, id, t, k)) in jobs.iter().enumerate() {
            let Some(k) = k.as_ref().filter(|_| keep[i]) else {
                continue;
            };
            full_jobs += 1;
            if BenchContext::screen_selection_for(k.grid(q.n)) == BlockSelection::All {
                acc.reruns += 1;
            }
            if let Some(time) = rec.span("tuner.full", req, || k.measure(&mut ctx, false)) {
                if winner.as_ref().is_none_or(|w| time < w.2) {
                    winner = Some((id.clone(), *t, time, i));
                }
            }
        }
        let full_s = secs(t_full);
        rec.exit(survivor_span);

        let e = acc.tuner.entry(fam).or_default();
        let screened = times.iter().flatten().count();
        *e = (
            e.0 + screen_s,
            e.1 + screened,
            e.2 + full_s,
            e.3 + full_jobs,
        );
        acc.sweeps += 1;
        acc.screen_s += screen_s;
        acc.survivor_s += full_s;
        acc.jobs += jobs.len();
        acc.screened += screened;
        acc.survivors += full_jobs;

        // The winner's exact run at the oracle size, and the oracle.
        if let (false, Some((_, _, _, i))) = (reduce, &winner) {
            if let Some(Candidate::Workload(sw)) = &jobs[*i].3 {
                let on = q.n.min(1 << 16);
                let key = q.key;
                let t0 = Instant::now();
                let got = rec.span("api.validate", req, || {
                    let mut exact = BenchContext::new(&arch, on).ok()?;
                    exact.dev.set_exec_mode(opts.interp);
                    exact
                        .ensure_input(CORPUS_TAG, |n| workload_input_for(key, n))
                        .ok()?;
                    exact.run_workload_exact(sw).ok().map(|(v, _)| v)
                });
                acc.validate_s.push(secs(t0));
                let t0 = Instant::now();
                let want = rec.span("cpu_ref.oracle", req, || {
                    expected_value(key, &workload_input_for(key, on))
                });
                acc.oracle_s.push(secs(t0));
                value_ok = got.is_some_and(|g| crate::check::same_bits(&g, &want));
            }
        }
        if q.hook == Hook::Sanitize {
            rec.span("gpu_sim.hook.sanitize", req, || sanitize_screen(q, 10_000));
        }
        if let (Hook::Profile, true, Some((_, t, _, _))) = (q.hook, reduce, &winner) {
            let v = enumerate_pruned()
                .into_iter()
                .find(|v| v.to_string() == real.winner_id());
            if let Some(sv) = v.and_then(|v| synthesize_cached(v, *t, ReduceOp::Sum).ok()) {
                rec.span("gpu_sim.hook.profile", req, || {
                    ctx.measure_profiled(&sv).ok()
                });
            }
        }
    }
    pool.release(ctx);
    rec.exit(root);

    if let Some((id, t, time, _)) = &winner {
        let same = *id == real.winner_id()
            && t.block_size == real.block_size()
            && t.coarsen == real.coarsen()
            && time.to_bits() == real.time_ns().to_bits()
            && value_ok;
        acc.matches += usize::from(same);
    }
    let spans = rec.spans();
    let wall = spans[run_span].dur();
    let explained = child_coverage(spans, root) * spans[root].dur();
    acc.coverage.push(ratio(explained, wall));
    acc.self_s.push((wall - explained).max(0.0));
}

/// Screen every candidate of `q`'s key once at its first feasible
/// tuning under the race sanitizer, as a sanitized sweep does (capped
/// at 64K elements); at most `limit` candidates.
fn sanitize_screen(q: &SweepQuery, limit: usize) -> usize {
    let arch = arch(q.arch);
    let n = q.n.min(1 << 16);
    let mut screened = 0;
    let try_run = |dev: &mut Device, k: &Candidate| -> bool {
        let Ok(input) = dev.alloc_f32(n) else {
            return false;
        };
        match k {
            Candidate::Reduce(sv) => run_reduction(dev, sv, input, n, BlockSelection::All).is_ok(),
            Candidate::Workload(sw) => run_workload(dev, sw, input, n, BlockSelection::All).is_ok(),
        }
    };
    let candidates: Vec<Vec<Candidate>> = if q.key.kind.is_reduce() {
        enumerate_pruned()
            .into_iter()
            .map(|v| {
                tunings(coarsen_options(v))
                    .filter_map(|t| {
                        synthesize_cached(v, t, ReduceOp::Sum)
                            .ok()
                            .map(Candidate::Reduce)
                    })
                    .collect()
            })
            .collect()
    } else {
        enumerate_variants_for(q.key.kind)
            .into_iter()
            .map(|v| {
                tunings(&COARSEN)
                    .filter_map(|t| {
                        synthesize_workload_cached(q.key, v, t)
                            .ok()
                            .map(Candidate::Workload)
                    })
                    .collect()
            })
            .collect()
    };
    for tuned in candidates.iter().take(limit) {
        for k in tuned {
            let mut dev = Device::new(arch.clone());
            dev.set_sanitizing(true);
            if try_run(&mut dev, k) {
                screened += 1;
                break;
            }
        }
    }
    screened
}

fn tunings(coarsen: &'static [u32]) -> impl Iterator<Item = Tuning> {
    BLOCK_SIZES.iter().flat_map(move |&block_size| {
        coarsen.iter().map(move |&coarsen| Tuning {
            block_size,
            coarsen,
        })
    })
}

/// Median and relative quartile spread of `f` timed `reps` times (ms).
fn timed_ms(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            secs(t0) * 1e3
        })
        .collect();
    v.sort_by(f64::total_cmp);
    let med = percentile(&v, 0.5).unwrap_or(0.0);
    let iqr = percentile(&v, 0.75).unwrap_or(0.0) - percentile(&v, 0.25).unwrap_or(0.0);
    (med, ratio(iqr, med))
}

/// Codegen and interpreter probes.
fn probe_codegen_and_sim(m: &mut Metrics) {
    let versions: Vec<CodeVersion> = enumerate_pruned();
    let wl_keys: Vec<WorkloadKey> = ["argmax", "hist64", "scan", "segsum"]
        .iter()
        .map(|k| k.parse().expect("key"))
        .collect();
    // Uncached synthesis: the first tunings of every reduce candidate
    // and of every workload variant.
    let t0 = Instant::now();
    let mut kernels = 0usize;
    let mut fresh: Vec<Candidate> = Vec::new();
    for &v in &versions {
        if let Ok(sv) = synthesize(
            v,
            Tuning {
                block_size: 128,
                coarsen: 1,
            },
        ) {
            kernels += 1;
            fresh.push(Candidate::Reduce(std::sync::Arc::new(sv)));
        }
    }
    for &key in &wl_keys {
        for v in enumerate_variants_for(key.kind) {
            if let Ok(sw) = synthesize_workload(
                key,
                v,
                Tuning {
                    block_size: 128,
                    coarsen: 1,
                },
            ) {
                kernels += 1;
                fresh.push(Candidate::Workload(std::sync::Arc::new(sw)));
            }
        }
    }
    m.put(
        "codegen.synth_ms",
        ratio(secs(t0) * 1e3, kernels as f64),
        "ms",
    );

    // First launch of a fresh kernel (decode + jit + run), then the
    // same kernel warm under block sampling.
    let arch = arch(1);
    let mut first = Vec::new();
    let mut warm_us = Vec::new();
    for k in fresh.iter().step_by(3) {
        let Ok(mut ctx) = BenchContext::new(&arch, PROBE_N) else {
            continue;
        };
        ctx.dev.set_exec_mode(ExecMode::Compiled);
        if let Candidate::Workload(sw) = k {
            let key = sw.key;
            let _ = ctx.ensure_input(CORPUS_TAG, |n| workload_input_for(key, n));
        }
        let t0 = Instant::now();
        if k.measure(&mut ctx, true).is_none() {
            continue;
        }
        first.push(secs(t0) * 1e3);
        for _ in 0..5 {
            let t0 = Instant::now();
            if k.measure(&mut ctx, false).is_some() {
                let launches = ctx.dev.launches().len().max(1);
                warm_us.push(secs(t0) * 1e6 / launches as f64);
            }
        }
    }
    m.put(
        "gpu_sim.first_launch_ms",
        median(&first).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "gpu_sim.launch_us.sampled",
        median(&warm_us).unwrap_or(0.0),
        "us",
    );

    // Warp-instructions per host second of exact launches, per tier.
    for mode in [
        ExecMode::Compiled,
        ExecMode::Predecoded,
        ExecMode::Reference,
    ] {
        let mut instrs = 0u64;
        let mut host = 0.0;
        for k in fresh.iter().step_by(4) {
            let Ok(mut ctx) = BenchContext::new(&arch, 1 << 14) else {
                continue;
            };
            ctx.dev.set_exec_mode(mode);
            if let Candidate::Workload(sw) = k {
                let key = sw.key;
                let _ = ctx.ensure_input(CORPUS_TAG, |n| workload_input_for(key, n));
            }
            let _ = k.measure(&mut ctx, true); // warm: decode/jit outside the timing
            let t0 = Instant::now();
            if k.measure(&mut ctx, true).is_some() {
                host += secs(t0);
                instrs += ctx
                    .dev
                    .launches()
                    .iter()
                    .map(|l| l.stats.total_warp_instrs())
                    .sum::<u64>();
            }
        }
        let name = format!("gpu_sim.winstr_per_s.{}", mode.id());
        m.put(&name, ratio(instrs as f64, host), "winstr/s");
    }

    // Hook costs: the sanitizer screen and a profiled exact run of the
    // sum corpus at 4K and 16K, repeated for their spread.
    let sum: WorkloadKey = "sum".parse().expect("key");
    for (label, n) in [("4k", 1u64 << 12), ("16k", 1 << 14)] {
        let q = SweepQuery {
            arch: 1,
            key: sum,
            n,
            hook: Hook::Sanitize,
        };
        let (ms, spread) = timed_ms(5, || {
            sanitize_screen(&q, 10);
        });
        m.put(&format!("gpu_sim.hook_ms.sanitize.{label}"), ms, "ms");
        m.put(
            &format!("gpu_sim.hook_ms.sanitize.{label}.spread"),
            spread,
            "ratio",
        );
        let profiled: Vec<_> = versions
            .iter()
            .take(10)
            .filter_map(|&v| {
                synthesize_cached(
                    v,
                    Tuning {
                        block_size: 128,
                        coarsen: 1,
                    },
                    ReduceOp::Sum,
                )
                .ok()
            })
            .collect();
        let (ms, spread) = timed_ms(5, || {
            for sv in &profiled {
                if let Ok(mut ctx) = BenchContext::new(&arch, n) {
                    let _ = ctx.measure_profiled_with(sv, BlockSelection::All);
                }
            }
        });
        m.put(&format!("gpu_sim.hook_ms.profile.{label}"), ms, "ms");
        m.put(
            &format!("gpu_sim.hook_ms.profile.{label}.spread"),
            spread,
            "ratio",
        );
    }
}

/// Fault-campaign probe at 4K and 64K.
fn probe_resilience(m: &mut Metrics) {
    let arch = arch(1);
    let res = ResilienceOptions::campaign(FAULT_SEED, FAULT_RATE_PPM);
    let (mut retries, mut injected, mut detected) = (0u64, 0u64, 0u64);
    for (label, n, reps) in [("4k", 1u64 << 12, 3), ("64k", 1 << 16, 3)] {
        let pool = ContextPool::builder(&arch, n).opts(&eval_options()).build();
        let (ms, spread) = timed_ms(reps, || {
            if let Ok((_, r)) =
                evaluate_all_report(&pool, &enumerate_pruned(), &eval_options(), &res)
            {
                retries += r.retries;
                injected += r.faults_injected;
                detected += r.faults_detected;
            }
        });
        m.put(&format!("resilience.campaign_ms.{label}"), ms, "ms");
        m.put(
            &format!("resilience.campaign_ms.{label}.spread"),
            spread,
            "ratio",
        );
    }
    m.put("resilience.retries", retries as f64 / 6.0, "count");
    m.put(
        "resilience.detected_ratio",
        ratio(detected as f64, injected as f64),
        "ratio",
    );
}

/// Store and warm-confirm probes, in a directory under `root`.
fn probe_store(m: &mut Metrics, root: &Path) {
    let dir = root.join(format!("store-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = corpus_fingerprint(&enumerate_pruned());
    let (open_ms, _) = timed_ms(9, || {
        let _ = TuningStore::open(&dir, corpus);
    });
    let store = TuningStore::open(&dir, corpus).expect("open the probe store inside the checkout");
    let keys: Vec<StoreKey> = (0..3)
        .flat_map(|a| (16..24).map(move |b| StoreKey::for_sweep(gen::ARCHS[a], 1u64 << b)))
        .collect();
    let mut attempts = Vec::new();
    let (save_ms, _) = {
        let mut v = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let rec = StoreRecord {
                key: key.clone(),
                n: 1u64 << (16 + i % 8),
                version: enumerate_pruned()[0].to_string(),
                block_size: 128,
                coarsen: 1,
                time_ns_bits: 1000f64.to_bits(),
            };
            let t0 = Instant::now();
            if let Ok(receipt) = store.save(&rec) {
                attempts.push(f64::from(receipt.lock_attempts));
            }
            v.push(secs(t0) * 1e3);
        }
        (median(&v).unwrap_or(0.0), 0.0)
    };
    let mut i = 0;
    let (load_ms, _) = timed_ms(keys.len(), || {
        let _ = store.load(&keys[i % keys.len()]);
        i += 1;
    });
    let miss = StoreKey::for_sweep("maxwell", 1 << 25);
    let (nearest_ms, _) = timed_ms(9, || {
        let _ = store.load_nearest(&miss);
    });
    m.put("store.open_ms", open_ms, "ms");
    m.put("store.load_ms", load_ms, "ms");
    m.put("store.nearest_ms", nearest_ms, "ms");
    m.put("store.save_ms", save_ms, "ms");
    m.put(
        "store.lock_attempts",
        median(&attempts).unwrap_or(0.0),
        "count",
    );
    m.put(
        "store.lost_save_ratio",
        concurrent_save_loss(&dir.join("contended"), corpus),
        "ratio",
    );

    // Warm confirm: `Session::run` on an exact store hit.
    let session = Session::new(arch(1))
        .eval(eval_options())
        .store(dir.join("confirm"));
    let w = Workload::new("sum".parse().expect("key"), 1 << 20);
    let _ = session.run(&w);
    let (confirm_ms, _) = timed_ms(5, || {
        let _ = session.run(&w);
    });
    m.put("api.confirm_ms", confirm_ms, "ms");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Share of saves that fail when two threads of one process save
/// distinct records into one store at full speed, as the daemon's two
/// workers do. Every save should succeed; a failed save is a lost
/// cache write, and the next query of that shape sweeps again.
fn concurrent_save_loss(dir: &Path, corpus: u64) -> f64 {
    const SAVES: u64 = 500;
    let Ok(store) = TuningStore::open(dir, corpus) else {
        return 1.0;
    };
    let failed: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let store = &store;
                s.spawn(move || {
                    let version = enumerate_pruned()[0].to_string();
                    (0..SAVES)
                        .filter(|i| {
                            let n = 1u64 << (10 + i % 20);
                            let rec = StoreRecord {
                                key: StoreKey::for_sweep(gen::ARCHS[t], n),
                                n,
                                version: version.clone(),
                                block_size: 128,
                                coarsen: 1,
                                time_ns_bits: 1000f64.to_bits(),
                            };
                            store.save(&rec).is_err()
                        })
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("save thread panicked"))
            .sum()
    });
    failed as f64 / (2 * SAVES) as f64
}

/// Daemon metrics from one wire pass and one in-process pass of the
/// workload's (or, for sweep workloads, the seed's) daemon mix.
fn probe_serve(
    m: &mut Metrics,
    serve: &mut ServeBench,
    rec: &mut Recorder,
    wire: Option<Vec<StepTiming>>,
) {
    let (wire, sweeps_per_answer) = match wire {
        Some(w) => (w, None),
        None => {
            let (w, _, metrics) = serve.drive(Route::Wire);
            let per = ratio(metrics.sweeps as f64, metrics.ok as f64);
            (w, Some(per))
        }
    };
    let (local, _, metrics) = serve.drive(Route::InProcess);
    let class = |t: &StepTiming| {
        t.reply
            .as_ref()
            .map_or("failed".to_string(), |r| r.1.clone())
    };
    let local_by_step: HashMap<(usize, usize), &StepTiming> =
        local.iter().map(|t| ((t.client, t.step), t)).collect();
    let mut per_class: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut wire_extra, mut wire_total, mut local_total) = (Vec::new(), 0.0, 0.0);
    for t in &wire {
        let ms = t.end.duration_since(t.start).as_secs_f64() * 1e3;
        per_class.entry(class(t)).or_default().push(ms);
        rec.record(
            "serve.client_query",
            t.start,
            t.end,
            None,
            crate::workloads::request_id(1 << 40, t),
        );
        if let Some(l) = local_by_step
            .get(&(t.client, t.step))
            .filter(|l| class(l) == class(t))
        {
            let lms = l.end.duration_since(l.start).as_secs_f64() * 1e3;
            wire_extra.push(ms - lms);
            wire_total += ms;
            local_total += lms;
        }
    }
    for c in ["cold", "seeded", "warm", "dedup"] {
        let v = per_class
            .get(c)
            .map(|v| median(v).unwrap_or(0.0))
            .unwrap_or(0.0);
        m.put(&format!("serve.query_ms.{c}"), v, "ms");
    }
    m.put("serve.wire_ms", median(&wire_extra).unwrap_or(0.0), "ms");
    m.put(
        "serve.dedup_ratio",
        ratio(metrics.dedup as f64, metrics.ok as f64),
        "ratio",
    );
    let per = sweeps_per_answer.unwrap_or_else(|| ratio(metrics.sweeps as f64, metrics.ok as f64));
    m.put("serve.sweeps_per_answer", per, "ratio");
    m.put(
        "trace.coverage.client_query",
        ratio(local_total, wire_total),
        "ratio",
    );
}

/// Distinct sweeps of a workload: its pass cycle, or the daemon
/// steps as storeless sweeps.
fn replay_queries(bench: &dyn Bench) -> Vec<SweepQuery> {
    let all: Vec<SweepQuery> = match (bench.as_sweeps(), bench.as_serve()) {
        (Some(s), _) => s.plan.cycle.iter().flatten().copied().collect(),
        (_, Some(s)) => s
            .steps
            .iter()
            .flatten()
            .map(|st| SweepQuery {
                arch: st.arch,
                key: st.key,
                n: st.n,
                hook: Hook::Plain,
            })
            .collect(),
        _ => Vec::new(),
    };
    let mut seen = HashSet::new();
    all.into_iter().filter(|q| seen.insert(q.label())).collect()
}

/// The traced run. Returns the metrics JSON and the correctness tally.
pub fn traced_run(
    bench: &mut dyn Bench,
    name: &str,
    seed: u64,
    seconds: f64,
    started: Instant,
) -> (String, Tally) {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let stats = || {
        let (a, b) = synthesis_cache_stats();
        let (c, d) = workload_cache_stats();
        (a + c, b + d)
    };

    let (_, misses0) = stats();
    let first = bench.pass(0, None, 0);
    tally.add(&first);
    tally.failures.extend(bench.references());
    m.put("codegen.kernels", (stats().1 - misses0) as f64, "count");
    eprintln!(
        "perfbench: trace {name}: set-up pass {:.2} s",
        secs(started)
    );

    // Untraced, then traced steady passes.
    let mut rec = Recorder::default();
    let mut qps = [0.0; 2];
    let mut hits_misses = (0, 0);
    let mut wire_timings: Option<Vec<StepTiming>> = None;
    let mut pass = 1;
    for (traced, q) in qps.iter_mut().enumerate() {
        let (h0, m0) = stats();
        let t0 = Instant::now();
        let (mut ok, mut busy) = (0usize, 0.0);
        while secs(t0) < seconds / 2.0 || ok == 0 {
            let out = bench.pass(pass, traced.eq(&1).then_some(&mut rec), (pass as u64) << 20);
            tally.add(&out);
            ok += out.answers.iter().filter(|a| a.ok).count();
            busy += out.wall_s;
            pass += 1;
        }
        *q = ratio(ok as f64, busy);
        if traced == 1 {
            let (h1, m1) = stats();
            hits_misses = (h1 - h0, m1 - m0);
        }
    }
    m.put(
        "codegen.cache_hit_ratio",
        ratio(hits_misses.0 as f64, (hits_misses.0 + hits_misses.1) as f64),
        "ratio",
    );
    m.put("trace.qps_untraced", qps[0], "1/s");
    m.put("trace.overhead_qps", qps[1] - qps[0], "1/s");
    if let Some(s) = bench.as_serve() {
        // The daemon workload's own wire timings for the serve metrics.
        let mut s = ServeBench::new(s.steps.clone(), PathBuf::from(crate::SCRATCH));
        let (w, _, _) = s.drive(Route::Wire);
        wire_timings = Some(w);
    }

    // Replay of the workload's distinct sweeps.
    let mut acc = Replay::default();
    let queries = replay_queries(bench);
    let t_replay = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        if secs(t_replay) > seconds.max(10.0) {
            break;
        }
        replay_one(q, (1 << 32) + i as u64, &mut rec, &mut acc);
    }
    // Families the workload does not sweep: one probe sweep each.
    for (i, fam) in FAMILIES.iter().enumerate() {
        if !acc.tuner.contains_key(fam) {
            let key = match *fam {
                "hist" => "hist64",
                f => f,
            };
            let q = SweepQuery {
                arch: 1,
                key: key.parse().expect("key"),
                n: PROBE_N,
                hook: Hook::Plain,
            };
            let mut probe = Replay::default();
            replay_one(&q, (1 << 36) + i as u64, &mut rec, &mut probe);
            if let Some(t) = probe.tuner.get(fam) {
                acc.tuner.insert(fam, *t);
            }
        }
    }
    for fam in FAMILIES {
        let (ss, sj, fs, fj) = acc.tuner.get(fam).copied().unwrap_or_default();
        m.put(
            &format!("tuner.screen_us.{fam}"),
            ratio(ss * 1e6, sj as f64),
            "us",
        );
        m.put(
            &format!("tuner.full_us.{fam}"),
            ratio(fs * 1e6, fj as f64),
            "us",
        );
    }
    let sweeps = acc.sweeps.max(1) as f64;
    m.put("evaluate.screen_ms", acc.screen_s * 1e3 / sweeps, "ms");
    m.put("evaluate.survivor_ms", acc.survivor_s * 1e3 / sweeps, "ms");
    m.put("evaluate.jobs", acc.jobs as f64 / sweeps, "count");
    m.put(
        "evaluate.survivor_ratio",
        ratio(acc.survivors as f64, acc.screened as f64),
        "ratio",
    );
    m.put(
        "evaluate.rerun_ratio",
        ratio(acc.reruns as f64, acc.survivors as f64),
        "ratio",
    );
    m.put(
        "cpu_ref.oracle_ms",
        median(&acc.oracle_s).unwrap_or(0.0) * 1e3,
        "ms",
    );
    m.put(
        "api.validate_ms",
        median(&acc.validate_s).unwrap_or(0.0) * 1e3,
        "ms",
    );
    m.put(
        "api.self_ms",
        median(&acc.self_s).unwrap_or(0.0) * 1e3,
        "ms",
    );
    m.put(
        "trace.coverage.session_run",
        median(&acc.coverage).unwrap_or(0.0),
        "ratio",
    );
    m.put(
        "trace.replay_match_ratio",
        ratio(acc.matches as f64, acc.coverage.len() as f64),
        "ratio",
    );

    // Fixed layer probes.
    probe_codegen_and_sim(&mut m);
    probe_resilience(&mut m);
    probe_store(&mut m, Path::new(crate::SCRATCH));
    let mut serve = match bench.as_serve() {
        Some(s) => ServeBench::new(s.steps.clone(), PathBuf::from(crate::SCRATCH)),
        None => ServeBench::new(gen::serve_mixed(seed), PathBuf::from(crate::SCRATCH)),
    };
    probe_serve(&mut m, &mut serve, &mut rec, wire_timings);

    // Write the spans and the per-layer self times.
    let out = PathBuf::from(".perfbench-out");
    let _ = std::fs::create_dir_all(&out);
    let mut text = to_json_lines(rec.spans());
    for (layer, s) in self_time_by_name(rec.spans()) {
        text.push_str(&format!(
            "{{\"layer\":\"{layer}\",\"self_ms\":{}}}\n",
            s * 1e3
        ));
    }
    let path = out.join(format!("trace-{name}-{seed}.jsonl"));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench: trace {name}: {:.1} s, spans in {}",
        secs(started),
        path.display()
    );
    (m.to_json(), tally)
}
