//! `perfbench`: the repository's tuning benchmark.
//!
//! ```text
//! perfbench run --workload W --seed S --seconds T [--cold] [--trace 0|1]
//! perfbench smoke --seed S
//! ```
//!
//! `run` builds the workload's query lists from the seed, times its
//! first pass in this fresh process (the set-up pass), then replays
//! steady passes for `T` seconds (longer, up to `MAX_STRETCH` × `T`,
//! until there are [`MIN_ANSWERS`] answers), checking every answer.
//! `--cold` stops after the set-up pass; `--trace 1` makes the
//! separate traced run that reports the per-layer metrics. The last
//! line of standard output is one JSON object; `perfbench/run.py`
//! assembles the benchmark's result from it. `smoke` runs every
//! workload for one checked pass.

mod check;
mod gen;
mod heap;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::stats::{half_drift, median, ratio, Summary};
use crate::workloads::{bench_for, Bench, PassOut, WORKLOADS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Minimum checked answers per run, so p90 has ten samples beyond it.
pub const MIN_ANSWERS: usize = 100;
/// A slow host may stretch the steady phase by this factor to reach
/// [`MIN_ANSWERS`]; past it the run ends with fewer answers, so that the
/// whole run still ends within 180 s.
const MAX_STRETCH: f64 = 1.25;
/// Where sockets and stores live while a run is in progress (inside
/// the checkout, removed when the run ends).
const SCRATCH: &str = ".perfbench-tmp";

struct Args {
    cmd: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    cold: bool,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command (run | smoke)")?;
    let mut a = Args {
        cmd,
        workload: None,
        seed: 1,
        seconds: 10.0,
        cold: false,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => a.trace = value()? == "1",
            "--cold" => a.cold = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

/// A flat JSON object writer (numbers, strings, nested raw objects).
#[derive(Default)]
pub struct Json(String);

impl Json {
    /// Add a number (non-finite values become `null`).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        self.raw(key, &v)
    }

    /// Add a string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.raw(key, &format!("\"{escaped}\""))
    }

    /// Add pre-rendered JSON.
    pub fn raw(&mut self, key: &str, v: &str) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{key}\":{v}");
        self
    }

    /// The finished object.
    pub fn done(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Counters accumulated over a run's passes.
#[derive(Default)]
pub(crate) struct Tally {
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &PassOut) {
        self.attempted += pass.answers.len();
        self.failures.extend(pass.failures.iter().cloned());
    }

    fn failed(&self) -> usize {
        self.failures.len().min(self.attempted)
    }

    fn report(&self, j: &mut Json) {
        j.num("attempted", self.attempted as f64)
            .num("failed", self.failed() as f64);
        for f in self.failures.iter().take(10) {
            eprintln!("perfbench: FAIL {f}");
        }
    }
}

fn classes_json(pass: &PassOut) -> String {
    let mut j = Json::default();
    for (k, v) in pass.classes() {
        j.num(&k, v as f64);
    }
    j.done()
}

/// Run the set-up pass, then the references. Returns the pass, its
/// wall time from process start, and the tally so far.
fn setup(bench: &mut dyn Bench, started: Instant) -> (PassOut, f64, Tally) {
    let first = bench.pass(0, None, 0);
    let setup_s = started.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    tally.add(&first);
    tally.failures.extend(bench.references());
    (first, setup_s, tally)
}

/// Steady passes until `seconds` have passed and enough answers are in
/// (or the stretch is used up).
fn steady(bench: &mut dyn Bench, seconds: f64, tally: &mut Tally) -> Vec<PassOut> {
    let mut passes = Vec::new();
    let mut answers = 0;
    let t0 = Instant::now();
    let mut i = 1;
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= seconds && (answers >= MIN_ANSWERS || elapsed >= seconds * MAX_STRETCH) {
            break;
        }
        let pass = bench.pass(i, None, 0);
        tally.add(&pass);
        answers += pass.answers.len();
        passes.push(pass);
        i += 1;
    }
    passes
}

fn run(a: &Args, started: Instant) -> Result<(String, bool), String> {
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let scratch = PathBuf::from(SCRATCH);
    let mut bench = bench_for(name, a.seed, &scratch).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    if a.trace {
        let (metrics, tally) = layers::traced_run(bench.as_mut(), name, a.seed, a.seconds, started);
        let mut j = Json::default();
        j.str("kind", "trace").raw("metrics", &metrics);
        tally.report(&mut j);
        return Ok((j.done(), tally.failures.is_empty()));
    }
    let (first, setup_s, mut tally) = setup(bench.as_mut(), started);
    let mut j = Json::default();
    j.str("kind", if a.cold { "cold" } else { "steady" })
        .str("workload", name)
        .num("seed", a.seed as f64)
        .num("setup_s", setup_s)
        .str(
            "digest",
            &format!(
                "{:016x}",
                check::digest(first.lines.iter().map(String::as_str))
            ),
        )
        .raw("classes", &classes_json(&first));
    if !a.cold {
        let passes = steady(bench.as_mut(), a.seconds, &mut tally);
        let samples: Vec<f64> = passes
            .iter()
            .flat_map(|p| &p.answers)
            .map(|x| x.ms)
            .collect();
        // Throughput per pass, then the median over passes: one pass
        // slowed by the host moves the median little.
        let pass_qps: Vec<f64> = passes
            .iter()
            .map(|p| ratio(p.answers.iter().filter(|x| x.ok).count() as f64, p.wall_s))
            .collect();
        let s = Summary::of(&samples).ok_or("no steady answers")?;
        j.num("qps", median(&pass_qps).unwrap_or(0.0))
            .num("p50_ms", s.p50)
            .num("p90_ms", s.p90)
            .num("samples", s.count as f64)
            .num("passes", passes.len() as f64)
            .num("drift", half_drift(&samples).unwrap_or(0.0))
            .num("peak_heap_mb", heap::peak_mib());
    }
    tally.report(&mut j);
    Ok((j.done(), tally.failures.is_empty()))
}

fn smoke(a: &Args, started: Instant) -> Result<(String, bool), String> {
    let scratch = PathBuf::from(SCRATCH);
    let mut j = Json::default();
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut bench = bench_for(name, a.seed, &scratch).expect("known workload");
        let (first, setup_s, tally) = setup(bench.as_mut(), Instant::now());
        let mut w = Json::default();
        w.num("pass_s", setup_s)
            .raw("classes", &classes_json(&first));
        tally.report(&mut w);
        all_ok &= tally.failures.is_empty();
        eprintln!(
            "perfbench: smoke {name}: {} answers in {setup_s:.2} s",
            first.answers.len()
        );
        j.raw(name, &w.done());
    }
    j.num("wall_s", started.elapsed().as_secs_f64());
    Ok((j.done(), all_ok))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let result = parse_args().and_then(|a| match a.cmd.as_str() {
        "run" => run(&a, started),
        "smoke" => smoke(&a, started),
        other => Err(format!("unknown command `{other}` (run | smoke)")),
    });
    let _ = std::fs::remove_dir_all(SCRATCH);
    match result {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
