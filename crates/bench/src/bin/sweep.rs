//! Wall-clock benchmark of the full pruned-space selection sweep.
//!
//! ```text
//! sweep [--n N] [--arch kepler|maxwell|pascal] [--repeat R]
//!       [--threads T] [--sweep-mode exhaustive|halving]
//!       [--interp uop|reference|compiled] [--instr-budget I] [--json PATH]
//!       [--fault-seed S] [--fault-rate PPM]
//!       [--profile] [--trace-out PATH] [--metrics-json PATH]
//! ```
//!
//! `--threads T` sets the evaluation engine's worker count (default:
//! available parallelism). The winner and its modelled time are
//! bit-identical for any T; only the wall-clock changes. `--json`
//! appends one record per repeat to `PATH` (JSON lines).
//!
//! `--workload W` tunes a typed workload (`argmax`, `hist256`,
//! `scan`, `segsum`, …) instead of the classic `sum-f32` sweep; every
//! key runs through the same engine, so every flag below applies to
//! every key. Non-sum winner lines carry a `workload=` token after
//! `n=`; `--workload sum` is exactly no flag. The winner tail
//! (`winner=… block=… coarsen=… time_ns=…`) matches the `tuned`
//! daemon's answer for the same query byte for byte.
//!
//! `--sweep-mode` selects the search strategy (default: `halving`,
//! the successive-halving sweep; `exhaustive` measures every job at
//! full fidelity). `--interp` selects the interpreter hot path
//! (default: `compiled`, the closure-threaded tier; `uop` is the
//! predecoded µop engine, `reference` the lane-wise path — all three
//! produce bit-identical winners, so the flag only trades wall-clock
//! for observability). `--instr-budget I` overrides the per-block
//! dynamic instruction budget (the runaway-loop guard).
//!
//! `--fault-seed S` enables a deterministic fault-injection campaign
//! (bit-flips, shared-atomic retry storms, warp stalls) at
//! `--fault-rate` faults per million instructions (default 200).
//! Faulty attempts are validated against the CPU oracle and retried;
//! the accepted winner is bit-identical to a fault-free sweep, and a
//! `resilience:` summary line reports what was injected, detected,
//! recovered, and quarantined.
//!
//! `--profile` re-runs the sweep winner with site-level profiling and
//! prints one `profile:` line of its dynamic counters; the winner line
//! itself is byte-identical to an unprofiled run. `--trace-out PATH`
//! writes the profiled winner's Chrome `trace_event` JSON (open it in
//! `chrome://tracing` / Perfetto), and `--metrics-json PATH` writes
//! the full machine-readable [`tangram::metrics::ProfileReport`],
//! including the architecture's spotlight kernels (the atomic
//! grid-combine and shuffle-tree counters behind the paper's §IV
//! narrative). Both output flags imply `--profile`.
//!
//! `--sanitize` screens every candidate with the happens-before race
//! sanitizer before the sweep, quarantining racy variants, and prints
//! one `sanitize:` summary line; the winner line is byte-identical to
//! an unsanitized run whenever the corpus is race-free (it is).
//! `--sanitize-json PATH` writes the per-candidate race reports.
//! `--seed-racy` additionally pushes the deliberately-racy negative
//! corpus through the sanitizer. Both imply `--sanitize`, and the
//! process exits nonzero when any hazard was found — so CI can assert
//! both directions: clean corpus ⇒ exit 0, seeded races ⇒ exit 1.
//!
//! `--cache-dir PATH` attaches the persistent tuning store rooted at
//! `PATH` (`--cache rw|ro|off` sets its usage, default `rw`): sweeps
//! then warm-start from cached winners — re-confirmed at full
//! fidelity against the cpu-ref oracle, so the winner line is
//! byte-identical to a cold sweep — and print one `cache:` summary
//! line. Corrupt or stale records are quarantined aside as
//! `.corrupt` files and the sweep falls back to a clean cold run;
//! a broken cache never changes a winner and never fails the
//! process.

use std::time::Instant;

use gpu_sim::ArchConfig;
use tangram::evaluate::SweepMode;
use tangram::metrics::{spotlight_profiles, ProfileReport};
use tangram::{Session, Workload, WorkloadKey};
use tangram_bench::cli::Cli;
use tangram_bench::{
    cache_summary_line, profile_summary_line, sanitize_json, sanitize_summary_line,
    seeded_racy_reports,
};

const USAGE: &str = "usage: sweep [--n N] [--arch kepler|maxwell|pascal] [--workload W]
             [--repeat R] [--threads T] [--sweep-mode exhaustive|halving]
             [--interp uop|reference|compiled] [--instr-budget I] [--json PATH]
             [--fault-seed S] [--fault-rate PPM]
             [--profile] [--trace-out PATH] [--metrics-json PATH]
             [--sanitize] [--sanitize-json PATH] [--seed-racy]
             [--cache-dir PATH] [--cache rw|ro|off]

  --n N              array size in elements (default 4194304)
  --arch ID          architecture: kepler|maxwell|pascal (default maxwell)
  --workload W       sum | max | min | argmax | argmin | hist<bins> | scan |
                     exscan | segsum (default sum; non-sum lines carry a
                     workload= token)
  --repeat R         repeat the sweep R times (default 1)
  --threads T        evaluation worker threads (default: available parallelism)
  --sweep-mode M     exhaustive | halving (default halving); winners are
                     bit-identical, halving skips dominated tunings
  --interp M         uop | reference | compiled interpreter hot path
                     (default compiled; winners are bit-identical)
  --instr-budget I   per-block dynamic instruction budget (runaway guard)
  --json PATH        append one JSON record per repeat to PATH
  --fault-seed S     enable a deterministic fault-injection campaign
  --fault-rate PPM   injected faults per million instructions (default 200)
  --profile          profile the winner; adds a `profile:` counter line
  --trace-out PATH   write the profiled winner's Chrome trace JSON to PATH
  --metrics-json PATH  write the sweep's ProfileReport JSON to PATH
                     (--trace-out/--metrics-json imply --profile)
  --sanitize         race-sanitize candidates; adds a `sanitize:` line and
                     exits nonzero when any hazard was found
  --sanitize-json PATH  write the per-candidate race reports to PATH
  --seed-racy        also sanitize the deliberately-racy negative corpus
                     (--sanitize-json/--seed-racy imply --sanitize)
  --cache-dir PATH   persistent tuning store; warm-starts repeat sweeps
                     from re-confirmed cached winners (adds a `cache:` line)
  --cache MODE       rw | ro | off store usage (default rw; needs --cache-dir)";

const CLI: Cli = Cli {
    prog: "sweep",
    usage: USAGE,
    enabled: &[
        "--n",
        "--arch",
        "--workload",
        "--repeat",
        "--threads",
        "--sweep-mode",
        "--interp",
        "--instr-budget",
        "--json",
        "--fault-seed",
        "--fault-rate",
        "--profile",
        "--trace-out",
        "--metrics-json",
        "--sanitize",
        "--sanitize-json",
        "--seed-racy",
        "--cache-dir",
        "--cache",
    ],
    allow_bare: false,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = CLI.parse(&args);
    let n = o.n.unwrap_or(1 << 22);
    let repeat = o.repeat.unwrap_or(1);
    let arch_id = o.arch.clone().unwrap_or_else(|| "maxwell".to_string());
    let Some(arch) = ArchConfig::paper_archs().into_iter().find(|a| a.id == arch_id) else {
        CLI.die(&format!("unknown arch id `{arch_id}` (expected kepler|maxwell|pascal)"));
    };
    let wkey = o.workload.unwrap_or_else(WorkloadKey::sum);
    // `sum-f32` lines carry no workload token (and `--workload sum` is
    // exactly no flag); every other key's lines name it after `n=`.
    let named = (wkey != WorkloadKey::sum()).then(|| wkey.id());
    let workload_token = named.as_ref().map_or_else(String::new, |id| format!(" workload={id}"));
    let workload_field =
        named.as_ref().map_or_else(String::new, |id| format!("\"workload\":\"{id}\","));
    let opts = o.eval_options(SweepMode::Halving, gpu_sim::ExecMode::Compiled);
    let (threads, mode_id, interp_id) = (opts.threads, opts.sweep.id(), opts.interp.id());
    let mut session = Session::new(arch.clone())
        .eval(opts)
        .profiled(o.profiling())
        .sanitized(o.sanitizing());
    if let Some(res) = o.resilience() {
        session = session.resilience(res);
    }
    match o.cache() {
        Ok(Some((dir, mode))) => session = session.store(dir).cache_mode(mode),
        Ok(None) => {}
        Err(e) => CLI.die(&e),
    }

    let mut metrics = ProfileReport::new();
    let mut last_trace = None;
    let mut last_races = None;
    let mut hazards = 0u64;
    for _ in 0..repeat {
        let start = Instant::now();
        let report = match session.run(&Workload::new(wkey, n)) {
            Ok(report) => report,
            Err(e) => CLI.die(&format!("sweep failed: {e}")),
        };
        let wall = start.elapsed();
        println!(
            "sweep arch={} n={}{} threads={} mode={} interp={} wall_ms={:.1} winner={} block={} coarsen={} time_ns={}",
            arch.id,
            n,
            workload_token,
            threads,
            mode_id,
            interp_id,
            wall.as_secs_f64() * 1e3,
            report.winner_id(),
            report.block_size(),
            report.coarsen(),
            report.time_ns()
        );
        if o.fault_seed.is_some() {
            println!("{}", report.metrics().resilience.summary_line());
        }
        if let Some(profile) = report.metrics().winner_profile.as_ref() {
            println!("{}", profile_summary_line(profile));
        }
        if let Some(s) = report.metrics().sanitize {
            println!("{}", sanitize_summary_line(&s));
            hazards += s.findings as u64;
        }
        if let Some(s) = report.metrics().store.as_ref() {
            println!("{}", cache_summary_line(s));
        }
        if let Some(races) = report.races() {
            last_races = Some(races.to_vec());
        }
        if let Some(path) = &o.json {
            let record = format!(
                "{{\"arch\":\"{}\",\"n\":{},{}\"threads\":{},\"mode\":\"{}\",\"interp\":\"{}\",\"wall_ms\":{:.3},\"winner\":\"{}\",\"block\":{},\"coarsen\":{},\"time_ns\":{}}}\n",
                arch.id,
                n,
                workload_field,
                threads,
                mode_id,
                interp_id,
                wall.as_secs_f64() * 1e3,
                report.winner_id(),
                report.block_size(),
                report.coarsen(),
                report.time_ns()
            );
            append_json(path, &record);
        }
        if let Some(trace) = report.trace() {
            last_trace = Some(trace.clone());
        }
        metrics.sweeps.push(report.metrics().clone());
    }

    if let Some(path) = &o.trace_out {
        let Some(trace) = &last_trace else {
            CLI.die("no trace captured (profiled winner produced no launches)");
        };
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            CLI.die(&format!("cannot write `{path}`: {e}"));
        }
        eprintln!("[sweep] wrote {path}");
    }
    if let Some(path) = &o.metrics_json {
        match spotlight_profiles(&arch) {
            Ok(spots) => metrics.spotlights = spots,
            Err(e) => CLI.die(&format!("spotlight profiling failed: {e}")),
        }
        let json = match metrics.to_json() {
            Ok(json) => json,
            Err(e) => CLI.die(&format!("cannot serialize metrics: {e}")),
        };
        if let Err(e) = std::fs::write(path, json) {
            CLI.die(&format!("cannot write `{path}`: {e}"));
        }
        eprintln!("[sweep] {}", metrics.summary_line());
        eprintln!("[sweep] wrote {path}");
    }

    let mut seeded = Vec::new();
    if o.seed_racy {
        seeded = match seeded_racy_reports(&arch) {
            Ok(s) => s,
            Err(e) => CLI.die(&format!("seed-racy run failed: {e}")),
        };
        for (nk, report) in &seeded {
            println!("seed-racy {}: {}", nk.label, report.summary());
            hazards += report.findings.len() as u64;
        }
    }
    if let Some(path) = &o.sanitize_json {
        let screens: Vec<_> =
            last_races.into_iter().map(|races| (arch.id.clone(), n, races)).collect();
        let json = match sanitize_json(&screens, &seeded) {
            Ok(json) => json,
            Err(e) => CLI.die(&format!("cannot serialize race reports: {e}")),
        };
        if let Err(e) = std::fs::write(path, json) {
            CLI.die(&format!("cannot write `{path}`: {e}"));
        }
        eprintln!("[sweep] wrote {path}");
    }
    if hazards > 0 {
        eprintln!("[sweep] sanitizer found {hazards} hazard(s)");
        std::process::exit(1);
    }
}

/// Append one JSON-lines record to `path`.
fn append_json(path: &str, record: &str) {
    use std::io::Write as _;
    let open = std::fs::OpenOptions::new().create(true).append(true).open(path);
    let mut f = match open {
        Ok(f) => f,
        Err(e) => CLI.die(&format!("cannot open json log `{path}`: {e}")),
    };
    if let Err(e) = f.write_all(record.as_bytes()) {
        CLI.die(&format!("cannot write json log `{path}`: {e}"));
    }
}
