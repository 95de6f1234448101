//! Robustness suite for the persistent tuning store, PR-2 style:
//! every failure mode is *injected* — truncated, bit-flipped,
//! wrong-schema, wrong-corpus and garbage records, torn-write
//! orphans, stale and contended writer locks — and every scenario
//! must recover to a winner bit-identical to a clean cold sweep,
//! without a panic, an error, or a changed selection. The cache is an
//! accelerator, never an authority.

use std::fs;
use std::path::{Path, PathBuf};

use gpu_sim::ArchConfig;
use proptest::prelude::*;
use tangram::evaluate::EvalOptions;
use tangram::resilience::QuarantineReason;
use tangram::store::StoreError;
use tangram::{CacheMode, Session, StoreKey, SweepReport, TuningStore};

mod support;

/// A fresh, empty store directory unique to this test binary run.
fn store_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tangram-store-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn session(arch: &ArchConfig) -> Session {
    Session::new(arch.clone()).eval(EvalOptions::serial())
}

fn record_path(dir: &Path, arch: &str, n: u64) -> PathBuf {
    dir.join(StoreKey::for_sweep(arch, n).file_name())
}

/// Assert two sweep reports selected the same winner, bit for bit.
fn assert_same_winner(a: &SweepReport, b: &SweepReport, ctx: &str) {
    assert_eq!(a.row.version, b.row.version, "winner version differs: {ctx}");
    assert_eq!(a.row.block_size, b.row.block_size, "winner block size differs: {ctx}");
    assert_eq!(a.row.coarsen, b.row.coarsen, "winner coarsening differs: {ctx}");
    assert_eq!(
        a.row.time_ns.to_bits(),
        b.row.time_ns.to_bits(),
        "winner time bits differ: {ctx}"
    );
}

fn store_outcome(report: &SweepReport) -> &str {
    report.metrics.store.as_ref().map_or("<none>", |s| s.outcome.as_str())
}

#[test]
fn warm_start_is_bit_identical_to_cold_sweep_on_all_arches() {
    let n = 65_536;
    for arch in ArchConfig::paper_archs() {
        let cold = session(&arch).select_best(n).unwrap();
        let dir = store_dir(&format!("warm-{}", arch.id));
        let cached = session(&arch).store(&dir);

        // First run: a miss that writes the record back.
        let first = cached.select_best(n).unwrap();
        assert_same_winner(&cold, &first, &format!("cold vs miss on {}", arch.id));
        let s = first.metrics.store.as_ref().expect("store summary present");
        assert_eq!((s.outcome.as_str(), s.warm, s.saved), ("miss", false, true), "{}", arch.id);
        assert!(record_path(&dir, &arch.id, n).exists());

        // Second run: a warm start that skips the sweep entirely —
        // one confirmation job instead of the full candidate space,
        // same winner bits.
        let warm = cached.select_best(n).unwrap();
        assert_same_winner(&cold, &warm, &format!("cold vs warm on {}", arch.id));
        let s = warm.metrics.store.as_ref().expect("store summary present");
        assert_eq!((s.outcome.as_str(), s.warm, s.saved), ("warm", true, false), "{}", arch.id);
        assert_eq!(
            (warm.resilience.total_jobs, warm.resilience.measured),
            (1, 1),
            "warm start must cost one confirmation job on {}",
            arch.id
        );
        assert_eq!(warm.metrics.rungs.len(), 1, "{}", arch.id);
        assert_eq!(warm.metrics.rungs[0].rung, "cache-confirm", "{}", arch.id);
        assert!(
            first.resilience.total_jobs > warm.resilience.total_jobs,
            "cold sweep must enumerate more jobs than a warm confirmation on {}",
            arch.id
        );

        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_records_quarantine_fall_back_and_self_heal() {
    let arch = ArchConfig::maxwell_gtx980();
    let n = 16_384;
    let cold = session(&arch).select_best(n).unwrap();
    let dir = store_dir("corrupt");
    let cached = session(&arch).store(&dir);
    let path = record_path(&dir, &arch.id, n);

    // Each scenario mutates a freshly-written valid record, then
    // sweeps again. `quarantines` says whether the mutation must move
    // the file aside as `.corrupt` (a stale-corpus record is invalid
    // but left in place for the overwrite).
    type Mutate = fn(&Path);
    let scenarios: [(&str, Mutate, bool); 6] = [
        ("truncated", |p| {
            let text = fs::read(p).unwrap();
            fs::write(p, &text[..text.len() / 3]).unwrap();
        }, true),
        ("bit-flipped payload", |p| {
            let text = fs::read_to_string(p).unwrap();
            assert!(text.contains("\"arch\": \"maxwell\""), "fixture drifted: {text}");
            fs::write(p, text.replace("\"arch\": \"maxwell\"", "\"arch\": \"maxwelk\"")).unwrap();
        }, true),
        ("garbage", |p| fs::write(p, b"!!not json at all!!").unwrap(), true),
        ("empty", |p| fs::write(p, b"").unwrap(), true),
        ("wrong schema version", |p| {
            let text = fs::read_to_string(p).unwrap();
            assert!(text.contains("\"schema\": 2,"), "fixture drifted: {text}");
            fs::write(p, text.replace("\"schema\": 2,", "\"schema\": 999,")).unwrap();
        }, true),
        ("wrong corpus hash", |p| {
            let text = fs::read_to_string(p).unwrap();
            let start = text.find("\"corpus\": \"").expect("corpus field") + 11;
            let mut t = text.clone();
            t.replace_range(start..start + 16, "0000000000000000");
            fs::write(p, t).unwrap();
        }, false),
    ];

    for (name, mutate, quarantines) in scenarios {
        // (Re)write a valid record, then break it.
        let seeded = cached.select_best(n).unwrap();
        assert!(path.exists(), "{name}: record must exist before mutation");
        assert!(
            seeded.metrics.store.as_ref().is_some_and(|s| s.warm || s.saved),
            "{name}: seeding run must hit or write the record"
        );
        let corrupt = PathBuf::from(format!("{}.corrupt", path.display()));
        let _ = fs::remove_file(&corrupt);
        mutate(&path);

        let report = cached.select_best(n).unwrap();
        assert_same_winner(&cold, &report, &format!("scenario `{name}`"));
        assert_eq!(store_outcome(&report), "invalid", "scenario `{name}`");
        assert!(
            report.resilience.quarantined >= 1,
            "scenario `{name}` must quarantine the record"
        );
        assert!(
            report
                .resilience
                .events
                .iter()
                .any(|e| matches!(e.quarantined, Some(QuarantineReason::CacheInvalid(_)))),
            "scenario `{name}` must report CacheInvalid, got {:?}",
            report.resilience.events
        );
        assert_eq!(
            corrupt.exists(),
            quarantines,
            "scenario `{name}`: wrong quarantine-file behavior"
        );
        // Self-heal: the fallback sweep rewrote the record, so the
        // next run warm-starts again.
        assert!(
            report.metrics.store.as_ref().is_some_and(|s| s.saved),
            "scenario `{name}` must overwrite the broken record"
        );
        let healed = cached.select_best(n).unwrap();
        assert_eq!(store_outcome(&healed), "warm", "scenario `{name}` did not self-heal");
        assert_same_winner(&cold, &healed, &format!("healed after `{name}`"));
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_orphans_are_swept_on_the_next_save() {
    let arch = ArchConfig::maxwell_gtx980();
    let n = 16_384;
    let dir = store_dir("torn");
    fs::create_dir_all(&dir).unwrap();
    // A writer killed mid-protocol leaves a half-written temp file
    // (and possibly a truncated live record from an earlier, buggier
    // era). Neither may survive a successful sweep.
    let orphan = dir.join(format!("{}.99999.tmp", StoreKey::for_sweep(&arch.id, n).file_name()));
    fs::write(&orphan, b"{\"schema\": 1, \"corp").unwrap();
    fs::write(record_path(&dir, &arch.id, n), b"{\"schema\": 1, \"corp").unwrap();

    let cold = session(&arch).select_best(n).unwrap();
    let report = session(&arch).store(&dir).select_best(n).unwrap();
    assert_same_winner(&cold, &report, "torn-write recovery");
    assert_eq!(store_outcome(&report), "invalid");
    assert!(!orphan.exists(), "save must sweep dead writers' temp files");
    assert!(report.metrics.store.as_ref().is_some_and(|s| s.saved));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_lock_from_a_dead_writer_is_broken() {
    let dir = store_dir("stale-lock");
    let store = TuningStore::open(&dir, 1).unwrap();
    // A PID beyond any real pid_max: the owner is provably dead.
    fs::write(dir.join("store.lock"), b"999999999").unwrap();
    let rec = tangram::StoreRecord {
        key: StoreKey::for_sweep("maxwell", 4096),
        n: 4096,
        version: "v".to_string(),
        block_size: 32,
        coarsen: 1,
        time_ns_bits: 1.0f64.to_bits(),
    };
    store.save(&rec).expect("stale lock must be broken, not honored");
    assert!(!dir.join("store.lock").exists(), "lock released after save");
    // A lock file holding garbage is a torn write of the lock itself —
    // also stale by definition.
    fs::write(dir.join("store.lock"), b"not a pid").unwrap();
    store.save(&rec).expect("garbage lock must be broken");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn contended_lock_fails_the_save_but_never_the_sweep() {
    let arch = ArchConfig::maxwell_gtx980();
    let n = 16_384;
    let dir = store_dir("held-lock");
    fs::create_dir_all(&dir).unwrap();
    // Our own PID is alive by construction, so the lock is honored as
    // live contention (another thread of this process mid-write).
    fs::write(dir.join("store.lock"), format!("{}", std::process::id())).unwrap();

    let store = TuningStore::open(&dir, 1).unwrap();
    let rec = tangram::StoreRecord {
        key: StoreKey::for_sweep(&arch.id, n),
        n,
        version: "v".to_string(),
        block_size: 32,
        coarsen: 1,
        time_ns_bits: 1.0f64.to_bits(),
    };
    match store.save(&rec) {
        Err(StoreError::Locked(_)) => {}
        other => panic!("expected Locked, got {other:?}"),
    }

    // At the session level the failed write-back degrades to a note
    // in the summary; the sweep itself still succeeds and matches a
    // storeless run.
    let cold = session(&arch).select_best(n).unwrap();
    let report = session(&arch).store(&dir).select_best(n).unwrap();
    assert_same_winner(&cold, &report, "contended-lock sweep");
    let s = report.metrics.store.as_ref().expect("store summary present");
    assert!(!s.saved, "a held lock must fail the write-back");
    assert!(
        s.detail.as_deref().is_some_and(|d| d.contains("save failed")),
        "summary must carry the save failure, got {:?}",
        s.detail
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn read_only_and_off_modes_respect_their_contracts() {
    let arch = ArchConfig::maxwell_gtx980();
    let n = 16_384;
    let dir = store_dir("modes");
    let cold = session(&arch).select_best(n).unwrap();

    // Off: the configured store is ignored outright — no summary, no
    // directory, no files.
    let off = session(&arch).store(&dir).cache_mode(CacheMode::Off).select_best(n).unwrap();
    assert_same_winner(&cold, &off, "cache off");
    assert!(off.metrics.store.is_none(), "off mode must not consult the store");
    assert!(!dir.exists(), "off mode must not create the store directory");

    // Read-only against an empty store: a miss that must not write.
    let ro = session(&arch).store(&dir).cache_mode(CacheMode::ReadOnly).select_best(n).unwrap();
    assert_same_winner(&cold, &ro, "ro miss");
    let s = ro.metrics.store.as_ref().expect("store summary present");
    assert_eq!((s.outcome.as_str(), s.saved), ("miss", false));
    assert!(!record_path(&dir, &arch.id, n).exists(), "ro mode must never write records");

    // Populate via rw, then ro warm-starts from it.
    session(&arch).store(&dir).select_best(n).unwrap();
    let ro_warm =
        session(&arch).store(&dir).cache_mode(CacheMode::ReadOnly).select_best(n).unwrap();
    assert_same_winner(&cold, &ro_warm, "ro warm");
    assert_eq!(store_outcome(&ro_warm), "warm");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bucket_hit_with_different_exact_size_is_an_honest_miss() {
    let arch = ArchConfig::maxwell_gtx980();
    let dir = store_dir("bucket");
    let cached = session(&arch).store(&dir);
    // 100_000 and 65_536 share bucket 17 but are different sweeps; a
    // warm start across them would return a winner tuned for the
    // wrong exact size.
    cached.select_best(100_000).unwrap();
    let other = cached.select_best(65_536).unwrap();
    let s = other.metrics.store.as_ref().expect("store summary present");
    assert_eq!(s.outcome, "miss", "a different exact n must not warm-start");
    assert!(
        s.detail.as_deref().is_some_and(|d| d.contains("bucket record is for n=100000")),
        "got {:?}",
        s.detail
    );
    // The overwrite wins the bucket: the later size now warm-starts,
    // the earlier one is back to a miss.
    assert_eq!(store_outcome(&cached.select_best(65_536).unwrap()), "warm");
    assert_eq!(store_outcome(&cached.select_best(100_000).unwrap()), "miss");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_never_tear_lose_or_leak() {
    // Many threads hammer one store: half write distinct records
    // (different arches and buckets), half pile onto one identical
    // record. Afterwards every record must read back valid — no torn
    // JSON, no lost update — and no `.tmp` or `store.lock` file may
    // survive. The writer lock's bounded jittered retry (PR-8) is
    // what absorbs the contention; receipts surface the attempts.
    let dir = store_dir("concurrent");
    fs::create_dir_all(&dir).unwrap();
    let dir = std::sync::Arc::new(dir);
    let make = |arch: &str, n: u64, block: u32| tangram::StoreRecord {
        key: StoreKey::for_sweep(arch, n),
        n,
        version: "DT,A / DS+S+V".to_string(),
        block_size: block,
        coarsen: 4,
        time_ns_bits: (n as f64).to_bits(),
    };
    let shapes: Vec<(String, u64)> = ["kepler", "maxwell", "pascal"]
        .iter()
        .flat_map(|a| [16_384u64, 65_536, 262_144].map(|n| (a.to_string(), n)))
        .collect();
    let mut handles = Vec::new();
    for (arch, n) in shapes.clone() {
        let dir = std::sync::Arc::clone(&dir);
        handles.push(std::thread::spawn(move || {
            let store = TuningStore::open(dir.as_ref(), 1).unwrap();
            let receipt = store.save(&make(&arch, n, 128)).expect("distinct save");
            assert!(receipt.lock_attempts >= 1);
        }));
    }
    for _ in 0..6 {
        let dir = std::sync::Arc::clone(&dir);
        handles.push(std::thread::spawn(move || {
            let store = TuningStore::open(dir.as_ref(), 1).unwrap();
            let receipt = store.save(&make("maxwell", 4096, 256)).expect("identical save");
            assert!(receipt.lock_attempts >= 1);
        }));
    }
    for h in handles {
        h.join().expect("writer thread panicked");
    }

    let store = TuningStore::open(dir.as_ref(), 1).unwrap();
    for (arch, n) in shapes {
        match store.load(&StoreKey::for_sweep(&arch, n)) {
            tangram::Lookup::Hit(rec) => {
                assert_eq!((rec.n, rec.block_size), (n, 128), "{arch} n={n}");
            }
            other => panic!("{arch} n={n}: lost or torn record: {other:?}"),
        }
    }
    match store.load(&StoreKey::for_sweep("maxwell", 4096)) {
        tangram::Lookup::Hit(rec) => assert_eq!(rec.block_size, 256),
        other => panic!("contended record lost: {other:?}"),
    }
    for entry in fs::read_dir(dir.as_ref()).unwrap().flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            name.ends_with(".json"),
            "leaked non-record file after concurrent writes: {name}"
        );
    }
    let _ = fs::remove_dir_all(dir.as_ref());
}

#[test]
fn barrier_aligned_saves_in_one_process_all_land() {
    // THREADS writers of one process release ROUNDS saves at the same
    // instant (a barrier before every round). The writer lock must
    // stay exclusive while its owner is alive, and no writer may
    // delete another's temp file: every save succeeds, every record
    // reads back, and no lock or temp file is left behind.
    const THREADS: usize = 4;
    const ROUNDS: u32 = 25;
    let dir = store_dir("barrier");
    fs::create_dir_all(&dir).unwrap();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
    let record = |t: usize, round: u32| {
        let n = 64u64 << round;
        tangram::StoreRecord {
            key: StoreKey::for_sweep(&format!("writer{t}"), n),
            n,
            version: "DT,A / DS+S+V".to_string(),
            block_size: 128,
            coarsen: 4,
            time_ns_bits: (n as f64).to_bits(),
        }
    };
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (dir, barrier) = (dir.clone(), std::sync::Arc::clone(&barrier));
            std::thread::spawn(move || {
                let store = TuningStore::open(&dir, 1).unwrap();
                // Failures are collected, not panicked on: a panicking
                // writer would strand the others at the barrier.
                let mut failures = Vec::new();
                for round in 0..ROUNDS {
                    barrier.wait();
                    if let Err(e) = store.save(&record(t, round)) {
                        failures.push(format!("writer {t} round {round}: {e}"));
                    }
                }
                failures
            })
        })
        .collect();
    let failures: Vec<String> =
        handles.into_iter().flat_map(|h| h.join().expect("writer thread panicked")).collect();
    assert!(failures.is_empty(), "saves failed: {failures:?}");

    let store = TuningStore::open(&dir, 1).unwrap();
    for t in 0..THREADS {
        for round in 0..ROUNDS {
            let want = record(t, round);
            match store.load(&want.key) {
                tangram::Lookup::Hit(rec) => assert_eq!(rec.n, want.n),
                other => panic!("writer {t} round {round}: record lost: {other:?}"),
            }
        }
    }
    for entry in fs::read_dir(&dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(name.ends_with(".json"), "leaked non-record file: {name}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn nearest_bucket_seeds_the_sweep_and_keeps_winners_bitwise() {
    // An exact miss next to a cached neighbor must warm-start the
    // halving sweep (summary.seeded) and still return the storeless
    // winner bit for bit — the seed narrows the search, never steers
    // it. 65_536 is bucket 17, 131_072 bucket 18, 1_048_576 bucket 21
    // (two buckets out from 18): both directions of nearest-neighbor
    // seeding are exercised, for sum-f32 on every architecture and
    // for segsum-f32 (a variant menu) on one.
    use tangram::evaluate::SweepMode;
    use tangram::{Dtype, RunReport, Workload, WorkloadKey};
    let halving =
        |arch: &ArchConfig| Session::new(arch.clone()).eval(
            EvalOptions::serial().with_sweep(SweepMode::Halving),
        );
    let tail = |r: &RunReport| {
        format!("{} {} {} {}", r.winner_id(), r.block_size(), r.coarsen(), r.time_ns().to_bits())
    };
    let mut cases: Vec<(ArchConfig, WorkloadKey)> =
        ArchConfig::paper_archs().into_iter().map(|a| (a, WorkloadKey::sum())).collect();
    cases.push((ArchConfig::pascal_p100(), WorkloadKey::segsum(Dtype::F32)));
    for (arch, key) in cases {
        let dir = store_dir(&format!("seeded-{}-{}", arch.id, key.id()));
        let cached = halving(&arch).store(&dir);
        let ctx = format!("{} {}", arch.id, key.id());

        // Empty store: a plain miss, nothing to seed from.
        let first = cached.run(&Workload::new(key, 65_536)).unwrap();
        let s = first.metrics().store.as_ref().expect("store summary present");
        assert!(!s.seeded, "{ctx}: empty store cannot seed");
        assert_eq!(s.outcome, "miss", "{ctx}");

        for n in [131_072u64, 1_048_576] {
            let cold = halving(&arch).run(&Workload::new(key, n)).unwrap();
            let report = cached.run(&Workload::new(key, n)).unwrap();
            assert_eq!(tail(&cold), tail(&report), "seeded n={n} on {ctx}");
            let s = report.metrics().store.as_ref().expect("store summary present");
            assert!(s.seeded, "{ctx} n={n}: neighbor present, sweep must seed");
            assert!(
                s.detail.as_deref().is_some_and(|d| d.contains("seeded from")),
                "{ctx} n={n}: detail must name the seed record, got {:?}",
                s.detail
            );
            assert_eq!(s.outcome, "miss", "{ctx} n={n}: seeding is still a miss");
            assert!(s.saved, "{ctx} n={n}: the seeded sweep writes its own bucket");
            // A seeded sweep that confirms its seed measures fewer
            // full-fidelity jobs than the unseeded halving rung; it
            // must at least never measure more.
            let rungs = match &report {
                RunReport::Reduce(r) => &r.metrics.rungs,
                RunReport::Workload(r) => &r.metrics.rungs,
            };
            assert!(
                rungs.iter().any(|r| r.rung == "seeded"),
                "{ctx} n={n}: rung stats must show the seeded rung, got {rungs:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// For any architecture and size, a warm-started sweep over the
    /// full pruned corpus returns the cold sweep's winner bit for bit
    /// — version, tuning, and modelled-time bits — while doing only
    /// one confirmation job.
    #[test]
    fn warm_start_winner_equals_cold_winner(
        arch_ix in 0usize..3,
        shift in 12u32..17,
    ) {
        let arch = ArchConfig::paper_archs().swap_remove(arch_ix);
        let n = 1u64 << shift;
        // Keep the corpus fixture warm across cases (support::pruned
        // is the same slice the sweeps enumerate internally).
        prop_assert!(!support::pruned().is_empty());

        let cold = session(&arch).select_best(n).unwrap();
        let dir = store_dir(&format!("prop-{}-{shift}", arch.id));
        let cached = session(&arch).store(&dir);
        let first = cached.select_best(n).unwrap();
        let warm = cached.select_best(n).unwrap();
        prop_assert_eq!(store_outcome(&warm), "warm");
        for (label, report) in [("miss", &first), ("warm", &warm)] {
            prop_assert_eq!(&cold.row.version, &report.row.version, "{} on {}", label, arch.id);
            prop_assert_eq!(cold.row.block_size, report.row.block_size, "{} on {}", label, arch.id);
            prop_assert_eq!(cold.row.coarsen, report.row.coarsen, "{} on {}", label, arch.id);
            prop_assert_eq!(
                cold.row.time_ns.to_bits(),
                report.row.time_ns.to_bits(),
                "{} on {}", label, arch.id
            );
        }
        prop_assert_eq!(warm.resilience.total_jobs, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
