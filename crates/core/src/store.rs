//! Durable, crash-safe persistence of sweep winners
//! (`tangram::store`).
//!
//! ROADMAP item 2 ("Autotuning-as-a-service") needs a tuning cache a
//! long-running server can trust after crashes, torn writes, and
//! concurrent writers. This module provides it: a [`TuningStore`]
//! directory holding one record per `(arch, workload, n-bucket)` key
//! (the workload is a typed [`WorkloadKey`] — kind + element dtype),
//! each record carrying a schema version, the corpus fingerprint it
//! was swept against, and an Fx checksum of its payload.
//!
//! ## Write protocol (crash safety)
//!
//! 1. acquire `store.lock`: write our PID to a unique temp file and
//!    `hard_link` it to `store.lock`, so the lock never exists without
//!    its owner's PID (the link fails with `AlreadyExists` exactly
//!    like `O_EXCL`; the store directory must therefore support hard
//!    links). A lock whose owner is dead is stale and broken; an
//!    empty or unreadable lock only after a grace period;
//! 2. write the full record to a `*.<seq>.<pid>.tmp` sibling unique
//!    to this call and `fsync` it;
//! 3. atomically `rename` over the destination and `fsync` the
//!    directory.
//!
//! A crash at any point leaves either the old record, the new record,
//! or a `*.tmp` orphan — never a half-written record under the live
//! name. Orphans of dead writers are swept out by later writers; a
//! live writer's temp files (this process's included) are never
//! touched.
//!
//! ## Read policy (defensive)
//!
//! [`TuningStore::load`] never panics and never returns an error: a
//! record that is unreadable, unparseable, checksum-mismatched, or
//! schema-mismatched is *quarantined* — renamed aside to `<file>.corrupt`
//! — and reported as [`Lookup::Invalid`], which the session layer
//! turns into a clean full sweep plus a
//! [`QuarantineReason::CacheInvalid`](crate::resilience::QuarantineReason)
//! entry. A record whose corpus fingerprint no longer matches the
//! live candidate set is *stale* rather than corrupt: it is reported
//! invalid but left in place for the fresh sweep to overwrite.
//!
//! The cached winner itself is never trusted blindly: the session
//! re-confirms it at full fidelity (modelled time bits *and* cpu-ref
//! oracle) before skipping a sweep — see
//! [`Session::store`](crate::api::Session::store).

use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use gpu_sim::hash::{fx_hash_bytes, fx_hash_hex};
use serde::{Deserialize as _, Serialize, Value};
use tangram_passes::planner::CodeVersion;
use tangram_passes::workload::WorkloadKey;

use crate::evaluate::coarsen_options;
use crate::tuner::BLOCK_SIZES;

/// On-disk record layout version. Bump on any incompatible change to
/// the record shape; readers quarantine records from other schemas.
///
/// v2 replaced the stringly `op`/`dtype` payload fields with one
/// typed `workload` field ([`WorkloadKey`] id string); v1 records are
/// quarantined on sight — an honest miss, never a misread.
pub const STORE_SCHEMA: u64 = 2;

/// How a session uses its tuning store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Warm-start from cached winners and write fresh winners back.
    #[default]
    ReadWrite,
    /// Warm-start only; never write (e.g. a read-only replica).
    ReadOnly,
    /// Ignore the store entirely.
    Off,
}

impl CacheMode {
    /// Stable identifier (the `--cache` flag spelling).
    pub fn id(self) -> &'static str {
        match self {
            CacheMode::ReadWrite => "rw",
            CacheMode::ReadOnly => "ro",
            CacheMode::Off => "off",
        }
    }
}

impl FromStr for CacheMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rw" | "readwrite" => Ok(CacheMode::ReadWrite),
            "ro" | "readonly" => Ok(CacheMode::ReadOnly),
            "off" | "none" => Ok(CacheMode::Off),
            other => Err(format!(
                "unknown cache mode `{other}` (expected rw|readwrite, ro|readonly, or off|none)"
            )),
        }
    }
}

/// The key a record is stored under: one winner per architecture,
/// typed workload, and array-size bucket (winners change with order
/// of magnitude, not per element — the same bucketing
/// [`crate::Reducer`] uses).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Architecture identifier (`kepler`/`maxwell`/`pascal`).
    pub arch: String,
    /// What the record tunes: kind + element dtype.
    pub workload: WorkloadKey,
    /// Size bucket: `64 - leading_zeros(n)`.
    pub bucket: u32,
}

impl StoreKey {
    /// The key of a default (`sum` over `f32`) sweep on `arch` at
    /// size `n`.
    pub fn for_sweep(arch: &str, n: u64) -> Self {
        Self::for_workload(arch, WorkloadKey::sum(), n)
    }

    /// The key of a sweep of `workload` on `arch` at size `n`.
    pub fn for_workload(arch: &str, workload: WorkloadKey, n: u64) -> Self {
        StoreKey { arch: arch.to_string(), workload, bucket: bucket_of(n) }
    }

    /// The record's file name inside the store directory
    /// (`maxwell-sum-f32-b17.json` — the workload id embeds the
    /// dtype, so v1 file names are unchanged for reductions).
    pub fn file_name(&self) -> String {
        format!("{}-{}-b{}.json", self.arch, self.workload.id(), self.bucket)
    }

    /// Compact display form for logs (`maxwell/sum/f32/b17`).
    pub fn label(&self) -> String {
        format!("{}/{}/b{}", self.arch, self.workload.label(), self.bucket)
    }
}

/// Size bucket used by the store (and [`crate::Reducer`]'s selection
/// cache): order-of-magnitude, not per-element.
pub fn bucket_of(n: u64) -> u32 {
    64 - n.max(1).leading_zeros()
}

/// One persisted sweep winner.
///
/// The modelled time is stored as raw `f64` bits (`time_ns_bits`) so
/// the JSON round-trip is exact — warm-start confirmation compares
/// bit-for-bit against a fresh full-fidelity measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// The key this record answers.
    pub key: StoreKey,
    /// Exact array size the sweep ran at (a bucket hit with a
    /// different `n` is a miss, not a warm start).
    pub n: u64,
    /// Winning code version (display string; mapped back to a live
    /// [`CodeVersion`] at load time).
    pub version: String,
    /// Winning block size.
    pub block_size: u32,
    /// Winning coarsening factor.
    pub coarsen: u32,
    /// Raw bits of the winner's modelled time (ns).
    pub time_ns_bits: u64,
}

impl StoreRecord {
    /// The winner's modelled time in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        f64::from_bits(self.time_ns_bits)
    }

    /// The payload map that gets checksummed and stored.
    fn payload_value(&self) -> Value {
        Value::Map(vec![
            ("arch".to_string(), self.key.arch.to_value()),
            ("workload".to_string(), self.key.workload.to_value()),
            ("bucket".to_string(), u64::from(self.key.bucket).to_value()),
            ("n".to_string(), self.n.to_value()),
            ("version".to_string(), self.version.to_value()),
            ("block_size".to_string(), u64::from(self.block_size).to_value()),
            ("coarsen".to_string(), u64::from(self.coarsen).to_value()),
            ("time_ns_bits".to_string(), self.time_ns_bits.to_value()),
        ])
    }

    fn from_payload(payload: &Value) -> Result<Self, String> {
        let s = |k: &str| -> Result<String, String> {
            payload
                .get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("payload field `{k}` missing or not a string"))
        };
        let u = |k: &str| -> Result<u64, String> {
            payload
                .get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("payload field `{k}` missing or not an integer"))
        };
        let narrow = |k: &str, v: u64| -> Result<u32, String> {
            u32::try_from(v).map_err(|_| format!("payload field `{k}` out of range"))
        };
        let workload = payload
            .get("workload")
            .ok_or_else(|| "payload field `workload` missing".to_string())
            .and_then(|v| {
                WorkloadKey::deserialize(v).map_err(|e| format!("unknown workload: {e}"))
            })?;
        Ok(StoreRecord {
            key: StoreKey {
                arch: s("arch")?,
                workload,
                bucket: narrow("bucket", u("bucket")?)?,
            },
            n: u("n")?,
            version: s("version")?,
            block_size: narrow("block_size", u("block_size")?)?,
            coarsen: narrow("coarsen", u("coarsen")?)?,
            time_ns_bits: u("time_ns_bits")?,
        })
    }
}

/// Errors surfaced by store *writes*. (Reads are infallible by
/// design — see [`TuningStore::load`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (permissions, disk full, …).
    Io(String),
    /// The store lock is held by another live process.
    Locked(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "tuning-store I/O error: {e}"),
            StoreError::Locked(e) => write!(f, "tuning store is locked: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Outcome of one defensive [`TuningStore::load`].
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// No record under this key.
    Miss,
    /// A record that passed every integrity check.
    Hit(StoreRecord),
    /// A record that failed an integrity check. `quarantined` names
    /// the `.corrupt` file the offender was moved to; stale-corpus
    /// records are invalid but left in place (`None`) for the fresh
    /// sweep to overwrite.
    Invalid {
        /// Human-readable reason (feeds `QuarantineReason::CacheInvalid`).
        reason: String,
        /// Path the corrupt file was renamed to, when it was.
        quarantined: Option<PathBuf>,
    },
}

/// Fingerprint of the candidate set a sweep ran over: the schema
/// version, every candidate's display string (in order), and the
/// tuning axes. A record swept against a different corpus must not
/// warm-start a sweep over this one.
pub fn corpus_fingerprint(candidates: &[CodeVersion]) -> u64 {
    let mut desc = format!("schema={STORE_SCHEMA};blocks={BLOCK_SIZES:?};");
    for &v in candidates {
        desc.push_str(&v.to_string());
        desc.push_str(&format!(";coarsen={:?}|", coarsen_options(v)));
    }
    fx_hash_bytes(desc.as_bytes())
}

/// Name of the writer lock file inside a store directory.
const LOCK_FILE: &str = "store.lock";
/// Attempts to acquire the lock before giving up with
/// [`StoreError::Locked`]. Retries back off exponentially from
/// `LOCK_RETRY_BASE_MS` (capped at `LOCK_RETRY_CAP_MS`) with ±50%
/// jitter, so a herd of daemon workers contending on one store
/// directory decorrelates instead of retrying in lockstep.
const LOCK_RETRIES: u32 = 12;
const LOCK_RETRY_BASE_MS: u64 = 2;
const LOCK_RETRY_CAP_MS: u64 = 50;
/// Age (seconds) past which an empty or unreadable lock is presumed
/// abandoned: a writer that crashed between creating a lock and
/// writing its PID (locks this module writes always carry one).
const LOCK_GRACE_SECS: u64 = 10;
/// Age (seconds) past which a lock or temp file whose owner cannot
/// be probed is presumed dead (non-Linux fallback; on Linux
/// `/proc/<pid>` decides).
const LOCK_STALE_SECS: u64 = 300;

/// Per-process counter that keeps temp-file names unique across the
/// threads of one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp-file path in `dir` unique to this call:
/// `<stem>.<seq>.<pid>.tmp`. The owner's PID is the last field before
/// `.tmp` (see [`tmp_owner`]).
fn tmp_path(dir: &Path, stem: &str) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{stem}.{seq}.{}.tmp", std::process::id()))
}

/// The PID embedded in a temp-file name (`None` for other files).
fn tmp_owner(name: &str) -> Option<u32> {
    name.strip_suffix(".tmp")?.rsplit('.').next()?.parse().ok()
}

/// A directory of persisted sweep winners for one corpus fingerprint.
#[derive(Debug, Clone)]
pub struct TuningStore {
    dir: PathBuf,
    corpus: u64,
}

impl TuningStore {
    /// Open (creating if needed) the store rooted at `dir`, reading
    /// and writing records for the corpus identified by `corpus`
    /// (see [`corpus_fingerprint`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, corpus: u64) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(TuningStore { dir, corpus })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The corpus fingerprint this store validates records against.
    pub fn corpus(&self) -> u64 {
        self.corpus
    }

    fn record_path(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Move a failed record aside as `<file>.corrupt` so it never
    /// poisons another load; returns the quarantine path on success.
    /// Best-effort: when even the rename fails the offender is left
    /// behind, and the next load will fail (and retry the rename)
    /// the same deterministic way.
    fn quarantine_file(&self, path: &Path) -> Option<PathBuf> {
        let mut target = path.as_os_str().to_owned();
        target.push(".corrupt");
        let target = PathBuf::from(target);
        fs::rename(path, &target).ok().map(|()| target)
    }

    /// Look up the record for `key`, verifying integrity. Infallible:
    /// any I/O or integrity failure degrades to [`Lookup::Miss`] /
    /// [`Lookup::Invalid`], never a panic or an error — a bad cache
    /// must not be able to break a sweep.
    pub fn load(&self, key: &StoreKey) -> Lookup {
        let path = self.record_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => {
                return Lookup::Invalid {
                    reason: format!("unreadable record {}: {e}", path.display()),
                    quarantined: self.quarantine_file(&path),
                }
            }
        };
        match self.decode(&text) {
            Ok(rec) if rec.key == *key => Lookup::Hit(rec),
            Ok(rec) => Lookup::Invalid {
                reason: format!(
                    "record key {} does not match file {}",
                    rec.key.label(),
                    path.display()
                ),
                quarantined: self.quarantine_file(&path),
            },
            Err(Corrupt::Quarantine(reason)) => Lookup::Invalid {
                reason: format!("{reason} ({})", path.display()),
                quarantined: self.quarantine_file(&path),
            },
            // Stale ≠ corrupt: the file is internally consistent, it
            // just answers for a corpus we are no longer sweeping.
            // Leave it for the fresh sweep to overwrite.
            Err(Corrupt::Stale(reason)) => {
                Lookup::Invalid { reason, quarantined: None }
            }
        }
    }

    fn decode(&self, text: &str) -> Result<StoreRecord, Corrupt> {
        let root = serde_json::from_str(text)
            .map_err(|e| Corrupt::Quarantine(format!("garbage or truncated record: {e}")))?;
        let crc = root
            .get("crc")
            .and_then(Value::as_str)
            .ok_or_else(|| Corrupt::Quarantine("record has no `crc` field".to_string()))?
            .to_string();
        let payload = root
            .get("payload")
            .ok_or_else(|| Corrupt::Quarantine("record has no `payload` field".to_string()))?;
        let got = checksum_of(payload).map_err(|e| Corrupt::Quarantine(e.to_string()))?;
        if got != crc {
            return Err(Corrupt::Quarantine(format!(
                "checksum mismatch: expected {crc}, computed {got}"
            )));
        }
        let schema = root
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or_else(|| Corrupt::Quarantine("record has no `schema` field".to_string()))?;
        if schema != STORE_SCHEMA {
            return Err(Corrupt::Quarantine(format!(
                "schema version mismatch: record v{schema}, reader v{STORE_SCHEMA}"
            )));
        }
        let corpus = root
            .get("corpus")
            .and_then(Value::as_str)
            .ok_or_else(|| Corrupt::Quarantine("record has no `corpus` field".to_string()))?;
        let want = format!("{:016x}", self.corpus);
        if corpus != want {
            return Err(Corrupt::Stale(format!(
                "corpus fingerprint mismatch: record {corpus}, live corpus {want}"
            )));
        }
        StoreRecord::from_payload(payload).map_err(Corrupt::Quarantine)
    }

    /// Persist `rec` under its key with the crash-safe write protocol
    /// (lock, temp file, fsync, atomic rename, directory fsync).
    /// Returns a [`SaveReceipt`] accounting for how hard the writer
    /// lock was fought over, so callers (the session layer, the serve
    /// daemon's metrics) can surface contention.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another live process holds the
    /// writer lock through the whole bounded retry schedule;
    /// [`StoreError::Io`] on filesystem failures. Both leave any
    /// existing record untouched.
    pub fn save(&self, rec: &StoreRecord) -> Result<SaveReceipt, StoreError> {
        let lock = LockGuard::acquire(&self.dir)?;
        let receipt = SaveReceipt { lock_attempts: lock.attempts };
        self.sweep_orphans();
        let path = self.record_path(&rec.key);
        let tmp = tmp_path(&self.dir, &rec.key.file_name());
        let text = encode(rec, self.corpus).map_err(|e| StoreError::Io(e.to_string()))?;
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, &path)?;
            // Persist the rename itself: fsync the directory entry.
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
            Ok(())
        };
        write().map_err(|e| {
            let _ = fs::remove_file(&tmp);
            StoreError::Io(format!("write {}: {e}", path.display()))
        })?;
        drop(lock);
        Ok(receipt)
    }

    /// The record *nearest* to `key` in bucket space: same
    /// architecture and workload, minimal `|bucket − key.bucket|`
    /// (ties break toward the smaller bucket — a winner tuned on the
    /// smaller size is the more conservative seed). Includes the exact
    /// bucket itself, which matters when the bucket's record was swept
    /// at a *different* exact `n` (an honest miss for the warm path,
    /// but a distance-0 seed for a sweep).
    ///
    /// Used by the serve layer's warm-adjacent path: an exact-bucket
    /// miss seeds the halving sweep's survivor selection from the
    /// nearest cached winner (see
    /// [`crate::evaluate::SeedHint`]), so queries adjacent to cached
    /// shapes pay confirmation cost, not discovery cost. Defensive
    /// like [`TuningStore::load`]: corrupt neighbors are quarantined
    /// and skipped, never propagated.
    pub fn load_nearest(&self, key: &StoreKey) -> Option<StoreRecord> {
        let entries = fs::read_dir(&self.dir).ok()?;
        let mut buckets: Vec<u32> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(stem) = name.strip_suffix(".json") else { continue };
            let prefix = format!("{}-{}-b", key.arch, key.workload.id());
            let Some(tail) = stem.strip_prefix(prefix.as_str()) else { continue };
            if let Ok(bucket) = tail.parse::<u32>() {
                buckets.push(bucket);
            }
        }
        buckets.sort_by_key(|&b| (b.abs_diff(key.bucket), b));
        for bucket in buckets {
            let candidate = StoreKey { bucket, ..key.clone() };
            if let Lookup::Hit(rec) = self.load(&candidate) {
                return Some(rec);
            }
        }
        None
    }

    /// Remove `*.tmp` orphans left by writers that died mid-protocol:
    /// only files whose embedded owner is gone (see [`owner_gone`]).
    /// A live writer's temp files — another process's lock staging
    /// file, or one of this process's own — are never touched.
    fn sweep_orphans(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if tmp_owner(&name.to_string_lossy()).is_some_and(|pid| owner_gone(pid, &entry.path()))
            {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Why a record failed to decode: quarantine-worthy corruption vs. a
/// merely stale (different-corpus) record.
enum Corrupt {
    Quarantine(String),
    Stale(String),
}

/// Checksum of a payload value: the Fx hash of its compact JSON
/// serialization (deterministic — the shim serializer emits maps in
/// insertion order with a fixed float format).
fn checksum_of(payload: &Value) -> Result<String, serde_json::Error> {
    Ok(fx_hash_hex(serde_json::to_string(payload)?.as_bytes()))
}

fn encode(rec: &StoreRecord, corpus: u64) -> Result<String, serde_json::Error> {
    let payload = rec.payload_value();
    let crc = checksum_of(&payload)?;
    let root = Value::Map(vec![
        ("schema".to_string(), STORE_SCHEMA.to_value()),
        ("corpus".to_string(), format!("{corpus:016x}").to_value()),
        ("crc".to_string(), crc.to_value()),
        ("payload".to_string(), payload),
    ]);
    let mut text = serde_json::to_string_pretty(&root)?;
    text.push('\n');
    Ok(text)
}

/// What one successful [`TuningStore::save`] cost: how many exclusive-
/// create attempts the writer lock took (1 = uncontended). Surfaced in
/// [`crate::metrics::StoreSummary`] detail so sustained contention
/// between daemon workers sharing a store directory is observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReceipt {
    /// Lock-acquisition attempts the save needed (≥ 1).
    pub lock_attempts: u32,
}

/// Jitter for the lock retry backoff: a splitmix64-style scramble of
/// (pid, attempt, monotonic nanos), mapped onto `[half, delay]` so two
/// contending writers never sleep the same schedule. Pure function of
/// its inputs apart from the clock — the *winner* of the lock is
/// whoever's `create_new` lands first, so jitter never affects store
/// contents, only wait time.
fn jittered_ms(attempt: u32, delay: u64) -> u64 {
    let now = std::time::SystemTime::UNIX_EPOCH
        .elapsed()
        .map_or(0, |d| d.subsec_nanos() as u64);
    let mut z = (u64::from(std::process::id()) << 32)
        ^ (u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        ^ now;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let half = (delay / 2).max(1);
    half + z % (delay - half + 1)
}

/// Exclusive writer lock: a `store.lock` file holding the owner's
/// PID, hard-linked into place from a staging file so its content is
/// visible the instant it exists. Dropped (removed) when the guard
/// goes out of scope; locks whose owner died are detected as stale
/// and broken. Contended acquisition retries on a bounded exponential
/// backoff with jitter (`LOCK_RETRIES` attempts), and the guard
/// records how many attempts it took.
struct LockGuard {
    path: PathBuf,
    attempts: u32,
}

impl LockGuard {
    fn acquire(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join(LOCK_FILE);
        let staged = tmp_path(dir, LOCK_FILE);
        fs::write(&staged, std::process::id().to_string())
            .map_err(|e| StoreError::Io(format!("write {}: {e}", staged.display())))?;
        let lock = Self::link(&staged, path);
        let _ = fs::remove_file(&staged);
        lock
    }

    fn link(staged: &Path, path: PathBuf) -> Result<Self, StoreError> {
        for attempt in 0..LOCK_RETRIES {
            match fs::hard_link(staged, &path) {
                Ok(()) => return Ok(LockGuard { path, attempts: attempt + 1 }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&path) {
                        // Break the dead owner's lock and retry the
                        // exclusive link (racing breakers are fine:
                        // exactly one link wins).
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if attempt + 1 < LOCK_RETRIES {
                        let delay = (LOCK_RETRY_BASE_MS << attempt.min(16))
                            .min(LOCK_RETRY_CAP_MS);
                        std::thread::sleep(std::time::Duration::from_millis(jittered_ms(
                            attempt, delay,
                        )));
                    }
                }
                Err(e) => {
                    return Err(StoreError::Io(format!("link {}: {e}", path.display())))
                }
            }
        }
        Err(StoreError::Locked(format!(
            "{} held by a live process after {} attempts",
            path.display(),
            LOCK_RETRIES
        )))
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Whether the lock at `path` belongs to a writer that no longer
/// exists. A lock holding a PID is stale when that process is gone; a
/// lock holding anything else is garbage no writer produces. An empty
/// or unreadable lock may be a writer between creating and filling
/// it, so it is stale only past [`LOCK_GRACE_SECS`].
fn lock_is_stale(path: &Path) -> bool {
    match fs::read_to_string(path) {
        Ok(text) if !text.trim().is_empty() => match text.trim().parse::<u32>() {
            Ok(pid) => owner_gone(pid, path),
            Err(_) => true,
        },
        _ => older_than(path, LOCK_GRACE_SECS),
    }
}

/// Whether the writer `pid` that owns the file at `path` is gone.
/// This process never is. On Linux `/proc/<pid>` decides; elsewhere
/// the owner cannot be probed, so a file older than
/// [`LOCK_STALE_SECS`] is presumed abandoned.
fn owner_gone(pid: u32, path: &Path) -> bool {
    if pid == std::process::id() {
        return false;
    }
    if cfg!(target_os = "linux") {
        !Path::new(&format!("/proc/{pid}")).exists()
    } else {
        older_than(path, LOCK_STALE_SECS)
    }
}

/// Whether the file at `path` was last modified at least `secs` ago
/// (`false` when it is gone or its age is unknown).
fn older_than(path: &Path, secs: u64) -> bool {
    fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age.as_secs() >= secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_passes::planner;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tangram-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record() -> StoreRecord {
        StoreRecord {
            key: StoreKey::for_sweep("maxwell", 65_536),
            n: 65_536,
            version: "gridStride+coopV".to_string(),
            block_size: 256,
            coarsen: 4,
            time_ns_bits: 123_456.75f64.to_bits(),
        }
    }

    #[test]
    fn cache_mode_parses_every_spelling() {
        for (s, want) in [
            ("rw", CacheMode::ReadWrite),
            ("readwrite", CacheMode::ReadWrite),
            ("ro", CacheMode::ReadOnly),
            ("readonly", CacheMode::ReadOnly),
            ("off", CacheMode::Off),
            ("none", CacheMode::Off),
        ] {
            assert_eq!(s.parse::<CacheMode>().unwrap(), want);
        }
        let err = "turbo".parse::<CacheMode>().unwrap_err();
        for menu in ["rw", "readwrite", "ro", "readonly", "off", "none"] {
            assert!(err.contains(menu), "error must list `{menu}`: {err}");
        }
    }

    #[test]
    fn key_buckets_by_order_of_magnitude() {
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(65_536), 17);
        assert_eq!(bucket_of(65_537), 17);
        assert_eq!(bucket_of(131_072), 18);
        let key = StoreKey::for_sweep("pascal", 4 << 20);
        assert_eq!(key.file_name(), "pascal-sum-f32-b23.json");
        assert_eq!(key.label(), "pascal/sum/f32/b23");
    }

    #[test]
    fn typed_keys_name_files_per_workload() {
        let am = StoreKey::for_workload("maxwell", WorkloadKey::argmax(), 1 << 16);
        assert_eq!(am.file_name(), "maxwell-argmax-f32-b17.json");
        assert_eq!(am.label(), "maxwell/argmax/f32/b17");
        let h = StoreKey::for_workload("kepler", WorkloadKey::histogram(64), 1 << 16);
        assert_eq!(h.file_name(), "kepler-hist64-f32-b17.json");
    }

    #[test]
    fn workload_records_round_trip_exactly() {
        let dir = tmpdir("wl-roundtrip");
        let store = TuningStore::open(&dir, 7).unwrap();
        for workload in [WorkloadKey::argmax(), WorkloadKey::argmin(), WorkloadKey::histogram(16)]
        {
            let mut rec = record();
            rec.key = StoreKey::for_workload("maxwell", workload, 65_536);
            rec.version = "DT / SH".to_string();
            assert_eq!(store.load(&rec.key), Lookup::Miss);
            store.save(&rec).unwrap();
            match store.load(&rec.key) {
                Lookup::Hit(got) => assert_eq!(got, rec),
                other => panic!("expected hit for {}, got {other:?}", workload.id()),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_workload_record_is_quarantined_not_a_panic() {
        let dir = tmpdir("wl-unknown");
        let store = TuningStore::open(&dir, 7).unwrap();
        // Forge an internally consistent v2 record (valid crc, schema,
        // corpus) whose workload id no reader version understands.
        let payload = Value::Map(vec![
            ("arch".to_string(), "maxwell".to_value()),
            ("workload".to_string(), Value::Str("warp9-f32".to_string())),
            ("bucket".to_string(), 17u64.to_value()),
            ("n".to_string(), 65_536u64.to_value()),
            ("version".to_string(), "DT / AG".to_value()),
            ("block_size".to_string(), 256u64.to_value()),
            ("coarsen".to_string(), 4u64.to_value()),
            ("time_ns_bits".to_string(), 1u64.to_value()),
        ]);
        let crc = checksum_of(&payload).unwrap();
        let root = Value::Map(vec![
            ("schema".to_string(), STORE_SCHEMA.to_value()),
            ("corpus".to_string(), format!("{:016x}", 7u64).to_value()),
            ("crc".to_string(), crc.to_value()),
            ("payload".to_string(), payload),
        ]);
        let path = dir.join("maxwell-warp9-f32-b17.json");
        fs::write(&path, serde_json::to_string(&root).unwrap()).unwrap();
        let probe =
            StoreKey { arch: "maxwell".to_string(), workload: WorkloadKey::sum(), bucket: 17 };
        // Probing any key never trips over the alien file; probing the
        // alien file's own name quarantines it.
        assert_eq!(store.load(&probe), Lookup::Miss);
        let text = fs::read_to_string(&path).unwrap();
        match store.decode(&text) {
            Err(Corrupt::Quarantine(reason)) => {
                assert!(reason.contains("unknown workload"), "{reason}");
            }
            _ => panic!("unknown workload must decode as quarantine-worthy"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_exactly() {
        let dir = tmpdir("roundtrip");
        let store = TuningStore::open(&dir, 7).unwrap();
        let rec = record();
        assert_eq!(store.load(&rec.key), Lookup::Miss);
        store.save(&rec).unwrap();
        match store.load(&rec.key) {
            Lookup::Hit(got) => {
                assert_eq!(got, rec);
                assert_eq!(got.time_ns().to_bits(), rec.time_ns_bits);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        // The lock is released after the save.
        assert!(!dir.join(LOCK_FILE).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_fingerprint_tracks_candidates() {
        let pruned = planner::enumerate_pruned();
        let a = corpus_fingerprint(&pruned);
        assert_eq!(a, corpus_fingerprint(&pruned), "fingerprint must be deterministic");
        assert_ne!(a, corpus_fingerprint(&pruned[1..]), "subset must fingerprint differently");
    }

    #[test]
    fn stale_corpus_is_invalid_but_not_quarantined() {
        let dir = tmpdir("stale");
        let rec = record();
        TuningStore::open(&dir, 1).unwrap().save(&rec).unwrap();
        let newer = TuningStore::open(&dir, 2).unwrap();
        match newer.load(&rec.key) {
            Lookup::Invalid { reason, quarantined } => {
                assert!(reason.contains("corpus fingerprint mismatch"), "{reason}");
                assert!(quarantined.is_none(), "stale records stay in place");
            }
            other => panic!("expected invalid, got {other:?}"),
        }
        // The record file survives, and a rewrite under the new corpus
        // makes it valid again.
        assert!(dir.join(rec.key.file_name()).exists());
        newer.save(&rec).unwrap();
        assert!(matches!(newer.load(&rec.key), Lookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncontended_save_takes_one_lock_attempt() {
        let dir = tmpdir("receipt");
        let store = TuningStore::open(&dir, 7).unwrap();
        let receipt = store.save(&record()).unwrap();
        assert_eq!(receipt.lock_attempts, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn jitter_stays_within_half_to_full_delay() {
        for attempt in 0..LOCK_RETRIES {
            let delay = (LOCK_RETRY_BASE_MS << attempt.min(16)).min(LOCK_RETRY_CAP_MS);
            for _ in 0..64 {
                let ms = jittered_ms(attempt, delay);
                assert!(ms >= (delay / 2).max(1), "jitter below half: {ms} < {delay}/2");
                assert!(ms <= delay, "jitter above cap: {ms} > {delay}");
            }
        }
    }

    #[test]
    fn backoff_delays_grow_to_the_cap() {
        let delays: Vec<u64> = (0..LOCK_RETRIES)
            .map(|a| (LOCK_RETRY_BASE_MS << a.min(16)).min(LOCK_RETRY_CAP_MS))
            .collect();
        assert_eq!(delays[0], LOCK_RETRY_BASE_MS);
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "monotone: {delays:?}");
        assert_eq!(*delays.last().unwrap(), LOCK_RETRY_CAP_MS);
        // The whole schedule is bounded: even fully contended, a save
        // gives up in well under a second of sleeping.
        let worst: u64 = delays.iter().sum();
        assert!(worst <= LOCK_RETRY_CAP_MS * u64::from(LOCK_RETRIES), "{worst}");
    }

    #[test]
    fn nearest_bucket_prefers_smallest_distance_then_smaller_bucket() {
        let dir = tmpdir("nearest");
        let store = TuningStore::open(&dir, 7).unwrap();
        let probe = StoreKey::for_sweep("maxwell", 1 << 19); // b20
        assert!(store.load_nearest(&probe).is_none(), "empty store has no neighbor");

        let mut far = record(); // b17
        far.key = StoreKey::for_sweep("maxwell", 1 << 16);
        far.n = 1 << 16;
        store.save(&far).unwrap();
        // Different arch at distance 0 must never be picked up.
        let mut alien = record();
        alien.key = StoreKey::for_sweep("pascal", 1 << 19);
        alien.n = 1 << 19;
        store.save(&alien).unwrap();
        assert_eq!(store.load_nearest(&probe).unwrap().key.bucket, 17);

        let mut near = record(); // b21, distance 1 vs b17's distance 3
        near.key = StoreKey::for_sweep("maxwell", 1 << 20);
        near.n = 1 << 20;
        store.save(&near).unwrap();
        assert_eq!(store.load_nearest(&probe).unwrap().key.bucket, 21);

        // Distance tie (b19 vs b21 around b20): the smaller bucket wins.
        let mut below = record();
        below.key = StoreKey::for_sweep("maxwell", 1 << 18);
        below.n = 1 << 18;
        store.save(&below).unwrap();
        assert_eq!(store.load_nearest(&probe).unwrap().key.bucket, 19);

        // The exact bucket itself is a distance-0 neighbor.
        let mut exact = record();
        exact.key = probe.clone();
        exact.n = 1 << 19;
        store.save(&exact).unwrap();
        assert_eq!(store.load_nearest(&probe).unwrap().key.bucket, 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nearest_bucket_skips_corrupt_neighbors() {
        let dir = tmpdir("nearest-corrupt");
        let store = TuningStore::open(&dir, 7).unwrap();
        let mut near = record();
        near.key = StoreKey::for_sweep("maxwell", 1 << 18);
        near.n = 1 << 18;
        store.save(&near).unwrap();
        let mut far = record();
        far.key = StoreKey::for_sweep("maxwell", 1 << 14);
        far.n = 1 << 14;
        store.save(&far).unwrap();
        // Corrupt the near record; the scan must fall through to the
        // intact far one (and quarantine the offender).
        fs::write(dir.join(near.key.file_name()), b"{ torn").unwrap();
        let probe = StoreKey::for_sweep("maxwell", 1 << 19);
        assert_eq!(store.load_nearest(&probe).unwrap().key.bucket, 15);
        assert!(dir
            .join(format!("{}.corrupt", near.key.file_name()))
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_cleans_up_orphaned_tmp_files() {
        let dir = tmpdir("orphan");
        let store = TuningStore::open(&dir, 7).unwrap();
        let orphan = dir.join("dead-writer.json.12345.tmp");
        fs::write(&orphan, b"half a record").unwrap();
        store.save(&record()).unwrap();
        assert!(!orphan.exists(), "writers sweep dead writers' temp files");
        let _ = fs::remove_dir_all(&dir);
    }
}
