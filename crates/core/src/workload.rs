//! First-class workloads for the tuning API (`tangram::workload`).
//!
//! The *workload* is the unit the tuner speaks: a [`Workload`] names
//! what is computed ([`WorkloadKey`]: plain reductions, argmin/argmax
//! with index payloads, bin-indexed histograms, scans, segmented
//! sums) over how many elements, supplies the deterministic oracle
//! corpus ([`Workload::oracle_input`]) and the CPU-reference expected
//! value ([`Workload::expected`]), and [`crate::Session::run`] tunes
//! it end to end.
//!
//! Non-reduce workloads are swept by the same engine as reductions,
//! over their kind's [`WlVariant`] menu crossed with the same
//! block-size/coarsening axes. Winners are validated against the CPU
//! reference *exactly* (`u64` equality for packed arg-pairs, per-bin
//! equality for histograms, bitwise output words for scans) before
//! they are reported or persisted.

use std::str::FromStr;

use gpu_sim::hash::fx_hash_bytes;
use gpu_sim::profile::Trace;
use serde::Serialize;
use tangram_passes::specialize::ReduceOp;
use tangram_passes::workload::{enumerate_workload_variants, SEGMENT_PATTERN};
pub use tangram_passes::workload::{
    enumerate_variants_for, segments_for, Dtype, WlVariant, WorkloadKey, WorkloadKind,
};

use crate::api::CandidateRaces;
use crate::metrics::SweepMetrics;
use crate::store::STORE_SCHEMA;
use crate::tuner::{BLOCK_SIZES, COARSEN};

/// A tuning problem: what to compute ([`WorkloadKey`]) over how many
/// elements. The single argument of [`crate::Session::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// What the workload computes (kind + element dtype).
    pub key: WorkloadKey,
    /// Array size in elements.
    pub n: u64,
}

impl Workload {
    /// A workload for `key` over `n` elements.
    pub fn new(key: WorkloadKey, n: u64) -> Self {
        Workload { key, n }
    }

    /// A `sum-f32` reduction over `n` elements (the classic sweep).
    pub fn sum(n: u64) -> Self {
        Workload::new(WorkloadKey::sum(), n)
    }

    /// A `max-f32` reduction over `n` elements.
    pub fn max(n: u64) -> Self {
        Workload::new(WorkloadKey::reduce(ReduceOp::Max), n)
    }

    /// A `min-f32` reduction over `n` elements.
    pub fn min(n: u64) -> Self {
        Workload::new(WorkloadKey::reduce(ReduceOp::Min), n)
    }

    /// An `argmax-f32` workload over `n` elements.
    pub fn argmax(n: u64) -> Self {
        Workload::new(WorkloadKey::argmax(), n)
    }

    /// An `argmin-f32` workload over `n` elements.
    pub fn argmin(n: u64) -> Self {
        Workload::new(WorkloadKey::argmin(), n)
    }

    /// A `hist<bins>-f32` workload over `n` elements.
    pub fn histogram(bins: u32, n: u64) -> Self {
        Workload::new(WorkloadKey::histogram(bins), n)
    }

    /// An inclusive `scan-f32` workload over `n` elements.
    pub fn scan(n: u64) -> Self {
        Workload::new(WorkloadKey::scan(Dtype::F32), n)
    }

    /// An exclusive `exscan-f32` workload over `n` elements.
    pub fn exscan(n: u64) -> Self {
        Workload::new(WorkloadKey::exscan(Dtype::F32), n)
    }

    /// A `segsum-f32` workload over `n` elements (canonical segment
    /// descriptor: [`segment_map`]).
    pub fn segsum(n: u64) -> Self {
        Workload::new(WorkloadKey::segsum(Dtype::F32), n)
    }

    /// The deterministic oracle corpus for this workload's size
    /// ([`workload_input_for`]).
    pub fn oracle_input(&self) -> Vec<f32> {
        workload_input_for(self.key, self.n)
    }

    /// The CPU-reference expected value of this workload over `data`:
    /// [`expected_value`].
    pub fn expected(&self, data: &[f32]) -> WorkloadValue {
        expected_value(self.key, data)
    }
}

impl FromStr for Workload {
    type Err = String;

    /// Parse `"<workload>@<n>"` (e.g. `argmax@65536`); a bare key
    /// parses with `n = 0` (callers supply the size).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('@') {
            Some((key, n)) => Ok(Workload {
                key: key.parse()?,
                n: n.parse().map_err(|_| format!("bad element count `{n}`"))?,
            }),
            None => Ok(Workload { key: s.parse()?, n: 0 }),
        }
    }
}

/// The deterministic workload corpus at size `n`: the resilience
/// oracle's `(i % 17) - 3` ramp with planted extremes for `n >= 8` —
/// a duplicated `+1e30` pair starting at `n/3` (so argmax exercises
/// the smallest-index tie-break) and a duplicated `-1e30` pair
/// starting at `2n/3` (likewise for argmin). NaN-free by
/// construction, and safely binnable: the simulator's `cvt` f32→i32
/// matches [`cpu_ref::histogram_bin`] bit-for-bit even at `±1e30`.
pub fn workload_input(n: u64) -> Vec<f32> {
    let mut data: Vec<f32> = (0..n).map(|i| ((i % 17) as f32) - 3.0).collect();
    if n >= 8 {
        let hi = (n / 3) as usize;
        data[hi] = 1e30;
        data[hi + 1] = 1e30;
        let lo = (2 * n / 3) as usize;
        data[lo] = -1e30;
        data[lo + 1] = -1e30;
    }
    data
}

/// The deterministic scan/segsum corpus at size `n`: the same
/// `(i % 17) - 3` ramp *without* the planted `±1e30` extremes. Every
/// element is an integer in `[-3, 13]`, so every prefix and segment
/// partial at oracle sizes (≤ 2¹⁶ elements ⇒ |sum| < 2²⁰ ≪ 2²⁴) is
/// exactly representable in `f32` — any association or atomic order
/// on the device produces bit-identical results, which is what lets
/// the vector-valued oracles compare with zero tolerance.
pub fn scan_input(n: u64) -> Vec<f32> {
    (0..n).map(|i| ((i % 17) as f32) - 3.0).collect()
}

/// The oracle corpus for `key` at size `n`: scans and segmented sums
/// use the exactness-preserving [`scan_input`] ramp, every other kind
/// the classic [`workload_input`] with planted extremes.
pub fn workload_input_for(key: WorkloadKey, n: u64) -> Vec<f32> {
    match key.kind {
        WorkloadKind::Scan { .. } | WorkloadKind::SegSum => scan_input(n),
        _ => workload_input(n),
    }
}

/// Expand the canonical segment descriptor at size `n`: element `i`'s
/// segment id, following [`SEGMENT_PATTERN`] cyclically (Fibonacci
/// run lengths 1,1,2,3,5,8,13,21 — short head segments stress
/// head-flag handling, the 21-run stresses sorted-run privatization).
/// Sorted ascending from 0; `segments_for(n)` ids total.
pub fn segment_map(n: u64) -> Vec<u32> {
    let mut ids = Vec::with_capacity(n as usize);
    let mut seg: u32 = 0;
    'fill: loop {
        for &len in &SEGMENT_PATTERN {
            if ids.len() as u64 >= n {
                break 'fill;
            }
            let take = len.min(n - ids.len() as u64);
            for _ in 0..take {
                ids.push(seg);
            }
            seg += 1;
        }
    }
    ids
}

/// Tag of [`workload_input`] in a sweep context's input buffer (see
/// [`crate::tuner::BenchContext::ensure_input`]). Histogram timing
/// depends on atomic contention, which depends on the data — every
/// measurement of a workload sweep runs over this one corpus so
/// modelled times are deterministic for any thread count.
pub(crate) const WORKLOAD_INPUT_TAG: u64 = 0x774c_434f_5250_5553;

/// Tag of [`scan_input`] in a sweep context's input buffer — the
/// scan/segsum corpus is distinct (no planted extremes), so it hashes
/// under its own tag.
pub(crate) const SCAN_INPUT_TAG: u64 = 0x5343_414e_434f_5250;

/// `(tag, generator)` of the corpus `key` sweeps over.
pub(crate) fn workload_corpus(key: WorkloadKey) -> (u64, fn(u64) -> Vec<f32>) {
    match key.kind {
        WorkloadKind::Scan { .. } | WorkloadKind::SegSum => (SCAN_INPUT_TAG, scan_input),
        _ => (WORKLOAD_INPUT_TAG, workload_input),
    }
}

/// The output of one workload run, in the exact representation the
/// oracle compares: reductions produce a scalar, arg-reductions the
/// packed `(key, complemented index)` pair, histograms one `u32`
/// counter per bin, scans and segmented sums a full output vector of
/// raw 32-bit words.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadValue {
    /// A plain reduction's scalar result.
    Scalar(f32),
    /// An arg-reduction's packed result (monotone key in the high 32
    /// bits, complemented index in the low 32).
    Packed(u64),
    /// A histogram's per-bin counters.
    Bins(Vec<u32>),
    /// A vector-valued result (scan prefixes, per-segment sums): one
    /// raw little-endian 32-bit word per output element — `f32` bit
    /// patterns for `f32` workloads, plain `u32` otherwise. Equality
    /// is bitwise, so oracle comparison is zero-tolerance by
    /// construction.
    Buffer(Vec<u32>),
}

impl WorkloadValue {
    /// The winning index of a packed arg-reduction result. `None` for
    /// the other shapes, and for the empty-input identity (which
    /// unpacks to the `u32::MAX` sentinel: no element won).
    pub fn arg_index(&self) -> Option<u32> {
        match self {
            WorkloadValue::Packed(p) => {
                Some(cpu_ref::unpack_arg_index(*p)).filter(|&i| i != u32::MAX)
            }
            _ => None,
        }
    }

    /// The raw words of a vector-valued result (`None` for the scalar
    /// shapes).
    pub fn buffer(&self) -> Option<&[u32]> {
        match self {
            WorkloadValue::Buffer(w) => Some(w),
            _ => None,
        }
    }

    /// FNV-style fingerprint of a vector-valued result — what the
    /// wire and logs carry instead of megabytes of prefixes. `0` for
    /// scalar shapes.
    pub fn checksum(&self) -> u64 {
        match self {
            WorkloadValue::Buffer(w) => {
                let mut bytes = Vec::with_capacity(w.len() * 4);
                for v in w {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                fx_hash_bytes(&bytes)
            }
            _ => 0,
        }
    }

    /// One-line display for logs.
    pub fn summary(&self) -> String {
        match self {
            WorkloadValue::Scalar(v) => format!("scalar={v}"),
            WorkloadValue::Packed(p) => {
                format!("index={} packed={p:#018x}", cpu_ref::unpack_arg_index(*p))
            }
            WorkloadValue::Bins(b) => {
                format!("bins={} total={}", b.len(), b.iter().map(|&c| u64::from(c)).sum::<u64>())
            }
            WorkloadValue::Buffer(w) => {
                format!("len={} checksum={:#018x}", w.len(), self.checksum())
            }
        }
    }
}

impl Serialize for WorkloadValue {
    fn to_value(&self) -> serde::Value {
        match self {
            WorkloadValue::Scalar(v) => serde::Value::Map(vec![(
                "scalar".to_string(),
                serde::Value::Float(f64::from(*v)),
            )]),
            WorkloadValue::Packed(p) => serde::Value::Map(vec![
                ("packed".to_string(), p.to_value()),
                ("index".to_string(), cpu_ref::unpack_arg_index(*p).to_value()),
            ]),
            WorkloadValue::Bins(b) => {
                serde::Value::Map(vec![("bins".to_string(), b.to_value())])
            }
            // The wire/store form is the length + fingerprint, never
            // the full vector (scan outputs are as large as their
            // inputs).
            WorkloadValue::Buffer(w) => serde::Value::Map(vec![
                ("len".to_string(), (w.len() as u64).to_value()),
                ("checksum".to_string(), self.checksum().to_value()),
            ]),
        }
    }
}

/// The CPU-reference expected value of `key` over `data` — the oracle
/// every sweep winner is validated against. Arg-reductions and
/// histograms are exact (integer results); `sum` folds in `f64` and
/// rounds once at the end, so callers comparing it must use a
/// tolerance (the resilience oracle does), while `max`/`min` are
/// exact folds.
pub fn expected_value(key: WorkloadKey, data: &[f32]) -> WorkloadValue {
    match key.kind {
        WorkloadKind::Reduce(ReduceOp::Sum) => {
            WorkloadValue::Scalar(cpu_ref::parallel_sum(data, 1) as f32)
        }
        // Max/min fold from the operator's identity, exactly like the
        // device's global accumulator (so the empty input answers
        // `f32::MIN` / `f32::MAX`).
        WorkloadKind::Reduce(op @ (ReduceOp::Max | ReduceOp::Min)) => {
            WorkloadValue::Scalar(data.iter().fold(op.identity_f32(), |a, &x| op.fold_f32(a, x)))
        }
        WorkloadKind::ArgMax => WorkloadValue::Packed(cpu_ref::argmax_packed(data)),
        WorkloadKind::ArgMin => WorkloadValue::Packed(cpu_ref::argmin_packed(data)),
        WorkloadKind::Histogram { bins } => {
            WorkloadValue::Bins(cpu_ref::histogram_ref(data, bins))
        }
        WorkloadKind::Scan { exclusive } => WorkloadValue::Buffer(match key.dtype {
            Dtype::F32 => {
                let out = if exclusive {
                    cpu_ref::exclusive_scan_f32(data)
                } else {
                    cpu_ref::inclusive_scan_f32(data)
                };
                out.iter().map(|v| v.to_bits()).collect()
            }
            Dtype::U32 => {
                if exclusive {
                    cpu_ref::exclusive_scan_u32(data)
                } else {
                    cpu_ref::inclusive_scan_u32(data)
                }
            }
        }),
        WorkloadKind::SegSum => {
            let ids = segment_map(data.len() as u64);
            WorkloadValue::Buffer(match key.dtype {
                Dtype::F32 => {
                    cpu_ref::segsum_f32(data, &ids).iter().map(|v| v.to_bits()).collect()
                }
                Dtype::U32 => cpu_ref::segsum_u32(data, &ids),
            })
        }
    }
}

/// Fingerprint of the non-reduce variant corpus (the workload
/// analogue of [`crate::store::corpus_fingerprint`]): the store
/// schema, the tuning axes, and every variant id in canonical order.
/// A persisted workload winner swept against a different variant
/// corpus must not warm-start a sweep over this one.
pub fn workload_corpus_fingerprint() -> u64 {
    let mut desc = format!("schema={STORE_SCHEMA};blocks={BLOCK_SIZES:?};coarsen={COARSEN:?};");
    for v in enumerate_workload_variants() {
        desc.push_str(&v.id());
        desc.push('|');
    }
    // The per-kind menus: a persisted scan/segsum winner swept
    // against a different schedule corpus must not warm-start this
    // one.
    for (label, kind) in [
        ("scan", WorkloadKind::Scan { exclusive: false }),
        ("segsum", WorkloadKind::SegSum),
    ] {
        desc.push_str(label);
        desc.push(':');
        for v in enumerate_variants_for(kind) {
            desc.push_str(&v.id());
            desc.push('|');
        }
    }
    fx_hash_bytes(desc.as_bytes())
}

/// The winning row of a workload sweep — the [`crate::SelectionRow`]
/// analogue, keyed by the typed workload and naming the winning
/// variant by its compact id (`DT-AG`).
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadRow {
    /// The workload that was tuned.
    pub workload: WorkloadKey,
    /// Array size (elements).
    pub n: u64,
    /// Winning variant id (see [`WlVariant::id`]).
    pub variant: String,
    /// Winning block size.
    pub block_size: u32,
    /// Winning coarsening factor.
    pub coarsen: u32,
    /// Modelled time of the winner (ns).
    pub time_ns: f64,
}

/// Everything [`crate::Session::run`] reports for a non-reduce
/// workload sweep.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The winning row.
    pub row: WorkloadRow,
    /// The winner's output over the oracle corpus at
    /// [`WorkloadReport::oracle_n`] elements, exactly equal to the
    /// CPU reference (the sweep fails otherwise).
    pub value: WorkloadValue,
    /// Size the oracle validation ran at (the sweep size capped so
    /// every block executes functionally).
    pub oracle_n: u64,
    /// Per-variant race-sanitizer outcomes (present when the sweep
    /// ran sanitized).
    pub races: Option<Vec<CandidateRaces>>,
    /// Sweep-level counters.
    pub metrics: SweepMetrics,
    /// Chrome-traceable scheduler events of the profiled winner
    /// re-run; `None` when the session does not profile.
    pub trace: Option<Trace>,
}

impl WorkloadReport {
    /// The canonical winner tokens shared by the `sweep` bin and the
    /// tuning daemon: `winner=<variant> block=<b> coarsen=<c>
    /// time_ns=<t>`. Byte-identical between both by construction.
    pub fn winner_line(&self) -> String {
        format!(
            "winner={} block={} coarsen={} time_ns={}",
            self.row.variant, self.row.block_size, self.row.coarsen, self.row.time_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_plants_both_extremes() {
        for n in [8u64, 64, 1000, 65_536] {
            let data = workload_input(n);
            let hi = (n / 3) as usize;
            let lo = (2 * n / 3) as usize;
            assert_eq!(data[hi], 1e30);
            assert_eq!(data[hi + 1], 1e30);
            assert_eq!(data[lo], -1e30);
            assert_eq!(data[lo + 1], -1e30);
            // The tie-break: argmax must report the *first* of the
            // duplicated maxima, argmin the first of the minima.
            let argmax = expected_value(WorkloadKey::argmax(), &data);
            assert_eq!(argmax.arg_index(), Some(hi as u32), "n={n}");
            let argmin = expected_value(WorkloadKey::argmin(), &data);
            assert_eq!(argmin.arg_index(), Some(lo as u32), "n={n}");
        }
        // Tiny corpora have no planted extremes but still an oracle.
        let tiny = workload_input(4);
        assert_eq!(expected_value(WorkloadKey::argmax(), &tiny).arg_index(), Some(3));
    }

    #[test]
    fn histogram_oracle_counts_every_element() {
        let data = workload_input(4096);
        let WorkloadValue::Bins(bins) = expected_value(WorkloadKey::histogram(64), &data) else {
            panic!("histogram oracle must produce bins");
        };
        assert_eq!(bins.len(), 64);
        assert_eq!(bins.iter().map(|&c| u64::from(c)).sum::<u64>(), 4096);
    }

    #[test]
    fn workload_parses_with_and_without_size() {
        let w: Workload = "argmax@65536".parse().unwrap();
        assert_eq!(w, Workload::argmax(65_536));
        let w: Workload = "hist128".parse().unwrap();
        assert_eq!(w.key, WorkloadKey::histogram(128));
        assert!("warp9@12".parse::<Workload>().is_err());
        assert!("argmax@lots".parse::<Workload>().is_err());
    }

    #[test]
    fn fingerprint_is_deterministic() {
        assert_eq!(workload_corpus_fingerprint(), workload_corpus_fingerprint());
    }

    #[test]
    fn segment_map_agrees_with_segments_for() {
        for n in [0u64, 1, 2, 53, 54, 55, 1000, 65_536] {
            let ids = segment_map(n);
            assert_eq!(ids.len() as u64, n);
            assert!(ids.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1), "sorted, gapless");
            let nsegs = ids.last().map_or(0, |&s| u64::from(s) + 1);
            assert_eq!(nsegs, segments_for(n), "n={n}");
        }
    }

    #[test]
    fn scan_corpus_stays_in_the_exact_envelope() {
        let data = scan_input(65_536);
        let mut acc = 0.0f64;
        for &x in &data {
            assert_eq!(x, x.trunc(), "integer-valued");
            acc += f64::from(x);
            assert!(acc.abs() < (1u64 << 24) as f64, "prefix must stay exactly representable");
        }
        // The f32 fold therefore equals the f64 fold, bit for bit.
        assert_eq!(data.iter().sum::<f32>() as f64, acc);
    }

    #[test]
    fn buffer_values_checksum_and_summarize_without_the_payload() {
        let v = WorkloadValue::Buffer(vec![1, 2, 3]);
        assert_ne!(v.checksum(), WorkloadValue::Buffer(vec![1, 2, 4]).checksum());
        let s = v.summary();
        assert!(s.contains("len=3"), "got: {s}");
        assert!(s.contains("checksum="), "got: {s}");
        // The serialized form carries length + checksum, not 3 words.
        let json = serde_json::to_string(&serde::Serialize::to_value(&v)).unwrap();
        assert!(json.contains("\"len\""), "got: {json}");
        assert!(!json.contains('['), "must not serialize the payload: {json}");
    }

    #[test]
    fn scan_oracle_shapes_track_output_shape() {
        let data = scan_input(100);
        for key in [WorkloadKey::scan(Dtype::F32), WorkloadKey::exscan(Dtype::U32)] {
            let WorkloadValue::Buffer(words) = expected_value(key, &data) else {
                panic!("scan oracle must produce a buffer");
            };
            assert_eq!(words.len() as u64, key.kind.output_shape(100).0);
        }
        let WorkloadValue::Buffer(words) =
            expected_value(WorkloadKey::segsum(Dtype::F32), &data)
        else {
            panic!("segsum oracle must produce a buffer");
        };
        assert_eq!(words.len() as u64, segments_for(100));
    }
}
