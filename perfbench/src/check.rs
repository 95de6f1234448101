//! Correctness gates: golden winner tails, bitwise oracle values, and
//! stable digests for cross-pass and cross-process identity.

use std::collections::HashMap;

use tangram::{expected_value, workload_input_for, WorkloadKey, WorkloadReport, WorkloadValue};

/// The repository's golden winner snapshots at n = 16384, read at
/// build time; the benchmark never writes them.
const GOLDEN: [&str; 2] = [
    include_str!("../../crates/bench/tests/golden/sweep_winners.txt"),
    include_str!("../../crates/bench/tests/golden/workload_winners.txt"),
];

/// Golden winner tails (`winner=… block=… coarsen=… time_ns=…`) keyed
/// by `arch/workload-id@n`.
pub fn golden_tails() -> HashMap<String, String> {
    let mut out = HashMap::new();
    for line in GOLDEN.iter().flat_map(|text| text.lines()) {
        let field = |name: &str| {
            line.split_whitespace()
                .find_map(|t| t.strip_prefix(name).map(str::to_string))
        };
        let (Some(arch), Some(n), Some(at)) = (field("arch="), field("n="), line.find(" winner="))
        else {
            continue;
        };
        let workload = field("workload=").unwrap_or_else(|| WorkloadKey::sum().id());
        out.insert(format!("{arch}/{workload}@{n}"), line[at + 1..].to_string());
    }
    out
}

/// Memoized cpu-ref expected values per `(key, oracle_n)`.
#[derive(Default)]
pub struct Oracle {
    memo: HashMap<(String, u64), WorkloadValue>,
}

impl Oracle {
    /// The expected value of `key` over its oracle corpus at `n`.
    pub fn expected(&mut self, key: WorkloadKey, n: u64) -> &WorkloadValue {
        self.memo
            .entry((key.id(), n))
            .or_insert_with(|| expected_value(key, &workload_input_for(key, n)))
    }

    /// Whether `report.value` equals the cpu-ref value bit for bit at
    /// `report.oracle_n`.
    pub fn matches(&mut self, report: &WorkloadReport) -> bool {
        let want = self.expected(report.row.workload, report.oracle_n);
        same_bits(&report.value, want)
    }
}

/// Bitwise equality of two workload values (`f32` scalars compare by
/// bit pattern, so `-0.0 != 0.0` and a NaN equals only itself).
pub fn same_bits(a: &WorkloadValue, b: &WorkloadValue) -> bool {
    match (a, b) {
        (WorkloadValue::Scalar(x), WorkloadValue::Scalar(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// FNV-1a over `parts`, separated, for digests that must match across
/// passes and processes.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &b in p.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_covers_every_snapshot_line() {
        let g = golden_tails();
        assert_eq!(g.len(), 27);
        let sum = &g["maxwell/sum-f32@16384"];
        assert!(sum.starts_with("winner=DT,A / DS+S+V block=32"), "{sum}");
        assert!(g["pascal/segsum-f32@16384"].ends_with("time_ns=3418.7468123861568"));
    }

    #[test]
    fn scalar_bits_distinguish_signed_zero() {
        assert!(!same_bits(
            &WorkloadValue::Scalar(0.0),
            &WorkloadValue::Scalar(-0.0)
        ));
        assert!(same_bits(
            &WorkloadValue::Scalar(f32::NAN),
            &WorkloadValue::Scalar(f32::NAN)
        ));
        assert!(same_bits(
            &WorkloadValue::Bins(vec![1, 2]),
            &WorkloadValue::Bins(vec![1, 2])
        ));
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_eq!(digest(["a", "b"]), digest(["a", "b"]));
        assert_ne!(digest(["a", "b"]), digest(["b", "a"]));
        assert_ne!(digest(["ab"]), digest(["a", "b"]));
    }
}
