//! Best-version selection across the pruned search space — what the
//! paper's evaluation does per architecture and array size (§IV-C
//! reports, for each size, the Fig. 6 version with the highest
//! performance). The sweep itself is [`crate::Session::run`]; this
//! module holds its reduction row and the paper's size axis.

use serde::{Deserialize, Serialize};
use tangram_passes::planner::{self, CodeVersion};

/// One row of a selection sweep: the winning version for a size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectionRow {
    /// Array size (elements).
    pub n: u64,
    /// Winning version.
    pub version: CodeVersion,
    /// Fig. 6 label of the winner, when it is one of the 16.
    pub fig6_label: Option<char>,
    /// Winning block size.
    pub block_size: u32,
    /// Winning coarsening factor.
    pub coarsen: u32,
    /// Modelled time (ns).
    pub time_ns: f64,
}

/// The Fig. 6 letter of a version, when it is one of the 16.
pub fn fig6_label_of(version: CodeVersion) -> Option<char> {
    planner::fig6_versions().into_iter().find(|(_, v)| *v == version).map(|(l, _)| l)
}

/// The array sizes of the paper's figures (64 … 256M, ×4 steps).
pub fn paper_sizes() -> Vec<u64> {
    (0..12).map(|i| 64u64 << (2 * i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use gpu_sim::ArchConfig;

    #[test]
    fn paper_sizes_match_figure_axis() {
        let s = paper_sizes();
        assert_eq!(s.first(), Some(&64));
        assert_eq!(s.last(), Some(&268_435_456));
        assert_eq!(s.len(), 12);
        assert!(s.contains(&1_048_576));
    }

    #[test]
    fn fig6_label_lookup() {
        let (l, v) = planner::fig6_versions()[0];
        assert_eq!(fig6_label_of(v), Some(l));
        // A two-kernel version has no Fig. 6 label.
        let orig = planner::enumerate_original()[0];
        assert_eq!(fig6_label_of(orig), None);
    }

    #[test]
    fn selection_returns_a_pruned_winner() {
        let row = Session::new(ArchConfig::maxwell_gtx980()).select_best(16_384).unwrap().row;
        assert!(planner::enumerate_pruned().contains(&row.version));
        assert!(row.time_ns > 0.0);
    }
}
