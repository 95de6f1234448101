//! # tangram — performance-portable GPU reduction via automatic
//! generation of warp-level primitives and atomic instructions
//!
//! This crate is the top of the reproduction of *"Automatic Generation
//! of Warp-Level Primitives and Atomic Instructions for Fast and
//! Portable Parallel Reduction on GPUs"* (CGO 2019). It ties the
//! pieces together:
//!
//! * the codelet language and AST (`tangram-ir`, `tangram-lang`);
//! * the paper's AST passes and the §IV-B planner (`tangram-passes`);
//! * code generation to CUDA text and to the simulator ISA
//!   (`tangram-codegen`);
//! * the SIMT simulator with Kepler/Maxwell/Pascal cost models
//!   (`gpu-sim`);
//! * baselines (`gpu-baselines`, `cpu-ref`).
//!
//! ## Quick start
//!
//! ```
//! use gpu_sim::ArchConfig;
//! use tangram::workload::WorkloadKey;
//! use tangram::Reducer;
//!
//! # fn main() -> Result<(), tangram::TangramError> {
//! let mut reducer = Reducer::new(ArchConfig::pascal_p100());
//! let data: Vec<f32> = (1..=4096).map(|i| (i % 7) as f32).collect();
//! let result = reducer.run(WorkloadKey::sum(), &data)?;
//! println!("sum = {:?} via {}", result.value, result.version);
//! let top = reducer.run(WorkloadKey::argmax(), &data)?;
//! println!("argmax index = {:?}", top.value.arg_index());
//! # Ok(())
//! # }
//! ```
//!
//! ## Layers
//!
//! | module | role |
//! |--------|------|
//! | [`api`] | user-facing [`Reducer`] and [`Session::run`], the one sweep engine for every workload key |
//! | [`workload`] | first-class workloads: argmin/argmax, histograms, scans, oracles |
//! | [`pipeline`] | the Fig. 5 pre-processing pipeline, inspectable |
//! | [`tuner`] | `__tunable` parameter sweeps (§IV-C) |
//! | [`evaluate`] | the engine's parallel exhaustive / halving rungs |
//! | [`resilience`] | the engine's retry, quarantine, and fault-campaign rung |
//! | [`metrics`] | sweep-level observability ([`ProfileReport`]) |
//! | [`store`] | crash-safe persistent tuning cache ([`TuningStore`]) |
//! | [`serve`] | autotuning daemon: dedup, warm-start, QoS gate ([`serve::TuneService`]) |
//! | [`select`] | the reduction winner row and the paper's size axis |
//! | [`dynsel`] | DySel-style runtime selection (micro-profiling) |
//! | [`runner`] | executing synthesized versions on the device |

#![warn(missing_docs)]

pub mod api;
pub mod dynsel;
pub mod evaluate;
mod menu;
pub mod metrics;
pub mod pipeline;
pub mod resilience;
pub mod runner;
pub mod select;
pub mod serve;
pub mod store;
pub mod tuner;
pub mod workload;

pub use api::{
    CandidateRaces, Reducer, RunReport, Session, SweepReport, TangramError, WorkloadResult,
};
pub use evaluate::{ContextPool, EvalOptions, RungStats};
pub use metrics::{
    CacheMetrics, KernelSpotlight, ProfileReport, SanitizeSummary, StoreSummary, SweepMetrics,
    WinnerRow,
};
pub use resilience::{
    evaluate_all_report, FaultConfig, QuarantineReason, ResilienceOptions, ResilienceReport,
    ValidationPolicy,
};
pub use tangram_passes::specialize::ReduceOp;
pub use pipeline::{run_pipeline, PipelineReport};
pub use runner::{run_reduction, run_segsum, run_workload, upload};
pub use select::{paper_sizes, SelectionRow};
pub use serve::{
    install_signal_handlers, Answer, Busy, Client, Query, Reply, Served, ServeConfig,
    ServeMetrics, Server, TuneService, WireAnswer, WireReply,
};
pub use store::{CacheMode, Lookup, SaveReceipt, StoreError, StoreKey, StoreRecord, TuningStore};
pub use tuner::{measure, tune, TunedVersion};
pub use workload::{
    expected_value, scan_input, segment_map, workload_corpus_fingerprint, workload_input,
    workload_input_for, Workload, WorkloadReport, WorkloadRow, WorkloadValue,
};
pub use tangram_passes::workload::{
    enumerate_variants_for, segments_for, Dtype, WlVariant, WorkloadKey, WorkloadKind,
};

/// One-stop imports for library clients: the device and architecture
/// types, the engine knobs, the [`Session`] entry point, and every
/// report type it returns.
///
/// ```
/// use tangram::prelude::*;
///
/// # fn main() -> Result<(), SimError> {
/// let report = Session::new(ArchConfig::kepler_k40c())
///     .eval(EvalOptions::serial())
///     .select_best(4096)?;
/// assert!(report.row.time_ns > 0.0);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use crate::api::{
        CandidateRaces, Reducer, RunReport, Session, SweepReport, TangramError, WorkloadResult,
    };
    pub use crate::evaluate::{ContextPool, EvalOptions, RungStats, SweepMode};
    pub use crate::metrics::{
        CacheMetrics, KernelSpotlight, ProfileReport, SanitizeSummary, StoreSummary, SweepMetrics,
        WinnerRow,
    };
    pub use crate::resilience::{
        FaultConfig, QuarantineReason, ResilienceOptions, ResilienceReport, ValidationPolicy,
    };
    pub use crate::select::SelectionRow;
    pub use crate::serve::{
        Answer, Busy, Client, Query, Reply, Served, ServeConfig, ServeMetrics, Server,
        TuneService, WireAnswer, WireReply,
    };
    pub use crate::store::{
        CacheMode, Lookup, SaveReceipt, StoreError, StoreKey, StoreRecord, TuningStore,
    };
    pub use crate::tuner::{BenchContext, TunedVersion};
    pub use crate::workload::{Workload, WorkloadReport, WorkloadRow, WorkloadValue};
    pub use tangram_passes::workload::{Dtype, WlVariant, WorkloadKey, WorkloadKind};
    pub use gpu_sim::profile::{LaunchProfile, SiteCounters, Trace};
    pub use gpu_sim::{ArchConfig, Device, ExecMode, SimError};
    pub use tangram_passes::specialize::ReduceOp;
}

// Re-export the component crates for downstream users and examples.
pub use cpu_ref;
pub use gpu_baselines;
pub use gpu_sim;
pub use tangram_codegen;
pub use tangram_ir;
pub use tangram_lang;
pub use tangram_passes;
