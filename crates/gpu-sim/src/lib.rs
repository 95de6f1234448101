//! # gpu-sim — a functional + timing SIMT GPU simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Automatic Generation of Warp-Level Primitives and Atomic
//! Instructions for Fast and Portable Parallel Reduction on GPUs"*
//! (CGO 2019). The paper evaluates generated CUDA kernels on three
//! NVIDIA GPU generations; with no GPU available, this simulator
//! executes an equivalent virtual ISA ([`isa`]) warp-synchronously and
//! converts gathered statistics into modelled time under per-
//! generation cost models ([`arch`], [`timing`]).
//!
//! The simulator models exactly the microarchitectural mechanisms the
//! paper's results depend on:
//!
//! * warp-synchronous SIMT execution with IPDOM reconvergence
//!   ([`mod@cfg`], [`exec`]) and divergence accounting;
//! * warp shuffle exchanges, including sub-warp widths;
//! * global/shared atomics with scopes, contention chains, and the
//!   Kepler software-lock vs Maxwell/Pascal native shared-atomic
//!   implementations;
//! * memory coalescing (128-byte transactions), shared-memory bank
//!   conflicts, and vectorized-load bandwidth efficiency;
//! * occupancy (threads/blocks/shared-memory/register limits) and
//!   latency hiding;
//! * kernel-launch overhead.
//!
//! ## Quick start
//!
//! ```
//! use gpu_sim::{ArchConfig, Device, LaunchDims};
//! use gpu_sim::kernel::KernelBuilder;
//! use gpu_sim::isa::{Address, AtomOp, Operand, Scope, Space, Ty};
//!
//! // A kernel in which every thread atomically adds 1.0 to out[0].
//! let mut b = KernelBuilder::new("count");
//! let out = b.param_ptr();
//! let one = b.reg();
//! b.mov(Ty::F32, one, Operand::ImmF(1.0));
//! b.red(Space::Global, Scope::Gpu, AtomOp::Add, Ty::F32,
//!       Address::new(Operand::Param(out), 0), Operand::Reg(one));
//! b.exit();
//! let kernel = b.finish().unwrap();
//!
//! let mut dev = Device::new(ArchConfig::maxwell_gtx980());
//! let buf = dev.alloc_f32(1).unwrap();
//! dev.launch_simple(&kernel, LaunchDims::new(4, 128), &[buf.arg()]).unwrap();
//! let total = f32::from_bits(dev.read_scalar(Ty::F32, buf).unwrap() as u32);
//! assert_eq!(total, 512.0);
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod asm;
pub mod cfg;
pub mod device;
pub mod error;
pub mod exec;
pub mod fault;
pub mod hash;
pub mod isa;
pub mod jit;
pub mod kernel;
pub mod memory;
pub mod profile;
pub mod sanitize;
pub mod stats;
pub mod timing;
pub mod uop;

pub use arch::{ArchConfig, SharedAtomicImpl};
pub use device::{Device, DevicePtr, LaunchReport};
pub use error::{SimError, TrapKind};
pub use exec::{Arg, BlockSelection, ExecConfig, ExecConfigBuilder, ExecMode, LaunchDims};
pub use fault::{FaultKind, FaultPlan, FaultSession, InjectedFault};
pub use kernel::{Kernel, KernelBuilder, ParamKind};
pub use profile::{LaunchProfile, SiteCounters, Trace, TraceEvent};
pub use sanitize::{
    negative_corpus, run_negative, AccessSite, HazardKind, LaunchSanitizer, NegativeKernel,
    RaceFinding, RaceReport,
};
pub use stats::LaunchStats;
pub use timing::{launch_lower_bound, Ceiling, LaunchTiming, Limiter, TimingOptions};
