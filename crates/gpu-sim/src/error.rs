//! Simulator error types: validation failures, runtime traps and the
//! deadlock/timeout guards.
//!
//! The interpreter never panics on guest kernel input: every malformed
//! instruction mix that slips past static validation surfaces as a
//! [`SimError::Trap`] carrying the faulting kernel/pc/warp/lane, and a
//! barrier that can never be released reports
//! [`SimError::BarrierDeadlock`] instead of silently releasing or
//! spinning until the instruction budget runs out.

use std::fmt;

/// What a runtime trap was about — the taxonomy of guest-input faults
/// the interpreter detects instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrapKind {
    /// An instruction encoding the interpreter cannot execute (e.g. a
    /// `plop` with a non-logical operation).
    IllegalInstruction {
        /// Human-readable description of the encoding problem.
        detail: String,
    },
    /// An operand/type combination with no defined semantics (e.g. a
    /// bitwise operation on a floating-point type).
    IllegalOperandType {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// An `atom.cas` without a compare operand.
    CasWithoutCmp,
    /// A memory access that is not naturally aligned for its width.
    Misaligned {
        /// Memory space name (`"global"` / `"shared"`).
        space: &'static str,
        /// Faulting byte address.
        addr: u64,
        /// Required alignment in bytes.
        required: u64,
    },
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::IllegalInstruction { detail } => {
                write!(f, "illegal instruction: {detail}")
            }
            TrapKind::IllegalOperandType { detail } => {
                write!(f, "illegal operand type: {detail}")
            }
            TrapKind::CasWithoutCmp => f.write_str("atom.cas without a compare operand"),
            TrapKind::Misaligned { space, addr, required } => write!(
                f,
                "misaligned {space} access at {addr:#x} (requires {required}-byte alignment)"
            ),
        }
    }
}

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A kernel failed structural validation.
    InvalidKernel {
        /// Kernel name.
        kernel: String,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// An out-of-bounds or misaligned memory access at runtime.
    MemoryFault {
        /// Memory space name (`"global"` / `"shared"`).
        space: &'static str,
        /// Faulting byte address.
        addr: u64,
        /// Access size in bytes.
        size: u64,
        /// Capacity of the addressed space.
        capacity: u64,
    },
    /// A launch was configured inconsistently (wrong parameter count,
    /// zero-sized grid, shared memory over the per-block limit, …).
    InvalidLaunch(String),
    /// The interpreter exceeded its dynamic instruction budget — a
    /// runaway loop guard, not a modelled limit.
    Timeout {
        /// Kernel name.
        kernel: String,
        /// The budget that was exhausted.
        budget: u64,
    },
    /// A runtime trap: the interpreter hit guest input it cannot
    /// execute and stopped at a precise location instead of panicking.
    Trap {
        /// Kernel name.
        kernel: String,
        /// Program counter of the faulting instruction.
        pc: usize,
        /// Warp id within the block.
        warp: u32,
        /// Lane id within the warp.
        lane: u32,
        /// What went wrong.
        kind: TrapKind,
    },
    /// Barrier-divergence deadlock: at the end of a scheduling round
    /// some warps of a block wait at a barrier that the remaining,
    /// already-retired warps can never arrive at.
    BarrierDeadlock {
        /// Kernel name.
        kernel: String,
        /// Program counter of the barrier the stuck warps wait at.
        barrier_pc: usize,
        /// Ids of the warps parked at the barrier.
        waiting_warps: Vec<u32>,
    },
    /// Not a fault: a launch run under a
    /// [`Ceiling`](crate::timing::Ceiling) was abandoned because a
    /// proven lower bound on its measurement's time exceeded the
    /// ceiling. Memory holds whatever the executed blocks wrote.
    CeilingExceeded {
        /// Kernel name.
        kernel: String,
        /// Blocks executed before the launch was abandoned.
        blocks_run: u32,
    },
    /// An assembler diagnostic.
    Asm {
        /// 1-based source line of the error.
        line: usize,
        /// Description.
        reason: String,
    },
}

impl SimError {
    pub(crate) fn invalid_kernel(kernel: &str, reason: impl Into<String>) -> Self {
        SimError::InvalidKernel { kernel: kernel.to_string(), reason: reason.into() }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidKernel { kernel, reason } => {
                write!(f, "invalid kernel `{kernel}`: {reason}")
            }
            SimError::MemoryFault { space, addr, size, capacity } => write!(
                f,
                "{space} memory fault: {size}-byte access at {addr:#x} (capacity {capacity:#x})"
            ),
            SimError::InvalidLaunch(msg) => write!(f, "invalid launch: {msg}"),
            SimError::Timeout { kernel, budget } => {
                write!(f, "kernel `{kernel}` exceeded the {budget}-instruction budget")
            }
            SimError::Trap { kernel, pc, warp, lane, kind } => {
                write!(f, "trap in kernel `{kernel}` at pc {pc} (warp {warp}, lane {lane}): {kind}")
            }
            SimError::BarrierDeadlock { kernel, barrier_pc, waiting_warps } => write!(
                f,
                "barrier deadlock in kernel `{kernel}`: {} warp(s) {waiting_warps:?} wait at the \
                 barrier at pc {barrier_pc} but the other warps of the block have retired",
                waiting_warps.len()
            ),
            SimError::CeilingExceeded { kernel, blocks_run } => write!(
                f,
                "launch of `{kernel}` abandoned after {blocks_run} block(s): its time provably \
                 exceeds the ceiling"
            ),
            SimError::Asm { line, reason } => write!(f, "asm error at line {line}: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let e = SimError::MemoryFault { space: "global", addr: 64, size: 4, capacity: 32 };
        assert!(e.to_string().contains("global memory fault"));
        let e = SimError::invalid_kernel("k", "broken");
        assert!(e.to_string().contains("`k`"));
    }
}
