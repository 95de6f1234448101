//! The functional SIMT interpreter.
//!
//! Warps execute in lock-step over the flat instruction stream with a
//! divergence stack that reconverges at immediate postdominators (see
//! [`crate::cfg`]). Blocks are executed one at a time (functional
//! behaviour does not depend on inter-block interleaving because the
//! only inter-block communication in the modelled workloads is via
//! atomics, which are linearizable under any serialization).
//!
//! While executing, the interpreter gathers the [`LaunchStats`] the
//! timing model needs: per-class instruction counts, coalescing
//! transactions, bank conflicts, atomic contention chains and
//! divergence counters.

use crate::arch::ArchConfig;
use crate::cfg::Cfg;
use crate::error::{SimError, TrapKind};
use crate::fault::{FaultKind, FaultSession, PendingFault};
use crate::hash::FxHashMap;
use crate::isa::{
    Address, AtomOp, BinOp, CmpOp, Instr, Operand, ShflMode, Space, Sreg, Ty, UnOp,
};
use crate::kernel::{Kernel, ParamKind};
use crate::memory::{bank_conflict_degree, coalesced_transactions, LinearMemory};
use crate::profile::LaunchProfile;
use crate::sanitize::{AccessKind, LaunchSanitizer};
use crate::stats::LaunchStats;
use crate::timing::{launch_lower_bound, Ceiling};

/// Maximum lanes per warp the interpreter's stack-allocated per-issue
/// buffers accommodate (active masks are `u32`, so this is a hard
/// architectural bound, not a tunable).
pub(crate) const MAX_LANES: usize = 32;

/// Default per-block dynamic instruction budget (runaway-loop guard).
pub const DEFAULT_BUDGET: u64 = 1 << 33;

/// A launch configuration (1-D grid and block, as in the paper's
/// kernels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchDims {
    /// Number of thread blocks.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Dynamic shared memory bytes (Listing 3's `extern __shared__`).
    pub dynamic_smem: u64,
}

impl LaunchDims {
    /// A launch of `grid` blocks of `block` threads with no dynamic
    /// shared memory.
    pub fn new(grid: u32, block: u32) -> Self {
        LaunchDims { grid, block, dynamic_smem: 0 }
    }

    /// Set the dynamic shared memory size.
    pub fn with_dynamic_smem(mut self, bytes: u64) -> Self {
        self.dynamic_smem = bytes;
        self
    }
}

/// A kernel argument value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// Device pointer (byte address in global memory).
    Ptr(u64),
    /// 32-bit signed integer.
    I32(i32),
    /// 32-bit unsigned integer.
    U32(u32),
    /// 64-bit unsigned integer.
    U64(u64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
}

impl Arg {
    /// Raw 64-bit register image of the argument.
    pub fn raw(self) -> u64 {
        match self {
            Arg::Ptr(p) => p,
            Arg::I32(v) => v as u32 as u64,
            Arg::U32(v) => u64::from(v),
            Arg::U64(v) => v,
            Arg::F32(v) => u64::from(v.to_bits()),
            Arg::F64(v) => v.to_bits(),
        }
    }

    fn matches(self, kind: ParamKind) -> bool {
        matches!(
            (self, kind),
            (Arg::Ptr(_), ParamKind::Ptr)
                | (Arg::I32(_), ParamKind::Scalar(Ty::I32))
                | (Arg::U32(_), ParamKind::Scalar(Ty::U32))
                | (Arg::U64(_), ParamKind::Scalar(Ty::U64 | Ty::I64))
                | (Arg::F32(_), ParamKind::Scalar(Ty::F32))
                | (Arg::F64(_), ParamKind::Scalar(Ty::F64))
        )
    }
}

/// Which blocks of a launch to execute functionally.
///
/// `All` gives exact results. `Sample` executes only representative
/// blocks and scales the statistics to the full grid — used by the
/// figure harness for the paper's largest arrays (up to 256M
/// elements), where full functional simulation would be prohibitive.
/// Homogeneous reduction grids make this accurate: every block except
/// the boundary block executes identical work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSelection {
    /// Execute every block (exact memory state and stats).
    All,
    /// Execute ~`max_blocks` representative blocks (always including
    /// the first and last) and scale stats to the full grid.
    Sample {
        /// Upper bound on functionally-executed blocks.
        max_blocks: u32,
    },
}

/// Outcome of a kernel execution.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Gathered (possibly scaled) statistics.
    pub stats: LaunchStats,
    /// Whether every block was executed (memory state is exact).
    pub exact: bool,
}

pub(crate) const RECONV_NONE: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) struct StackEntry {
    pub(crate) reconv: usize,
    pub(crate) pc: usize,
    pub(crate) mask: u32,
}

struct WarpExec {
    warp_id: u32,
    stack: Vec<StackEntry>,
    exited: u32,
}

pub(crate) enum WarpStop {
    Barrier,
    Done,
}

/// Per-block execution context.
///
/// Register/predicate files, shared memory and the per-address chain
/// tracker are *borrowed* from buffers owned by [`run_kernel`] and
/// reused (cleared, not reallocated) across every block of the launch.
pub(crate) struct BlockCtx<'a> {
    pub(crate) kernel: &'a Kernel,
    pub(crate) cfg: &'a Cfg,
    pub(crate) arch: &'a ArchConfig,
    pub(crate) params: &'a [u64],
    pub(crate) block_id: u32,
    pub(crate) block_dim: u32,
    pub(crate) grid_dim: u32,
    pub(crate) regs: &'a mut [u64],
    pub(crate) preds: &'a mut [bool],
    pub(crate) smem: &'a mut LinearMemory,
    pub(crate) stats: LaunchStats,
    pub(crate) budget: u64,
    /// The configured per-block budget, for accurate Timeout reports.
    pub(crate) budget_total: u64,
    /// Per-address shared atomic chains within this block.
    pub(crate) shared_chains: &'a mut FxHashMap<u64, u64>,
    /// Per-site profile shared across the launch's blocks; `None`
    /// keeps the hot paths free of profiling stores.
    pub(crate) profile: Option<&'a mut LaunchProfile>,
    /// Race-detection shadow state shared across the launch's blocks;
    /// `None` keeps the hot paths free of sanitizer stores.
    pub(crate) sanitize: Option<&'a mut LaunchSanitizer>,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn reg(&self, thread: u32, r: u16) -> u64 {
        self.regs[thread as usize * self.kernel.num_regs as usize + r as usize]
    }

    pub(crate) fn set_reg(&mut self, thread: u32, r: u16, v: u64) {
        self.regs[thread as usize * self.kernel.num_regs as usize + r as usize] = v;
    }

    pub(crate) fn pred(&self, thread: u32, p: u16) -> bool {
        self.preds[thread as usize * self.kernel.num_preds.max(1) as usize + p as usize]
    }

    pub(crate) fn set_pred(&mut self, thread: u32, p: u16, v: bool) {
        self.preds[thread as usize * self.kernel.num_preds.max(1) as usize + p as usize] = v;
    }

    fn sreg(&self, thread: u32, s: Sreg) -> u64 {
        let ws = u64::from(self.arch.warp_size);
        match s {
            Sreg::TidX => u64::from(thread),
            Sreg::CtaIdX => u64::from(self.block_id),
            Sreg::NtidX => u64::from(self.block_dim),
            Sreg::NctaIdX => u64::from(self.grid_dim),
            Sreg::LaneId => u64::from(thread) % ws,
            Sreg::WarpId => u64::from(thread) / ws,
            Sreg::WarpSize => ws,
        }
    }

    fn operand(&self, thread: u32, op: Operand, ty: Ty) -> u64 {
        match op {
            Operand::Reg(r) => self.reg(thread, r),
            Operand::ImmI(v) => match ty {
                Ty::F32 => u64::from((v as f32).to_bits()),
                Ty::F64 => (v as f64).to_bits(),
                Ty::I32 | Ty::U32 => v as i32 as u32 as u64,
                _ => v as u64,
            },
            Operand::ImmF(v) => match ty {
                Ty::F32 => u64::from((v as f32).to_bits()),
                _ => v.to_bits(),
            },
            Operand::Sreg(s) => self.sreg(thread, s),
            Operand::Param(p) => self.params[p as usize],
        }
    }

    fn addr(&self, thread: u32, a: &Address) -> u64 {
        let base = self.operand(thread, a.base, Ty::U64);
        base.wrapping_add(a.offset as u64)
    }
}

// The float/int raw-image converters are total: callers guard on
// `ty.is_float()`, and for the off-type arms a defined identity-style
// fallback replaces what used to be an `unreachable!` — guest input
// must never be able to panic the interpreter.
pub(crate) fn to_f(ty: Ty, raw: u64) -> f64 {
    match ty {
        Ty::F32 => f64::from(f32::from_bits(raw as u32)),
        Ty::F64 => f64::from_bits(raw),
        _ => raw as f64,
    }
}

pub(crate) fn from_f(ty: Ty, v: f64) -> u64 {
    match ty {
        Ty::F32 => u64::from((v as f32).to_bits()),
        Ty::F64 => v.to_bits(),
        _ => v as u64,
    }
}

fn to_i(ty: Ty, raw: u64) -> i64 {
    match ty {
        Ty::I32 => raw as u32 as i32 as i64,
        Ty::U32 => i64::from(raw as u32),
        // F32/F64 land here only via the totality fallback; all
        // remaining types use the 64-bit image directly (comparisons
        // handle signedness).
        _ => raw as i64,
    }
}

pub(crate) fn truncate(ty: Ty, v: u64) -> u64 {
    match ty.size() {
        4 => v & 0xFFFF_FFFF,
        _ => v,
    }
}

/// Evaluate a binary op on raw register images interpreted as `ty`.
///
/// # Errors
///
/// [`TrapKind::IllegalOperandType`] for bitwise/shift ops on float
/// types (no defined semantics).
pub(crate) fn eval_bin(op: BinOp, ty: Ty, a: u64, b: u64) -> Result<u64, TrapKind> {
    if ty.is_float() {
        let (x, y) = (to_f(ty, a), to_f(ty, b));
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Rem => x % y,
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            _ => {
                return Err(TrapKind::IllegalOperandType {
                    detail: format!("bitwise op {op:?} on float type {ty:?}"),
                })
            }
        };
        Ok(from_f(ty, r))
    } else if ty.is_signed() {
        let (x, y) = (to_i(ty, a), to_i(ty, b));
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 { 0 } else { x.wrapping_div(y) }
            }
            BinOp::Rem => {
                if y == 0 { 0 } else { x.wrapping_rem(y) }
            }
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Shr => x.wrapping_shr(y as u32 & 63),
        };
        Ok(truncate(ty, r as u64))
    } else {
        let (x, y) = (truncate(ty, a), truncate(ty, b));
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => x.checked_div(y).unwrap_or(0),
            BinOp::Rem => x.checked_rem(y).unwrap_or(0),
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Shr => x.wrapping_shr(y as u32 & 63),
        };
        Ok(truncate(ty, r))
    }
}

pub(crate) fn eval_cmp(op: CmpOp, ty: Ty, a: u64, b: u64) -> bool {
    use std::cmp::Ordering;
    let ord = if ty.is_float() {
        to_f(ty, a).partial_cmp(&to_f(ty, b))
    } else if ty.is_signed() {
        Some(to_i(ty, a).cmp(&to_i(ty, b)))
    } else {
        Some(truncate(ty, a).cmp(&truncate(ty, b)))
    };
    match (op, ord) {
        (_, None) => matches!(op, CmpOp::Ne), // NaN: only != holds
        (CmpOp::Eq, Some(o)) => o == Ordering::Equal,
        (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
        (CmpOp::Lt, Some(o)) => o == Ordering::Less,
        (CmpOp::Le, Some(o)) => o != Ordering::Greater,
        (CmpOp::Gt, Some(o)) => o == Ordering::Greater,
        (CmpOp::Ge, Some(o)) => o != Ordering::Less,
    }
}

pub(crate) fn eval_cvt(from: Ty, to: Ty, raw: u64) -> u64 {
    match (from.is_float(), to.is_float()) {
        (false, false) => {
            let v = if from.is_signed() { to_i(from, raw) as u64 } else { truncate(from, raw) };
            truncate(to, v)
        }
        (false, true) => {
            let v = if from.is_signed() {
                to_i(from, raw) as f64
            } else {
                truncate(from, raw) as f64
            };
            from_f(to, v)
        }
        (true, false) => {
            let v = to_f(from, raw);
            if to.is_signed() {
                truncate(to, v as i64 as u64)
            } else {
                truncate(to, v as u64)
            }
        }
        (true, true) => from_f(to, to_f(from, raw)),
    }
}

pub(crate) fn eval_atom(
    op: AtomOp,
    ty: Ty,
    old: u64,
    src: u64,
    cmp: Option<u64>,
) -> Result<u64, TrapKind> {
    match op {
        AtomOp::Add => eval_bin(BinOp::Add, ty, old, src),
        AtomOp::Sub => eval_bin(BinOp::Sub, ty, old, src),
        AtomOp::Min => eval_bin(BinOp::Min, ty, old, src),
        AtomOp::Max => eval_bin(BinOp::Max, ty, old, src),
        AtomOp::And => eval_bin(BinOp::And, ty, old, src),
        AtomOp::Or => eval_bin(BinOp::Or, ty, old, src),
        AtomOp::Xor => eval_bin(BinOp::Xor, ty, old, src),
        AtomOp::Exch => Ok(truncate(ty, src)),
        AtomOp::Cas => {
            let Some(cmp) = cmp else {
                return Err(TrapKind::CasWithoutCmp);
            };
            if truncate(ty, old) == truncate(ty, cmp) {
                Ok(truncate(ty, src))
            } else {
                Ok(truncate(ty, old))
            }
        }
    }
}

/// Which interpreter hot path executes the kernel.
///
/// All tiers are bit-identical in results, statistics and modelled
/// time (enforced by differential tests); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The predecoded µop path with warp-uniform scalarization
    /// (see [`crate::uop`]). The default.
    #[default]
    Predecoded,
    /// The original lane-wise instruction interpreter, kept as the
    /// differential-testing reference.
    Reference,
    /// The closure-threaded compiled tier (see [`crate::jit`]):
    /// the µop stream is lowered once per kernel into superinstruction
    /// closures. Launches carrying a profile, sanitizer or live fault
    /// session transparently fall back to the µop engine.
    Compiled,
}

impl ExecMode {
    /// Canonical identifier, the inverse of the [`std::str::FromStr`] parse
    /// (`uop` / `reference` / `compiled`).
    pub fn id(self) -> &'static str {
        match self {
            ExecMode::Predecoded => "uop",
            ExecMode::Reference => "reference",
            ExecMode::Compiled => "compiled",
        }
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uop" | "predecoded" => Ok(ExecMode::Predecoded),
            "reference" | "lanewise" => Ok(ExecMode::Reference),
            "compiled" | "jit" => Ok(ExecMode::Compiled),
            other => Err(format!(
                "unknown interpreter `{other}` (accepted: uop|predecoded, \
                 reference|lanewise, compiled|jit)"
            )),
        }
    }
}

/// Per-launch execution configuration beyond the launch dims: the
/// instruction budget, an optional fault-injection session, the
/// interpreter path and an optional per-site profile.
///
/// Prefer [`ExecConfig::builder`] over filling the struct literal:
///
/// ```
/// use gpu_sim::exec::{ExecConfig, ExecMode};
///
/// let cfg = ExecConfig::builder()
///     .exec_mode(ExecMode::Reference)
///     .instr_budget(1 << 20)
///     .build();
/// assert_eq!(cfg.budget, Some(1 << 20));
/// ```
#[derive(Debug, Default)]
pub struct ExecConfig<'a> {
    /// Per-block dynamic instruction budget; `None` uses
    /// [`DEFAULT_BUDGET`].
    pub budget: Option<u64>,
    /// Fault-injection session shared across every block of the
    /// launch; `None` runs fault-free.
    pub faults: Option<&'a mut FaultSession>,
    /// Interpreter hot path ([`ExecMode::Predecoded`] by default).
    pub mode: ExecMode,
    /// Per-site profile to fill in (see [`crate::profile`]); `None`
    /// disables profiling (the zero-cost default).
    pub profile: Option<&'a mut LaunchProfile>,
    /// Race detector to feed (see [`crate::sanitize`]); `None`
    /// disables race checking (the zero-cost default).
    pub sanitize: Option<&'a mut LaunchSanitizer>,
    /// Abandon the launch with [`SimError::CeilingExceeded`] once a
    /// lower bound on its time breaks this ceiling. Ignored when a
    /// profile, sanitizer or live fault session is attached: those
    /// must observe every block.
    pub ceiling: Option<Ceiling>,
}

impl<'a> ExecConfig<'a> {
    /// Start building an execution configuration.
    pub fn builder() -> ExecConfigBuilder<'a> {
        ExecConfigBuilder { cfg: ExecConfig::default() }
    }
}

/// Builder for [`ExecConfig`] (see [`ExecConfig::builder`]).
#[derive(Debug, Default)]
pub struct ExecConfigBuilder<'a> {
    cfg: ExecConfig<'a>,
}

impl<'a> ExecConfigBuilder<'a> {
    /// Select the interpreter hot path.
    #[must_use]
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Set the per-block dynamic instruction budget.
    #[must_use]
    pub fn instr_budget(mut self, budget: u64) -> Self {
        self.cfg.budget = Some(budget);
        self
    }

    /// Attach a fault-injection session.
    #[must_use]
    pub fn faults(mut self, session: &'a mut FaultSession) -> Self {
        self.cfg.faults = Some(session);
        self
    }

    /// Attach a per-site profile to fill in.
    #[must_use]
    pub fn profile(mut self, profile: &'a mut LaunchProfile) -> Self {
        self.cfg.profile = Some(profile);
        self
    }

    /// Attach a race detector to feed.
    #[must_use]
    pub fn sanitize(mut self, sanitizer: &'a mut LaunchSanitizer) -> Self {
        self.cfg.sanitize = Some(sanitizer);
        self
    }

    /// Bound the launch by an abort [`Ceiling`].
    #[must_use]
    pub fn ceiling(mut self, ceiling: Option<Ceiling>) -> Self {
        self.cfg.ceiling = ceiling;
        self
    }

    /// Finish the configuration.
    #[must_use]
    pub fn build(self) -> ExecConfig<'a> {
        self.cfg
    }
}

/// Execute `kernel` on `global` memory with the default budget and no
/// fault injection.
///
/// # Errors
///
/// Propagates [`SimError`] on validation failures, memory faults,
/// runtime traps, barrier deadlock or budget exhaustion.
pub fn run_kernel(
    kernel: &Kernel,
    arch: &ArchConfig,
    dims: LaunchDims,
    args: &[Arg],
    global: &mut LinearMemory,
    selection: BlockSelection,
) -> Result<ExecOutcome, SimError> {
    run_kernel_cfg(kernel, arch, dims, args, global, selection, ExecConfig::default())
}

/// Execute `kernel` on `global` memory under an explicit
/// [`ExecConfig`] (instruction budget, fault injection).
///
/// # Errors
///
/// Propagates [`SimError`] on validation failures, memory faults,
/// runtime traps, barrier deadlock or budget exhaustion.
pub fn run_kernel_cfg(
    kernel: &Kernel,
    arch: &ArchConfig,
    dims: LaunchDims,
    args: &[Arg],
    global: &mut LinearMemory,
    selection: BlockSelection,
    exec_cfg: ExecConfig<'_>,
) -> Result<ExecOutcome, SimError> {
    kernel.validate()?;
    if dims.grid == 0 || dims.block == 0 {
        return Err(SimError::InvalidLaunch("zero-sized grid or block".into()));
    }
    if dims.block > arch.max_threads_per_block {
        return Err(SimError::InvalidLaunch(format!(
            "block of {} threads exceeds the architecture limit of {}",
            dims.block, arch.max_threads_per_block
        )));
    }
    if args.len() != kernel.params.len() {
        return Err(SimError::InvalidLaunch(format!(
            "kernel `{}` expects {} arguments, got {}",
            kernel.name,
            kernel.params.len(),
            args.len()
        )));
    }
    for (i, (a, k)) in args.iter().zip(&kernel.params).enumerate() {
        if !a.matches(*k) {
            return Err(SimError::InvalidLaunch(format!(
                "argument {i} of `{}` does not match declared kind {k:?}",
                kernel.name
            )));
        }
    }
    let smem_bytes = kernel.smem_bytes(dims.dynamic_smem);
    if smem_bytes > arch.smem_per_block {
        return Err(SimError::InvalidLaunch(format!(
            "kernel `{}` needs {} bytes of shared memory, block limit is {}",
            kernel.name, smem_bytes, arch.smem_per_block
        )));
    }

    let cfg = kernel.cfg();
    let params: Vec<u64> = args.iter().map(|a| a.raw()).collect();

    // Decide which blocks to run.
    let (blocks_to_run, exact): (Vec<u32>, bool) = match selection {
        BlockSelection::All => ((0..dims.grid).collect(), true),
        BlockSelection::Sample { max_blocks } => {
            if dims.grid <= max_blocks.max(2) {
                ((0..dims.grid).collect(), true)
            } else {
                let k = max_blocks.max(2);
                let mut v: Vec<u32> = (0..k - 1)
                    .map(|i| (u64::from(i) * u64::from(dims.grid - 1) / u64::from(k - 1)) as u32)
                    .collect();
                v.push(dims.grid - 1);
                v.sort_unstable();
                v.dedup();
                (v, false)
            }
        }
    };

    let mut total = LaunchStats { block_size: dims.block, warps_per_block: dims.block.div_ceil(arch.warp_size), ..Default::default() };
    let mut global_chains: FxHashMap<u64, u64> = FxHashMap::default();
    let mut interior_stats: Option<LaunchStats> = None;

    // Buffers reused across every sampled block: allocated once per
    // launch, cleared (not reallocated) between blocks.
    let mut regs = vec![0u64; dims.block as usize * kernel.num_regs as usize];
    let mut preds = vec![false; dims.block as usize * kernel.num_preds.max(1) as usize];
    let mut smem = LinearMemory::new(smem_bytes, "shared");
    let mut shared_chains: FxHashMap<u64, u64> = FxHashMap::default();
    let mut warps: Vec<WarpExec> = Vec::new();

    let mut uop_warps: Vec<crate::uop::UopWarp> = Vec::new();
    let mut consts: Vec<u64> = Vec::new();

    let budget = exec_cfg.budget.unwrap_or(DEFAULT_BUDGET).max(1);
    // A disabled no-op session keeps the hot path branch-free when the
    // caller does not inject faults.
    let mut noop_session = FaultSession::disabled();
    let faults: &mut FaultSession = match exec_cfg.faults {
        Some(s) => s,
        None => &mut noop_session,
    };
    let mut profile = exec_cfg.profile;
    if let Some(p) = profile.as_deref_mut() {
        p.exact = exact;
    }
    let mut sanitize = exec_cfg.sanitize;
    if let Some(s) = sanitize.as_deref_mut() {
        s.exact = exact;
    }
    let ceiling =
        exec_cfg.ceiling.filter(|_| profile.is_none() && sanitize.is_none() && !faults.is_live());
    // Checked before anything is decoded or compiled, so a launch the
    // ceiling rules out from its overhead alone costs nothing.
    if let Some(c) = ceiling {
        check_ceiling(c, kernel, arch, dims, &total, 0)?;
    }

    // Predecode / compile once per launch (both cached on the kernel
    // across launches); warp states and the per-block constant table
    // are reused across blocks like the buffers above. The compiled
    // tier carries no observation hooks, so a launch with a profile,
    // sanitizer or live fault session falls back to the µop engine —
    // results, stats and timing stay bit-identical either way.
    let jit_prog = (exec_cfg.mode == ExecMode::Compiled
        && profile.is_none()
        && sanitize.is_none()
        && !faults.is_live())
    .then(|| kernel.jit());
    let uop_prog = match exec_cfg.mode {
        ExecMode::Predecoded => Some(kernel.uops()),
        ExecMode::Compiled if jit_prog.is_none() => Some(kernel.uops()),
        _ => None,
    };

    for &block_id in &blocks_to_run {
        regs.fill(0);
        preds.fill(false);
        smem.clear();
        shared_chains.clear();
        if let Some(s) = sanitize.as_deref_mut() {
            s.begin_block(block_id);
        }
        let mut ctx = BlockCtx {
            kernel,
            cfg,
            arch,
            params: &params,
            block_id,
            block_dim: dims.block,
            grid_dim: dims.grid,
            regs: &mut regs,
            preds: &mut preds,
            smem: &mut smem,
            stats: LaunchStats::default(),
            budget,
            budget_total: budget,
            shared_chains: &mut shared_chains,
            profile: profile.as_deref_mut(),
            sanitize: sanitize.as_deref_mut(),
        };
        match (jit_prog, uop_prog) {
            (Some(prog), _) => crate::jit::run_block(
                &mut ctx,
                prog,
                global,
                &mut global_chains,
                &mut uop_warps,
                &mut consts,
            )?,
            (None, Some(prog)) => crate::uop::run_block(
                &mut ctx,
                prog,
                global,
                &mut global_chains,
                &mut uop_warps,
                faults,
                &mut consts,
            )?,
            (None, None) => run_block(&mut ctx, global, &mut global_chains, &mut warps, faults)?,
        }
        let block_chain = ctx.shared_chains.values().copied().max().unwrap_or(0);
        ctx.stats.shared_atomic_max_chain_per_block = block_chain;
        ctx.stats.blocks = 1;
        if !exact && block_id != dims.grid - 1 && block_id != 0 {
            interior_stats = Some(ctx.stats.clone());
        }
        total += &ctx.stats;
        if let Some(c) = ceiling {
            // The launch-wide chain so far; the final value is set
            // below, and is never smaller.
            total.global_atomic_max_chain = global_chains.values().copied().max().unwrap_or(0);
            check_ceiling(c, kernel, arch, dims, &total, total.blocks as u32)?;
        }
    }

    if !exact {
        // Scale: executed blocks stand in for the whole grid. Interior
        // blocks are homogeneous; use a middle block as the template
        // (falling back to block 0).
        let missing = u64::from(dims.grid) - blocks_to_run.len() as u64;
        if missing > 0 {
            let template = interior_stats.unwrap_or_else(|| {
                // Recompute a per-block average from the totals.
                let mut t = total.clone();
                let n = blocks_to_run.len() as u64;
                scale_stats(&mut t, 1.0 / n as f64);
                t
            });
            let mut extra = template;
            scale_stats(&mut extra, missing as f64);
            total += &extra;
        }
        // Global atomic chains scale with the grid when every block
        // hits the same accumulator.
        let max_chain = global_chains.values().copied().max().unwrap_or(0);
        let sampled = blocks_to_run.len() as f64;
        total.global_atomic_max_chain =
            ((max_chain as f64) * f64::from(dims.grid) / sampled).round() as u64;
        total.blocks = u64::from(dims.grid);
    } else {
        total.global_atomic_max_chain = global_chains.values().copied().max().unwrap_or(0);
    }
    total.block_size = dims.block;
    total.warps_per_block = dims.block.div_ceil(arch.warp_size);

    Ok(ExecOutcome { stats: total, exact })
}

/// Abandon the launch when the lower bound of the blocks that so far
/// gathered `partial` breaks the ceiling.
/// Executed blocks only ever add to the counters (sampled launches
/// scale them up), so the bound holds for the finished launch.
fn check_ceiling(
    ceiling: Ceiling,
    kernel: &Kernel,
    arch: &ArchConfig,
    dims: LaunchDims,
    partial: &LaunchStats,
    blocks_run: u32,
) -> Result<(), SimError> {
    if ceiling.exceeded_by(arch, launch_lower_bound(arch, kernel, dims, partial)) {
        return Err(SimError::CeilingExceeded { kernel: kernel.name.clone(), blocks_run });
    }
    Ok(())
}

fn scale_stats(s: &mut LaunchStats, f: f64) {
    let m = |v: &mut u64| *v = (*v as f64 * f).round() as u64;
    s.warp_instrs.scale(f);
    m(&mut s.thread_instrs);
    m(&mut s.divergent_issues);
    m(&mut s.divergent_branches);
    m(&mut s.global_load_transactions);
    m(&mut s.global_store_transactions);
    m(&mut s.global_load_bytes_useful);
    m(&mut s.global_store_bytes_useful);
    m(&mut s.global_vector_bytes);
    m(&mut s.shared_accesses);
    m(&mut s.shared_bank_conflict_cycles);
    m(&mut s.global_atomics);
    m(&mut s.shared_atomics);
    m(&mut s.shared_atomic_serial);
    m(&mut s.barriers);
    m(&mut s.fault_stall_cycles);
    m(&mut s.blocks);
}

pub(crate) fn full_mask(lanes: u32) -> u32 {
    if lanes >= 32 {
        u32::MAX
    } else {
        (1u32 << lanes) - 1
    }
}

fn run_block(
    ctx: &mut BlockCtx<'_>,
    global: &mut LinearMemory,
    global_chains: &mut FxHashMap<u64, u64>,
    warps: &mut Vec<WarpExec>,
    faults: &mut FaultSession,
) -> Result<(), SimError> {
    let warp_size = ctx.arch.warp_size;
    let n_warps = ctx.block_dim.div_ceil(warp_size) as usize;

    // Reset the caller-owned warp buffer in place; the divergence
    // stacks keep their heap capacity across blocks.
    warps.truncate(n_warps);
    for (w, warp) in warps.iter_mut().enumerate() {
        let lanes_in_warp = (ctx.block_dim - w as u32 * warp_size).min(warp_size);
        warp.warp_id = w as u32;
        warp.exited = 0;
        warp.stack.clear();
        warp.stack.push(StackEntry { reconv: RECONV_NONE, pc: 0, mask: full_mask(lanes_in_warp) });
    }
    for w in warps.len() as u32..n_warps as u32 {
        let lanes_in_warp = (ctx.block_dim - w * warp_size).min(warp_size);
        warps.push(WarpExec {
            warp_id: w,
            stack: vec![StackEntry { reconv: RECONV_NONE, pc: 0, mask: full_mask(lanes_in_warp) }],
            exited: 0,
        });
    }

    // Each scheduling round runs every live warp until it either hits
    // a barrier or retires, so a round with zero barrier stops means
    // every warp has exited. Warps that stopped at a barrier resume on
    // the next round (their pc already points past the `Bar`), which
    // is exactly the barrier release.
    //
    // A round in which *some* of the warps that ran stopped at a
    // barrier while the rest retired is a barrier-divergence deadlock:
    // the waiting warps can never be released, because arrival of the
    // retired warps is impossible. Report it instead of releasing the
    // barrier anyway (silent corruption) or spinning until the budget
    // runs out (a misleading Timeout).
    loop {
        let mut waiting = 0usize;
        let mut ran = 0usize;
        for warp in warps.iter_mut() {
            if warp.stack.is_empty() {
                continue; // retired in an earlier round
            }
            ran += 1;
            if matches!(run_warp(ctx, warp, global, global_chains, faults)?, WarpStop::Barrier) {
                waiting += 1;
            }
        }
        if waiting == 0 {
            break;
        }
        if waiting < ran {
            let waiting_warps: Vec<u32> =
                warps.iter().filter(|w| !w.stack.is_empty()).map(|w| w.warp_id).collect();
            // A waiting warp's stack-top pc already points past the
            // `Bar` it stopped at.
            let barrier_pc = warps
                .iter()
                .find(|w| !w.stack.is_empty())
                .and_then(|w| w.stack.last())
                .map_or(0, |top| top.pc.saturating_sub(1));
            return Err(SimError::BarrierDeadlock {
                kernel: ctx.kernel.name.clone(),
                barrier_pc,
                waiting_warps,
            });
        }
        // Every live warp arrived: the barrier releases and orders
        // accesses across it.
        if let Some(s) = ctx.sanitize.as_deref_mut() {
            s.barrier_release();
        }
    }
    Ok(())
}

/// Build a [`SimError::Trap`] at a precise fault location.
pub(crate) fn trap_at(kernel: &Kernel, pc: usize, warp: u32, lane: u32, kind: TrapKind) -> SimError {
    SimError::Trap { kernel: kernel.name.clone(), pc, warp, lane, kind }
}

/// Map a drawn fault onto concrete simulator state. Cold: fires at
/// most `max_faults_per_launch` times per launch.
#[cold]
pub(crate) fn apply_fault(
    ctx: &mut BlockCtx<'_>,
    global: &mut LinearMemory,
    faults: &mut FaultSession,
    pending: PendingFault,
) {
    match pending {
        PendingFault::GlobalBitFlip { pos } => {
            if let Some((addr, bit)) = global.flip_bit(pos) {
                faults.record(FaultKind::GlobalBitFlip { addr, bit });
            }
        }
        PendingFault::SharedBitFlip { pos } => {
            if let Some((addr, bit)) = ctx.smem.flip_bit(pos) {
                faults.record(FaultKind::SharedBitFlip { addr, bit });
            } else if let Some((addr, bit)) = global.flip_bit(pos) {
                // Block without shared memory: land the upset in
                // global memory instead of losing the event.
                faults.record(FaultKind::GlobalBitFlip { addr, bit });
            }
        }
        PendingFault::AtomicRetryStorm { extra_serial } => {
            ctx.stats.shared_atomic_serial += extra_serial;
            faults.record(FaultKind::AtomicRetryStorm { extra_serial });
        }
        PendingFault::WarpStall { cycles } => {
            ctx.stats.fault_stall_cycles += cycles;
            faults.record(FaultKind::WarpStall { cycles });
        }
    }
}

/// Execute one warp until it hits a barrier or finishes.
fn run_warp(
    ctx: &mut BlockCtx<'_>,
    warp: &mut WarpExec,
    global: &mut LinearMemory,
    global_chains: &mut FxHashMap<u64, u64>,
    faults: &mut FaultSession,
) -> Result<WarpStop, SimError> {
    let warp_size = ctx.arch.warp_size;
    let base_thread = warp.warp_id * warp_size;
    // Copy the `&Kernel` out of the context so instruction borrows do
    // not alias the `&mut ctx` the execution arms need.
    let kernel = ctx.kernel;
    let instrs = kernel.instrs.as_slice();
    loop {
        // Pop completed or emptied divergence entries.
        loop {
            let Some(top) = warp.stack.last() else {
                return Ok(WarpStop::Done);
            };
            if top.mask & !warp.exited == 0 || top.pc == top.reconv {
                warp.stack.pop();
                continue;
            }
            break;
        }
        let top = *warp.stack.last().unwrap();
        let active = top.mask & !warp.exited;
        let pc = top.pc;
        if pc >= instrs.len() {
            // Fell off the end (treated as exit for the active lanes).
            warp.exited |= active;
            warp.stack.pop();
            continue;
        }
        if ctx.budget == 0 {
            return Err(SimError::Timeout {
                kernel: kernel.name.clone(),
                budget: ctx.budget_total,
            });
        }
        ctx.budget -= 1;
        if let Some(pending) = faults.poll() {
            apply_fault(ctx, global, faults, pending);
        }

        let instr = &instrs[pc];
        let n_active = active.count_ones();
        ctx.stats.issue(instr.class(), n_active, warp_size);
        if let Some(p) = ctx.profile.as_deref_mut() {
            p.record_issue(pc, n_active, warp_size);
        }

        // Stack-allocated active-lane list (hot path: no heap).
        let mut lane_buf = [0u32; MAX_LANES];
        let mut n_lanes = 0usize;
        for l in 0..warp_size {
            if active & (1 << l) != 0 {
                lane_buf[n_lanes] = l;
                n_lanes += 1;
            }
        }
        let lanes = &lane_buf[..n_lanes];
        let thread_of = |lane: u32| base_thread + lane;

        let mut next_pc = pc + 1;
        match instr {
            Instr::Mov { ty, dst, src } => {
                for &l in lanes {
                    let t = thread_of(l);
                    let v = ctx.operand(t, *src, *ty);
                    ctx.set_reg(t, *dst, truncate(*ty, v));
                }
            }
            Instr::Un { op, ty, dst, src } => {
                for &l in lanes {
                    let t = thread_of(l);
                    let v = ctx.operand(t, *src, *ty);
                    let r = match op {
                        UnOp::Neg => {
                            if ty.is_float() {
                                from_f(*ty, -to_f(*ty, v))
                            } else {
                                eval_bin(BinOp::Sub, *ty, 0, v)
                                    .map_err(|k| trap_at(kernel, pc, warp.warp_id, l, k))?
                            }
                        }
                        UnOp::Not => truncate(*ty, !v),
                    };
                    ctx.set_reg(t, *dst, r);
                }
            }
            Instr::Bin { op, ty, dst, a, b } => {
                for &l in lanes {
                    let t = thread_of(l);
                    let (x, y) = (ctx.operand(t, *a, *ty), ctx.operand(t, *b, *ty));
                    let r = eval_bin(*op, *ty, x, y)
                        .map_err(|k| trap_at(kernel, pc, warp.warp_id, l, k))?;
                    ctx.set_reg(t, *dst, r);
                }
            }
            Instr::Mad { ty, dst, a, b, c } => {
                for &l in lanes {
                    let t = thread_of(l);
                    let x = ctx.operand(t, *a, *ty);
                    let y = ctx.operand(t, *b, *ty);
                    let z = ctx.operand(t, *c, *ty);
                    let m = eval_bin(BinOp::Mul, *ty, x, y)
                        .map_err(|k| trap_at(kernel, pc, warp.warp_id, l, k))?;
                    let r = eval_bin(BinOp::Add, *ty, m, z)
                        .map_err(|k| trap_at(kernel, pc, warp.warp_id, l, k))?;
                    ctx.set_reg(t, *dst, r);
                }
            }
            Instr::Cvt { from, to, dst, src } => {
                for &l in lanes {
                    let t = thread_of(l);
                    let v = ctx.operand(t, *src, *from);
                    ctx.set_reg(t, *dst, eval_cvt(*from, *to, v));
                }
            }
            Instr::Setp { op, ty, dst, a, b } => {
                for &l in lanes {
                    let t = thread_of(l);
                    let (x, y) = (ctx.operand(t, *a, *ty), ctx.operand(t, *b, *ty));
                    ctx.set_pred(t, *dst, eval_cmp(*op, *ty, x, y));
                }
            }
            Instr::Plop { op, dst, a, b } => {
                for &l in lanes {
                    let t = thread_of(l);
                    let (x, y) = (ctx.pred(t, *a), ctx.pred(t, *b));
                    let r = match op {
                        BinOp::And => x && y,
                        BinOp::Or => x || y,
                        BinOp::Xor => x ^ y,
                        other => {
                            return Err(trap_at(
                                kernel,
                                pc,
                                warp.warp_id,
                                l,
                                TrapKind::IllegalInstruction {
                                    detail: format!("plop with non-logical op {other:?}"),
                                },
                            ))
                        }
                    };
                    ctx.set_pred(t, *dst, r);
                }
            }
            Instr::Selp { ty, dst, a, b, pred } => {
                for &l in lanes {
                    let t = thread_of(l);
                    let v = if ctx.pred(t, *pred) {
                        ctx.operand(t, *a, *ty)
                    } else {
                        ctx.operand(t, *b, *ty)
                    };
                    ctx.set_reg(t, *dst, truncate(*ty, v));
                }
            }
            Instr::Ld { space, ty, dst, addr, width } => {
                let elem = ty.size();
                let n = u64::from(width.lanes());
                let mut access_buf = [(0u64, 0u64); MAX_LANES];
                for (i, &l) in lanes.iter().enumerate() {
                    let t = thread_of(l);
                    let a = ctx.addr(t, addr);
                    if !a.is_multiple_of(elem * n) {
                        return Err(trap_at(
                            kernel,
                            pc,
                            warp.warp_id,
                            l,
                            TrapKind::Misaligned { space: space.label(), addr: a, required: elem * n },
                        ));
                    }
                    access_buf[i] = (a, elem * n);
                    for k in 0..width.lanes() {
                        let v = match space {
                            Space::Global => global.read(*ty, a + u64::from(k) * elem)?,
                            Space::Shared => ctx.smem.read(*ty, a + u64::from(k) * elem)?,
                        };
                        ctx.set_reg(t, dst + k, v);
                    }
                }
                let accesses = &access_buf[..lanes.len()];
                record_mem(ctx, pc, *space, true, accesses);
                if *space == Space::Global && width.lanes() > 1 {
                    ctx.stats.global_vector_bytes +=
                        accesses.iter().map(|&(_, s)| s).sum::<u64>();
                }
                if let Some(s) = ctx.sanitize.as_deref_mut() {
                    s.record_warp(*space, pc, warp.warp_id, AccessKind::Read, active, accesses);
                }
            }
            Instr::St { space, ty, src, addr, width } => {
                let elem = ty.size();
                let n = u64::from(width.lanes());
                let mut access_buf = [(0u64, 0u64); MAX_LANES];
                for (i, &l) in lanes.iter().enumerate() {
                    let t = thread_of(l);
                    let a = ctx.addr(t, addr);
                    if !a.is_multiple_of(elem * n) {
                        return Err(trap_at(
                            kernel,
                            pc,
                            warp.warp_id,
                            l,
                            TrapKind::Misaligned { space: space.label(), addr: a, required: elem * n },
                        ));
                    }
                    access_buf[i] = (a, elem * n);
                    for k in 0..width.lanes() {
                        let v = ctx.reg(t, src + k);
                        match space {
                            Space::Global => global.write(*ty, a + u64::from(k) * elem, v)?,
                            Space::Shared => ctx.smem.write(*ty, a + u64::from(k) * elem, v)?,
                        }
                    }
                }
                record_mem(ctx, pc, *space, false, &access_buf[..lanes.len()]);
                if let Some(s) = ctx.sanitize.as_deref_mut() {
                    s.record_warp(
                        *space,
                        pc,
                        warp.warp_id,
                        AccessKind::Write,
                        active,
                        &access_buf[..lanes.len()],
                    );
                }
            }
            Instr::Atom { space, scope, op, ty, dst, addr, src, cmp } => {
                // Linearize lanes in order; gather contention stats.
                let mut addr_buf = [0u64; MAX_LANES];
                for (i, &l) in lanes.iter().enumerate() {
                    let t = thread_of(l);
                    let a = ctx.addr(t, addr);
                    if !a.is_multiple_of(ty.size()) {
                        return Err(trap_at(
                            kernel,
                            pc,
                            warp.warp_id,
                            l,
                            TrapKind::Misaligned { space: space.label(), addr: a, required: ty.size() },
                        ));
                    }
                    addr_buf[i] = a;
                    let s = ctx.operand(t, *src, *ty);
                    let c = cmp.map(|c| ctx.operand(t, c, *ty));
                    let old = match space {
                        Space::Global => {
                            let old = global.read(*ty, a)?;
                            let new = eval_atom(*op, *ty, old, s, c)
                                .map_err(|k| trap_at(kernel, pc, warp.warp_id, l, k))?;
                            global.write(*ty, a, new)?;
                            old
                        }
                        Space::Shared => {
                            let old = ctx.smem.read(*ty, a)?;
                            let new = eval_atom(*op, *ty, old, s, c)
                                .map_err(|k| trap_at(kernel, pc, warp.warp_id, l, k))?;
                            ctx.smem.write(*ty, a, new)?;
                            old
                        }
                    };
                    if let Some(d) = dst {
                        ctx.set_reg(t, *d, old);
                    }
                    let depth = match space {
                        Space::Global => {
                            let e = global_chains.entry(a).or_insert(0);
                            *e += 1;
                            *e - 1
                        }
                        Space::Shared => {
                            let e = ctx.shared_chains.entry(a).or_insert(0);
                            *e += 1;
                            *e - 1
                        }
                    };
                    if let Some(p) = ctx.profile.as_deref_mut() {
                        p.sites[pc].atomic_serial += depth;
                    }
                }
                // Worst same-address contention across the warp; O(n^2)
                // over at most 32 lanes beats hashing on the hot path.
                let addrs = &addr_buf[..lanes.len()];
                let mut worst = 0u64;
                for (i, &a) in addrs.iter().enumerate() {
                    if addrs[..i].contains(&a) {
                        continue;
                    }
                    let c = addrs[i..].iter().filter(|&&b| b == a).count() as u64;
                    worst = worst.max(c);
                }
                match space {
                    Space::Global => {
                        ctx.stats.global_atomics += lanes.len() as u64;
                    }
                    Space::Shared => {
                        ctx.stats.shared_atomics += lanes.len() as u64;
                        ctx.stats.shared_atomic_serial += worst;
                    }
                }
                if let Some(p) = ctx.profile.as_deref_mut() {
                    p.sites[pc].atomic_ops += lanes.len() as u64;
                }
                if let Some(s) = ctx.sanitize.as_deref_mut() {
                    let mut buf = [(0u64, 0u64); MAX_LANES];
                    for (i, &a) in addrs.iter().enumerate() {
                        buf[i] = (a, ty.size());
                    }
                    let kind = AccessKind::Atomic { scope: *scope };
                    s.record_warp(*space, pc, warp.warp_id, kind, active, &buf[..addrs.len()]);
                }
            }
            Instr::Shfl { mode, ty, dst, src, lane, width, pred_out } => {
                // Snapshot source values across the whole warp first.
                let ws = warp_size;
                let mut snapshot = [0u64; MAX_LANES];
                for l in 0..ws {
                    let t = base_thread + l;
                    if t < ctx.block_dim {
                        snapshot[l as usize] = ctx.operand(t, *src, *ty);
                    }
                }
                for &l in lanes {
                    let t = thread_of(l);
                    let b = ctx.operand(t, *lane, Ty::U32) as u32;
                    let w = (*width).clamp(1, ws);
                    let seg = l / w * w; // sub-warp segment start
                    let pos = l % w;
                    let (src_lane, in_range) = match mode {
                        ShflMode::Up => {
                            if pos >= b {
                                (seg + pos - b, true)
                            } else {
                                (l, false)
                            }
                        }
                        ShflMode::Down => {
                            if pos + b < w {
                                (seg + pos + b, true)
                            } else {
                                (l, false)
                            }
                        }
                        ShflMode::Bfly => {
                            let j = pos ^ b;
                            if j < w {
                                (seg + j, true)
                            } else {
                                (l, false)
                            }
                        }
                        ShflMode::Idx => {
                            let j = b % w;
                            (seg + j, true)
                        }
                    };
                    let v = snapshot[src_lane.min(ws - 1) as usize];
                    ctx.set_reg(t, *dst, truncate(*ty, v));
                    if let Some(p) = pred_out {
                        ctx.set_pred(t, *p, in_range);
                    }
                }
                if let Some(p) = ctx.profile.as_deref_mut() {
                    p.sites[pc].shuffle_exchanges += u64::from(n_active);
                }
            }
            Instr::Bar => {
                ctx.stats.barriers += 1;
                if let Some(s) = ctx.sanitize.as_deref_mut() {
                    let lanes_in_warp = (ctx.block_dim - base_thread).min(warp_size);
                    s.record_bar(pc, warp.warp_id, active, full_mask(lanes_in_warp));
                }
                if let Some(top) = warp.stack.last_mut() {
                    top.pc = next_pc;
                }
                return Ok(WarpStop::Barrier);
            }
            Instr::Bra { pred, target } => {
                match pred {
                    None => next_pc = *target,
                    Some((p, when)) => {
                        let mut taken = 0u32;
                        for &l in lanes {
                            let t = thread_of(l);
                            if ctx.pred(t, *p) == *when {
                                taken |= 1 << l;
                            }
                        }
                        if taken == active {
                            next_pc = *target;
                        } else if taken == 0 {
                            // fall through
                        } else {
                            // Divergence: split via the SIMT stack.
                            ctx.stats.divergent_branches += 1;
                            if let Some(p) = ctx.profile.as_deref_mut() {
                                p.sites[pc].divergence_splits += 1;
                            }
                            let reconv = ctx.cfg.reconvergence(pc).unwrap_or(RECONV_NONE);
                            let outer = warp.stack.pop().unwrap();
                            if reconv != RECONV_NONE {
                                warp.stack.push(StackEntry {
                                    reconv: outer.reconv,
                                    pc: reconv,
                                    mask: outer.mask,
                                });
                            }
                            let not_taken = active & !taken;
                            warp.stack.push(StackEntry { reconv, pc: pc + 1, mask: not_taken });
                            warp.stack.push(StackEntry { reconv, pc: *target, mask: taken });
                            continue;
                        }
                    }
                }
            }
            Instr::Exit => {
                warp.exited |= active;
                // The pop loop at the top will clean up.
            }
        }
        if let Some(top) = warp.stack.last_mut() {
            top.pc = next_pc;
        }
    }
}

pub(crate) fn record_mem(
    ctx: &mut BlockCtx<'_>,
    pc: usize,
    space: Space,
    is_load: bool,
    accesses: &[(u64, u64)],
) {
    match space {
        Space::Global => {
            let tx = coalesced_transactions(accesses);
            let useful: u64 = accesses.iter().map(|&(_, s)| s).sum();
            if is_load {
                ctx.stats.global_load_transactions += tx;
                ctx.stats.global_load_bytes_useful += useful;
            } else {
                ctx.stats.global_store_transactions += tx;
                ctx.stats.global_store_bytes_useful += useful;
            }
            if let Some(p) = ctx.profile.as_deref_mut() {
                let s = &mut p.sites[pc];
                s.global_transactions += tx;
                s.global_bytes_useful += useful;
            }
        }
        Space::Shared => {
            ctx.stats.shared_accesses += 1;
            let mut addr_buf = [0u64; MAX_LANES];
            for (i, &(a, _)) in accesses.iter().enumerate() {
                addr_buf[i] = a;
            }
            let degree = bank_conflict_degree(&addr_buf[..accesses.len()]);
            ctx.stats.shared_bank_conflict_cycles += degree.saturating_sub(1);
            if let Some(p) = ctx.profile.as_deref_mut() {
                let s = &mut p.sites[pc];
                s.shared_accesses += 1;
                s.shared_bank_conflicts += degree.saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{InstrClass, Scope};
    use crate::kernel::KernelBuilder;

    fn arch() -> ArchConfig {
        ArchConfig::maxwell_gtx980()
    }

    /// out[i] = i * 2 across a grid.
    #[test]
    fn elementwise_kernel() {
        let mut b = KernelBuilder::new("twice");
        let out = b.param_ptr();
        let gidx = b.reg();
        let addr = b.reg();
        let val = b.reg();
        // gidx = ctaid * ntid + tid
        b.mad(Ty::U32, gidx, Operand::Sreg(Sreg::CtaIdX), Operand::Sreg(Sreg::NtidX), Operand::Sreg(Sreg::TidX));
        b.bin(BinOp::Mul, Ty::U32, val, Operand::Reg(gidx), Operand::ImmI(2));
        // addr = out + gidx*4
        b.cvt(Ty::U32, Ty::U64, addr, Operand::Reg(gidx));
        b.bin(BinOp::Mul, Ty::U64, addr, Operand::Reg(addr), Operand::ImmI(4));
        b.bin(BinOp::Add, Ty::U64, addr, Operand::Reg(addr), Operand::Param(out));
        b.st(Space::Global, Ty::U32, val, Address::reg(addr));
        b.exit();
        let k = b.finish().unwrap();

        let mut mem = LinearMemory::new(4 * 64, "global");
        let out = run_kernel(&k, &arch(), LaunchDims::new(2, 32), &[Arg::Ptr(0)], &mut mem, BlockSelection::All)
            .unwrap();
        assert!(out.exact);
        for i in 0..64u64 {
            assert_eq!(mem.read(Ty::U32, i * 4).unwrap(), i * 2);
        }
        // One fully-coalesced store per warp → 2 transactions.
        assert_eq!(out.stats.global_store_transactions, 2);
    }

    /// Divergent if/else writes different values and reconverges.
    #[test]
    fn divergent_branch_reconverges() {
        let mut b = KernelBuilder::new("div");
        let out = b.param_ptr();
        let r = b.reg();
        let addr = b.reg();
        let p = b.pred();
        let else_l = b.label();
        let join_l = b.label();
        b.setp(CmpOp::Lt, Ty::U32, p, Operand::Sreg(Sreg::TidX), Operand::ImmI(7));
        b.bra_if(p, false, else_l);
        b.mov(Ty::U32, r, Operand::ImmI(111));
        b.bra(join_l);
        b.place(else_l);
        b.mov(Ty::U32, r, Operand::ImmI(222));
        b.place(join_l);
        // r += 1 on the reconverged path: proves both sides rejoined.
        b.bin(BinOp::Add, Ty::U32, r, Operand::Reg(r), Operand::ImmI(1));
        b.cvt(Ty::U32, Ty::U64, addr, Operand::Sreg(Sreg::TidX));
        b.bin(BinOp::Mul, Ty::U64, addr, Operand::Reg(addr), Operand::ImmI(4));
        b.bin(BinOp::Add, Ty::U64, addr, Operand::Reg(addr), Operand::Param(out));
        b.st(Space::Global, Ty::U32, r, Address::reg(addr));
        b.exit();
        let k = b.finish().unwrap();

        let mut mem = LinearMemory::new(4 * 32, "global");
        let out = run_kernel(&k, &arch(), LaunchDims::new(1, 32), &[Arg::Ptr(0)], &mut mem, BlockSelection::All)
            .unwrap();
        for i in 0..32u64 {
            let expect = if i < 7 { 112 } else { 223 };
            assert_eq!(mem.read(Ty::U32, i * 4).unwrap(), expect, "lane {i}");
        }
        assert_eq!(out.stats.divergent_branches, 1);
        assert!(out.stats.divergent_issues > 0);
    }

    /// Shared-memory tree reduction with barriers across 2 warps.
    #[test]
    fn shared_tree_reduction_with_barriers() {
        let n: u32 = 64;
        let mut b = KernelBuilder::new("tree");
        let inp = b.param_ptr();
        let outp = b.param_ptr();
        let smem_off = b.smem_alloc(u64::from(n) * 4);
        let tid = b.reg();
        let a = b.reg();
        let v = b.reg();
        let w = b.reg();
        let sa = b.reg();
        let sb = b.reg();
        let stride = b.reg();
        let p = b.pred();
        let pw = b.pred();
        b.mov(Ty::U32, tid, Operand::Sreg(Sreg::TidX));
        // load input[tid] into smem[tid]
        b.cvt(Ty::U32, Ty::U64, a, Operand::Reg(tid));
        b.bin(BinOp::Mul, Ty::U64, a, Operand::Reg(a), Operand::ImmI(4));
        b.bin(BinOp::Add, Ty::U64, a, Operand::Reg(a), Operand::Param(inp));
        b.ld(Space::Global, Ty::U32, v, Address::reg(a));
        b.cvt(Ty::U32, Ty::U64, sa, Operand::Reg(tid));
        b.bin(BinOp::Mul, Ty::U64, sa, Operand::Reg(sa), Operand::ImmI(4));
        b.bin(BinOp::Add, Ty::U64, sa, Operand::Reg(sa), Operand::ImmI(smem_off as i64));
        b.st(Space::Shared, Ty::U32, v, Address::reg(sa));
        b.bar();
        // for stride = n/2; stride > 0; stride >>= 1
        b.mov(Ty::U32, stride, Operand::ImmI(i64::from(n / 2)));
        let top = b.label();
        let body_end = b.label();
        let done = b.label();
        b.place(top);
        b.setp(CmpOp::Eq, Ty::U32, p, Operand::Reg(stride), Operand::ImmI(0));
        b.bra_if(p, true, done);
        //   if tid < stride: smem[tid] += smem[tid+stride]
        b.setp(CmpOp::Lt, Ty::U32, pw, Operand::Reg(tid), Operand::Reg(stride));
        b.bra_if(pw, false, body_end);
        b.bin(BinOp::Add, Ty::U32, w, Operand::Reg(tid), Operand::Reg(stride));
        b.cvt(Ty::U32, Ty::U64, sb, Operand::Reg(w));
        b.bin(BinOp::Mul, Ty::U64, sb, Operand::Reg(sb), Operand::ImmI(4));
        b.bin(BinOp::Add, Ty::U64, sb, Operand::Reg(sb), Operand::ImmI(smem_off as i64));
        b.ld(Space::Shared, Ty::U32, w, Address::reg(sb));
        b.ld(Space::Shared, Ty::U32, v, Address::reg(sa));
        b.bin(BinOp::Add, Ty::U32, v, Operand::Reg(v), Operand::Reg(w));
        b.st(Space::Shared, Ty::U32, v, Address::reg(sa));
        b.place(body_end);
        b.bar();
        b.bin(BinOp::Shr, Ty::U32, stride, Operand::Reg(stride), Operand::ImmI(1));
        b.bra(top);
        b.place(done);
        // thread 0 writes smem[0] to out
        b.setp(CmpOp::Eq, Ty::U32, p, Operand::Reg(tid), Operand::ImmI(0));
        let skip = b.label();
        b.bra_if(p, false, skip);
        b.ld(Space::Shared, Ty::U32, v, Address::new(Operand::ImmI(smem_off as i64), 0));
        b.st(Space::Global, Ty::U32, v, Address::new(Operand::Param(outp), 0));
        b.place(skip);
        b.exit();
        let k = b.finish().unwrap();

        let mut mem = LinearMemory::new(4 * u64::from(n) + 4, "global");
        for i in 0..n {
            mem.write(Ty::U32, u64::from(i) * 4, u64::from(i + 1)).unwrap();
        }
        let outp_addr = 4 * u64::from(n);
        run_kernel(
            &k,
            &arch(),
            LaunchDims::new(1, n),
            &[Arg::Ptr(0), Arg::Ptr(outp_addr)],
            &mut mem,
            BlockSelection::All,
        )
        .unwrap();
        assert_eq!(mem.read(Ty::U32, outp_addr).unwrap(), u64::from(n * (n + 1) / 2));
    }

    /// Warp shuffle-down reduction of one warp.
    #[test]
    fn shuffle_down_reduction() {
        let mut b = KernelBuilder::new("shfl");
        let outp = b.param_ptr();
        let v = b.reg();
        let tmp = b.reg();
        let p = b.pred();
        b.mov(Ty::U32, v, Operand::Sreg(Sreg::TidX)); // v = lane
        for offset in [16, 8, 4, 2, 1] {
            b.shfl(ShflMode::Down, Ty::U32, tmp, Operand::Reg(v), Operand::ImmI(offset), 32);
            b.bin(BinOp::Add, Ty::U32, v, Operand::Reg(v), Operand::Reg(tmp));
        }
        b.setp(CmpOp::Eq, Ty::U32, p, Operand::Sreg(Sreg::TidX), Operand::ImmI(0));
        let skip = b.label();
        b.bra_if(p, false, skip);
        b.st(Space::Global, Ty::U32, v, Address::new(Operand::Param(outp), 0));
        b.place(skip);
        b.exit();
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(4, "global");
        let out = run_kernel(&k, &arch(), LaunchDims::new(1, 32), &[Arg::Ptr(0)], &mut mem, BlockSelection::All)
            .unwrap();
        assert_eq!(mem.read(Ty::U32, 0).unwrap(), (0..32).sum::<u64>());
        assert_eq!(out.stats.class(InstrClass::Shfl), 5);
    }

    /// Sub-warp (width 8) shuffle keeps exchanges within segments.
    #[test]
    fn subwarp_shuffle_segments() {
        let mut b = KernelBuilder::new("sub");
        let outp = b.param_ptr();
        let v = b.reg();
        let t = b.reg();
        let a = b.reg();
        b.mov(Ty::U32, v, Operand::Sreg(Sreg::TidX));
        b.shfl(ShflMode::Down, Ty::U32, t, Operand::Reg(v), Operand::ImmI(4), 8);
        b.cvt(Ty::U32, Ty::U64, a, Operand::Sreg(Sreg::TidX));
        b.bin(BinOp::Mul, Ty::U64, a, Operand::Reg(a), Operand::ImmI(4));
        b.bin(BinOp::Add, Ty::U64, a, Operand::Reg(a), Operand::Param(outp));
        b.st(Space::Global, Ty::U32, t, Address::reg(a));
        b.exit();
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(4 * 32, "global");
        run_kernel(&k, &arch(), LaunchDims::new(1, 32), &[Arg::Ptr(0)], &mut mem, BlockSelection::All)
            .unwrap();
        for i in 0..32u64 {
            let pos = i % 8;
            let expect = if pos + 4 < 8 { i + 4 } else { i }; // out-of-segment keeps own value
            assert_eq!(mem.read(Ty::U32, i * 4).unwrap(), expect, "lane {i}");
        }
    }

    /// Global and shared atomics accumulate correctly and report
    /// contention chains.
    #[test]
    fn atomics_accumulate() {
        let mut b = KernelBuilder::new("atom");
        let outp = b.param_ptr();
        let one = b.reg();
        b.mov(Ty::U32, one, Operand::ImmI(1));
        b.red(Space::Global, Scope::Gpu, AtomOp::Add, Ty::U32, Address::new(Operand::Param(outp), 0), Operand::Reg(one));
        b.exit();
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(4, "global");
        let out = run_kernel(&k, &arch(), LaunchDims::new(4, 64), &[Arg::Ptr(0)], &mut mem, BlockSelection::All)
            .unwrap();
        assert_eq!(mem.read(Ty::U32, 0).unwrap(), 256);
        assert_eq!(out.stats.global_atomics, 256);
        assert_eq!(out.stats.global_atomic_max_chain, 256);
    }

    #[test]
    fn shared_atomic_contention_tracked() {
        let mut b = KernelBuilder::new("satom");
        let outp = b.param_ptr();
        let acc = b.smem_alloc(4);
        let one = b.reg();
        let v = b.reg();
        let p = b.pred();
        b.mov(Ty::U32, one, Operand::ImmI(1));
        b.red(Space::Shared, Scope::Cta, AtomOp::Add, Ty::U32, Address::new(Operand::ImmI(acc as i64), 0), Operand::Reg(one));
        b.bar();
        b.setp(CmpOp::Eq, Ty::U32, p, Operand::Sreg(Sreg::TidX), Operand::ImmI(0));
        let skip = b.label();
        b.bra_if(p, false, skip);
        b.ld(Space::Shared, Ty::U32, v, Address::new(Operand::ImmI(acc as i64), 0));
        b.st(Space::Global, Ty::U32, v, Address::new(Operand::Param(outp), 0));
        b.place(skip);
        b.exit();
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(4, "global");
        let out = run_kernel(&k, &arch(), LaunchDims::new(1, 128), &[Arg::Ptr(0)], &mut mem, BlockSelection::All)
            .unwrap();
        assert_eq!(mem.read(Ty::U32, 0).unwrap(), 128);
        assert_eq!(out.stats.shared_atomics, 128);
        // 4 warps × fully-conflicting (32 per warp issue).
        assert_eq!(out.stats.shared_atomic_serial, 128);
        assert_eq!(out.stats.shared_atomic_max_chain_per_block, 128);
    }

    /// Sampled execution scales statistics to the full grid.
    #[test]
    fn sampling_scales_stats() {
        let mut b = KernelBuilder::new("samp");
        let outp = b.param_ptr();
        let one = b.reg();
        b.mov(Ty::U32, one, Operand::ImmI(1));
        b.red(Space::Global, Scope::Gpu, AtomOp::Add, Ty::U32, Address::new(Operand::Param(outp), 0), Operand::Reg(one));
        b.exit();
        let k = b.finish().unwrap();

        let mut mem_full = LinearMemory::new(4, "global");
        let full = run_kernel(&k, &arch(), LaunchDims::new(256, 64), &[Arg::Ptr(0)], &mut mem_full, BlockSelection::All)
            .unwrap();
        let mut mem_s = LinearMemory::new(4, "global");
        let sampled = run_kernel(
            &k,
            &arch(),
            LaunchDims::new(256, 64),
            &[Arg::Ptr(0)],
            &mut mem_s,
            BlockSelection::Sample { max_blocks: 8 },
        )
        .unwrap();
        assert!(full.exact);
        assert!(!sampled.exact);
        let f = full.stats.total_warp_instrs() as f64;
        let s = sampled.stats.total_warp_instrs() as f64;
        assert!((f - s).abs() / f < 0.02, "scaled {s} vs exact {f}");
        assert!(
            (sampled.stats.global_atomic_max_chain as f64 - 256.0 * 64.0).abs() < 0.05 * 256.0 * 64.0
        );
    }

    #[test]
    fn launch_validation() {
        let mut b = KernelBuilder::new("v");
        b.exit();
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(0, "global");
        let a = arch();
        assert!(run_kernel(&k, &a, LaunchDims::new(0, 32), &[], &mut mem, BlockSelection::All).is_err());
        assert!(run_kernel(&k, &a, LaunchDims::new(1, 2048), &[], &mut mem, BlockSelection::All).is_err());
        assert!(
            run_kernel(&k, &a, LaunchDims::new(1, 32), &[Arg::U32(1)], &mut mem, BlockSelection::All)
                .is_err()
        );
    }

    /// Vector loads read consecutive elements into consecutive regs.
    #[test]
    fn vector_load() {
        let mut b = KernelBuilder::new("v4");
        let inp = b.param_ptr();
        let outp = b.param_ptr();
        let base = b.reg_vec(4);
        let a = b.reg();
        let sum = b.reg();
        // addr = in + tid*16
        b.cvt(Ty::U32, Ty::U64, a, Operand::Sreg(Sreg::TidX));
        b.bin(BinOp::Mul, Ty::U64, a, Operand::Reg(a), Operand::ImmI(16));
        b.bin(BinOp::Add, Ty::U64, a, Operand::Reg(a), Operand::Param(inp));
        b.ld_vec(Space::Global, Ty::U32, base, Address::reg(a), crate::isa::VecWidth::V4);
        b.bin(BinOp::Add, Ty::U32, sum, Operand::Reg(base), Operand::Reg(base + 1));
        b.bin(BinOp::Add, Ty::U32, sum, Operand::Reg(sum), Operand::Reg(base + 2));
        b.bin(BinOp::Add, Ty::U32, sum, Operand::Reg(sum), Operand::Reg(base + 3));
        b.cvt(Ty::U32, Ty::U64, a, Operand::Sreg(Sreg::TidX));
        b.bin(BinOp::Mul, Ty::U64, a, Operand::Reg(a), Operand::ImmI(4));
        b.bin(BinOp::Add, Ty::U64, a, Operand::Reg(a), Operand::Param(outp));
        b.st(Space::Global, Ty::U32, sum, Address::reg(a));
        b.exit();
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(16 * 32 + 4 * 32, "global");
        for i in 0..128u64 {
            mem.write(Ty::U32, i * 4, i).unwrap();
        }
        run_kernel(&k, &arch(), LaunchDims::new(1, 32), &[Arg::Ptr(0), Arg::Ptr(512)], &mut mem, BlockSelection::All)
            .unwrap();
        for t in 0..32u64 {
            let expect: u64 = (4 * t..4 * t + 4).sum();
            assert_eq!(mem.read(Ty::U32, 512 + t * 4).unwrap(), expect & 0xFFFF_FFFF);
        }
    }

    #[test]
    fn f32_arithmetic() {
        assert_eq!(
            f32::from_bits(eval_bin(BinOp::Add, Ty::F32, u64::from(2.5f32.to_bits()), u64::from(0.25f32.to_bits())).unwrap() as u32),
            2.75
        );
        assert_eq!(
            f32::from_bits(eval_bin(BinOp::Max, Ty::F32, u64::from((-1.0f32).to_bits()), u64::from(3.0f32.to_bits())).unwrap() as u32),
            3.0
        );
    }

    #[test]
    fn signed_compare_and_div() {
        assert!(eval_cmp(CmpOp::Lt, Ty::I32, (-5i32) as u32 as u64, 3));
        assert!(!eval_cmp(CmpOp::Lt, Ty::U32, (-5i32) as u32 as u64, 3));
        assert_eq!(eval_bin(BinOp::Div, Ty::I32, (-6i32) as u32 as u64, 2).unwrap() as u32 as i32, -3);
        assert_eq!(eval_bin(BinOp::Div, Ty::U32, 7, 0).unwrap(), 0);
    }

    #[test]
    fn bitwise_on_float_traps_not_panics() {
        let err = eval_bin(BinOp::And, Ty::F32, 1, 2).unwrap_err();
        assert!(matches!(err, TrapKind::IllegalOperandType { .. }));
        // Through the interpreter: a directly-constructed kernel (the
        // builder and assembler cannot emit this) must trap with a
        // precise location, not panic.
        let k = Kernel {
            name: "badop".into(),
            instrs: vec![
                Instr::Bin {
                    op: BinOp::Xor,
                    ty: Ty::F32,
                    dst: 0,
                    a: Operand::ImmF(1.0),
                    b: Operand::ImmF(2.0),
                },
                Instr::Exit,
            ],
            params: vec![],
            static_smem: 0,
            dynamic_smem: false,
            num_regs: 1,
            num_preds: 0,
            cfg_cache: Default::default(),
            uop_cache: Default::default(),
            jit_cache: Default::default(),
        };
        let mut mem = LinearMemory::new(0, "global");
        let err = run_kernel(&k, &arch(), LaunchDims::new(1, 32), &[], &mut mem, BlockSelection::All)
            .unwrap_err();
        match err {
            SimError::Trap { pc, warp, kind, .. } => {
                assert_eq!(pc, 0);
                assert_eq!(warp, 0);
                assert!(matches!(kind, TrapKind::IllegalOperandType { .. }));
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn cas_without_cmp_traps() {
        assert!(matches!(
            eval_atom(AtomOp::Cas, Ty::U32, 0, 1, None).unwrap_err(),
            TrapKind::CasWithoutCmp
        ));
        let k = Kernel {
            name: "badcas".into(),
            instrs: vec![
                Instr::Atom {
                    space: Space::Global,
                    scope: Scope::Gpu,
                    op: AtomOp::Cas,
                    ty: Ty::U32,
                    dst: None,
                    addr: Address::new(Operand::ImmI(0), 0),
                    src: Operand::ImmI(1),
                    cmp: None,
                },
                Instr::Exit,
            ],
            params: vec![],
            static_smem: 0,
            dynamic_smem: false,
            num_regs: 1,
            num_preds: 0,
            cfg_cache: Default::default(),
            uop_cache: Default::default(),
            jit_cache: Default::default(),
        };
        let mut mem = LinearMemory::new(64, "global");
        let err = run_kernel(&k, &arch(), LaunchDims::new(1, 1), &[], &mut mem, BlockSelection::All)
            .unwrap_err();
        assert!(matches!(err, SimError::Trap { kind: TrapKind::CasWithoutCmp, .. }), "{err:?}");
    }

    #[test]
    fn misaligned_access_traps() {
        // A 4-byte load from address 2.
        let mut b = KernelBuilder::new("mis");
        let inp = b.param_ptr();
        let v = b.reg();
        b.ld(Space::Global, Ty::U32, v, Address::new(Operand::Param(inp), 2));
        b.exit();
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(64, "global");
        let err = run_kernel(&k, &arch(), LaunchDims::new(1, 1), &[Arg::Ptr(0)], &mut mem, BlockSelection::All)
            .unwrap_err();
        match err {
            SimError::Trap { kind: TrapKind::Misaligned { space, addr, required }, .. } => {
                assert_eq!(space, "global");
                assert_eq!(addr, 2);
                assert_eq!(required, 4);
            }
            other => panic!("expected misaligned trap, got {other:?}"),
        }
    }

    #[test]
    fn barrier_deadlock_detected() {
        // Warp 0 reaches a barrier; warp 1 exits first: classic
        // barrier-divergence deadlock across warps.
        let mut b = KernelBuilder::new("dead");
        let p = b.pred();
        let skip = b.label();
        b.setp(CmpOp::Lt, Ty::U32, p, Operand::Sreg(Sreg::TidX), Operand::ImmI(32));
        b.bra_if(p, false, skip);
        b.bar();
        b.place(skip);
        b.exit();
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(0, "global");
        let err = run_kernel(&k, &arch(), LaunchDims::new(1, 64), &[], &mut mem, BlockSelection::All)
            .unwrap_err();
        match err {
            SimError::BarrierDeadlock { barrier_pc, waiting_warps, .. } => {
                assert_eq!(waiting_warps, vec![0]);
                // pc 0 = setp, pc 1 = bra, pc 2 = bar.
                assert_eq!(barrier_pc, 2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn uniform_barriers_still_release() {
        // Sanity check against false positives: both warps barrier
        // twice, then exit together.
        let mut b = KernelBuilder::new("ok");
        b.bar();
        b.bar();
        b.exit();
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(0, "global");
        run_kernel(&k, &arch(), LaunchDims::new(1, 64), &[], &mut mem, BlockSelection::All).unwrap();
    }

    #[test]
    fn timeout_reports_configured_budget() {
        // An infinite loop under a tiny explicit budget.
        let mut b = KernelBuilder::new("spin");
        let top = b.label();
        b.place(top);
        b.bra(top);
        let k = b.finish().unwrap();
        let mut mem = LinearMemory::new(0, "global");
        let err = run_kernel_cfg(
            &k,
            &arch(),
            LaunchDims::new(1, 32),
            &[],
            &mut mem,
            BlockSelection::All,
            ExecConfig::builder().instr_budget(1000).build(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::Timeout { kernel: "spin".into(), budget: 1000 });
    }

    #[test]
    fn fault_session_is_deterministic_and_logged() {
        use crate::fault::FaultPlan;
        // A kernel long enough for a high-rate plan to fire.
        let mut b = KernelBuilder::new("loopy");
        let outp = b.param_ptr();
        let i = b.reg();
        let a = b.reg();
        let p = b.pred();
        let top = b.label();
        let done = b.label();
        b.mov(Ty::U32, i, Operand::ImmI(0));
        b.place(top);
        b.setp(CmpOp::Ge, Ty::U32, p, Operand::Reg(i), Operand::ImmI(2000));
        b.bra_if(p, true, done);
        b.bin(BinOp::Add, Ty::U32, i, Operand::Reg(i), Operand::ImmI(1));
        b.bra(top);
        b.place(done);
        b.cvt(Ty::U32, Ty::U64, a, Operand::Sreg(Sreg::TidX));
        b.bin(BinOp::Mul, Ty::U64, a, Operand::Reg(a), Operand::ImmI(4));
        b.bin(BinOp::Add, Ty::U64, a, Operand::Reg(a), Operand::Param(outp));
        b.st(Space::Global, Ty::U32, i, Address::reg(a));
        b.exit();
        let k = b.finish().unwrap();

        let run = |seed: u64| {
            let mut mem = LinearMemory::new(4 * 32, "global");
            let mut session = FaultSession::new(&FaultPlan::seeded(seed, 2_000), false);
            run_kernel_cfg(
                &k,
                &arch(),
                LaunchDims::new(1, 32),
                &[Arg::Ptr(0)],
                &mut mem,
                BlockSelection::All,
                ExecConfig::builder().faults(&mut session).build(),
            )
            .unwrap();
            (session.take_log(), mem.read_bytes(0, 4 * 32).unwrap())
        };
        let (log_a, mem_a) = run(42);
        let (log_b, mem_b) = run(42);
        assert!(!log_a.is_empty(), "2000ppm over ~10k instrs should inject");
        assert_eq!(log_a, log_b, "same seed must inject identical faults");
        assert_eq!(mem_a, mem_b, "corrupted memory must be bit-identical");
        let (log_c, _) = run(43);
        assert_ne!(log_a, log_c, "different seed should differ");
    }
}
