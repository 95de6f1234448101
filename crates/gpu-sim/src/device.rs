//! The device API: memory management, kernel launches and a modelled
//! wall clock — the simulator's equivalent of the CUDA runtime.

use crate::arch::ArchConfig;
use crate::error::SimError;
use crate::exec::{
    run_kernel_cfg, Arg, BlockSelection, ExecConfig, ExecMode, LaunchDims, DEFAULT_BUDGET,
};
use crate::fault::{FaultPlan, FaultSession, InjectedFault};
use crate::isa::Ty;
use crate::kernel::Kernel;
use crate::memory::LinearMemory;
use crate::profile::{LaunchProfile, Trace};
use crate::sanitize::{LaunchSanitizer, RaceReport};
use crate::stats::LaunchStats;
use crate::timing::{time_launch, Ceiling, LaunchTiming, TimingOptions};

/// A device memory allocation handle (byte address + length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevicePtr {
    /// Byte address in device global memory.
    pub addr: u64,
    /// Allocation length in bytes.
    pub len: u64,
}

impl DevicePtr {
    /// The address as a launch argument.
    pub fn arg(self) -> Arg {
        Arg::Ptr(self.addr)
    }

    /// A pointer displaced `bytes` into the allocation.
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr { addr: self.addr + bytes, len: self.len.saturating_sub(bytes) }
    }
}

/// Report for one launch: the gathered statistics and the modelled
/// timing.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: String,
    /// Execution statistics (scaled when sampled).
    pub stats: LaunchStats,
    /// Modelled timing breakdown.
    pub timing: LaunchTiming,
    /// Whether every block was executed functionally.
    pub exact: bool,
    /// Per-site profile, present when [`Device::set_profiling`] was
    /// enabled for this launch.
    pub profile: Option<LaunchProfile>,
    /// Race-detection verdict, present when
    /// [`Device::set_sanitizing`] was enabled for this launch.
    pub races: Option<RaceReport>,
}

/// A simulated GPU device.
///
/// # Examples
///
/// ```
/// use gpu_sim::{ArchConfig, Device};
///
/// let mut dev = Device::new(ArchConfig::pascal_p100());
/// let buf = dev.alloc_f32(1024).unwrap();
/// dev.upload_f32(buf, &vec![1.0; 1024]).unwrap();
/// let back = dev.download_f32(buf, 1024).unwrap();
/// assert_eq!(back[17], 1.0);
/// ```
#[derive(Debug)]
pub struct Device {
    arch: ArchConfig,
    global: LinearMemory,
    next_alloc: u64,
    elapsed_ns: f64,
    launches: Vec<LaunchReport>,
    instr_budget: u64,
    fault_plan: Option<FaultPlan>,
    fault_launch_index: u64,
    fault_log: Vec<InjectedFault>,
    exec_mode: ExecMode,
    profiling: bool,
    sanitizing: bool,
    trace: Trace,
    ceiling_ns: Option<f64>,
    launches_planned: u32,
}

const ALLOC_ALIGN: u64 = 256;

impl Device {
    /// Create a device with the given architecture.
    pub fn new(arch: ArchConfig) -> Self {
        Device {
            arch,
            global: LinearMemory::new(0, "global"),
            next_alloc: ALLOC_ALIGN, // keep address 0 unused (null)
            elapsed_ns: 0.0,
            launches: Vec::new(),
            instr_budget: DEFAULT_BUDGET,
            fault_plan: None,
            fault_launch_index: 0,
            fault_log: Vec::new(),
            exec_mode: ExecMode::default(),
            profiling: false,
            sanitizing: false,
            trace: Trace::new(),
            ceiling_ns: None,
            launches_planned: 0,
        }
    }

    /// The device's architecture.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Set the per-block dynamic instruction budget for subsequent
    /// launches (the runaway-loop guard reported by
    /// [`SimError::Timeout`]). Values are clamped to at least 1.
    pub fn set_instr_budget(&mut self, budget: u64) {
        self.instr_budget = budget.max(1);
    }

    /// The configured per-block instruction budget.
    pub fn instr_budget(&self) -> u64 {
        self.instr_budget
    }

    /// Select the interpreter hot path for subsequent launches
    /// (default [`ExecMode::Predecoded`]; [`ExecMode::Reference`] is
    /// the lane-wise path kept for differential testing, and
    /// [`ExecMode::Compiled`] the closure-threaded fast tier).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The configured interpreter hot path.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Enable or disable profiling for subsequent launches. When on,
    /// every launch gathers a per-site [`LaunchProfile`] (stored on
    /// its [`LaunchReport`]) and appends launch/block/warp events to
    /// the device [`Trace`]. Off by default: the interpreters stay on
    /// their zero-cost paths and results/stats/timing are
    /// bit-identical either way.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Whether profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Enable or disable race checking for subsequent launches. When
    /// on, every launch runs the happens-before sanitizer (see
    /// [`crate::sanitize`]) and stores its [`RaceReport`] on the
    /// [`LaunchReport`]. Off by default: like profiling, the sanitizer
    /// is purely observational and results/stats/timing are
    /// bit-identical either way.
    pub fn set_sanitizing(&mut self, on: bool) {
        self.sanitizing = on;
    }

    /// Whether race checking is enabled.
    pub fn sanitizing(&self) -> bool {
        self.sanitizing
    }

    /// Bound subsequent launches by `limit_ns` (`None` lifts the
    /// bound). A bounded launch is abandoned with
    /// [`SimError::CeilingExceeded`] as soon as the clock, plus a proven
    /// lower bound on the launch's own time, plus the launch overhead of
    /// every launch still planned ([`Device::plan_launches`]), strictly
    /// exceeds the limit — so only measurements that would have ended
    /// above `limit_ns` are abandoned. Launches with profiling,
    /// sanitizing, a fault plan or non-default [`TimingOptions`]
    /// attached are never bounded.
    pub fn set_ceiling(&mut self, limit_ns: Option<f64>) {
        self.ceiling_ns = limit_ns;
    }

    /// Declare that the current measurement makes `launches` more
    /// launches, the next one included; each launch counts one down.
    /// Only bounded launches read the count, and it must not overstate
    /// the launches that follow.
    pub fn plan_launches(&mut self, launches: u32) {
        self.launches_planned = launches;
    }

    /// The scheduler trace accumulated by profiled launches.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Drain the accumulated scheduler trace.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Install (or clear) a fault-injection plan. Each subsequent
    /// launch derives its own sub-plan from the plan seed and a
    /// per-device launch counter, so a fixed plan on a fresh device
    /// replays bit-for-bit. Installing a plan resets that counter.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
        self.fault_launch_index = 0;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// Faults injected since the last [`Device::take_fault_log`], in
    /// injection order across launches.
    pub fn fault_log(&self) -> &[InjectedFault] {
        &self.fault_log
    }

    /// Drain the accumulated fault log.
    pub fn take_fault_log(&mut self) -> Vec<InjectedFault> {
        std::mem::take(&mut self.fault_log)
    }

    /// Allocate `bytes` of global memory (256-byte aligned). Fresh
    /// arena bytes are zeroed; space reclaimed with [`Device::free_to`]
    /// is handed out again with its previous contents, like a real
    /// `cudaMalloc` pool.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (host memory is the limit),
    /// but returns `Result` to keep the CUDA-like contract.
    pub fn alloc(&mut self, bytes: u64) -> Result<DevicePtr, SimError> {
        let addr = (self.next_alloc + ALLOC_ALIGN - 1) & !(ALLOC_ALIGN - 1);
        self.next_alloc = addr + bytes;
        self.global.grow(self.next_alloc);
        Ok(DevicePtr { addr, len: bytes })
    }

    /// Current watermark of the bump allocator; pass it to
    /// [`Device::free_to`] to release every allocation made after this
    /// point.
    pub fn alloc_mark(&self) -> u64 {
        self.next_alloc
    }

    /// Roll the bump allocator back to an earlier [`Device::alloc_mark`],
    /// releasing every allocation made since. The arena keeps its
    /// capacity, so subsequent allocations reuse the space instead of
    /// growing (and re-zeroing) it — a measurement context releases its
    /// per-run scratch buffers this way, which at sweep scale would
    /// otherwise grow the arena by the whole partials footprint per
    /// job. Reused bytes keep their previous contents (see
    /// [`Device::alloc`]); callers that need zeroed scratch after a
    /// rollback must clear it themselves.
    pub fn free_to(&mut self, mark: u64) {
        self.next_alloc = mark.min(self.next_alloc);
    }

    /// Allocate space for `n` `f32` elements.
    pub fn alloc_f32(&mut self, n: u64) -> Result<DevicePtr, SimError> {
        self.alloc(n * 4)
    }

    /// Copy `data` to the device.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryFault`] if the allocation is too small.
    pub fn upload_f32(&mut self, ptr: DevicePtr, data: &[f32]) -> Result<(), SimError> {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.global.write_bytes(ptr.addr, &bytes)
    }

    /// Copy raw bytes to the device.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryFault`] if the allocation is too small.
    pub fn upload_bytes(&mut self, ptr: DevicePtr, data: &[u8]) -> Result<(), SimError> {
        self.global.write_bytes(ptr.addr, data)
    }

    /// Copy `len` raw bytes back from the device.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryFault`] if the range is out of bounds.
    pub fn download_bytes(&self, ptr: DevicePtr, len: u64) -> Result<Vec<u8>, SimError> {
        self.global.read_bytes(ptr.addr, len)
    }

    /// Copy `n` `f32` elements back from the device.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryFault`] if the range is out of bounds.
    pub fn download_f32(&self, ptr: DevicePtr, n: u64) -> Result<Vec<f32>, SimError> {
        let bytes = self.global.read_bytes(ptr.addr, n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read one scalar of type `ty` from the device.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryFault`] if the address is out of bounds.
    pub fn read_scalar(&self, ty: Ty, ptr: DevicePtr) -> Result<u64, SimError> {
        self.global.read(ty, ptr.addr)
    }

    /// Write one scalar of type `ty` (raw register image) to the
    /// device.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryFault`] if the address is out of bounds.
    pub fn write_scalar(&mut self, ty: Ty, ptr: DevicePtr, raw: u64) -> Result<(), SimError> {
        self.global.write(ty, ptr.addr, raw)
    }

    /// Zero `bytes` at `ptr` (like `cudaMemset`).
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryFault`] if the range is out of bounds.
    pub fn memset_zero(&mut self, ptr: DevicePtr, bytes: u64) -> Result<(), SimError> {
        self.global.write_bytes(ptr.addr, &vec![0u8; bytes as usize])
    }

    /// Launch a kernel, execute it functionally, and advance the
    /// modelled clock.
    ///
    /// # Errors
    ///
    /// Propagates validation and execution errors from the
    /// interpreter.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        dims: LaunchDims,
        args: &[Arg],
        selection: BlockSelection,
        opts: TimingOptions,
    ) -> Result<&LaunchReport, SimError> {
        let mut session = match &self.fault_plan {
            Some(plan) if !plan.is_empty() => FaultSession::new(
                &plan.derive(self.fault_launch_index),
                self.arch.shared_atomic.is_software(),
            ),
            _ => FaultSession::disabled(),
        };
        self.fault_launch_index += 1;
        let launches_after = self.launches_planned.saturating_sub(1);
        self.launches_planned = launches_after;
        // The bound prices a launch under the default options only.
        let ceiling = self.ceiling_ns.filter(|_| opts == TimingOptions::default()).map(|limit_ns| {
            Ceiling { limit_ns, base_ns: self.elapsed_ns, launches_after }
        });
        let mut profile = self.profiling.then(|| LaunchProfile::for_kernel(kernel));
        let mut sanitizer = self.sanitizing.then(|| LaunchSanitizer::for_kernel(kernel));
        let mut cfg = ExecConfig::builder()
            .exec_mode(self.exec_mode)
            .instr_budget(self.instr_budget)
            .faults(&mut session)
            .ceiling(ceiling);
        if let Some(p) = profile.as_mut() {
            cfg = cfg.profile(p);
        }
        if let Some(s) = sanitizer.as_mut() {
            cfg = cfg.sanitize(s);
        }
        let outcome = run_kernel_cfg(
            kernel,
            &self.arch,
            dims,
            args,
            &mut self.global,
            selection,
            cfg.build(),
        );
        // Keep the injection record even when the launch errored — a
        // trap caused by an injected fault must stay attributable.
        self.fault_log.extend(session.take_log());
        let outcome = outcome?;
        let timing = time_launch(&self.arch, kernel, dims, &outcome.stats, opts);
        if self.profiling {
            self.trace.push_launch(
                &kernel.name,
                self.elapsed_ns,
                timing.time_ns,
                crate::profile::LaunchShape {
                    blocks: outcome.stats.blocks,
                    warps_per_block: outcome.stats.warps_per_block,
                    sm_count: self.arch.sm_count,
                },
                profile.as_ref(),
            );
        }
        self.elapsed_ns += timing.time_ns;
        self.launches.push(LaunchReport {
            kernel: kernel.name.clone(),
            stats: outcome.stats,
            timing,
            exact: outcome.exact,
            profile,
            races: sanitizer.map(LaunchSanitizer::into_report),
        });
        Ok(self.launches.last().unwrap())
    }

    /// Launch with exact (all-blocks) execution and default options.
    ///
    /// # Errors
    ///
    /// See [`Device::launch`].
    pub fn launch_simple(
        &mut self,
        kernel: &Kernel,
        dims: LaunchDims,
        args: &[Arg],
    ) -> Result<&LaunchReport, SimError> {
        self.launch(kernel, dims, args, BlockSelection::All, TimingOptions::default())
    }

    /// Add host-side time to the modelled clock (e.g. a baseline's
    /// temp-storage allocation or a device synchronization).
    pub fn host_overhead(&mut self, ns: f64) {
        self.elapsed_ns += ns;
    }

    /// Modelled time elapsed since creation or the last
    /// [`Device::reset_clock`].
    pub fn elapsed_ns(&self) -> f64 {
        self.elapsed_ns
    }

    /// Reset the modelled clock (the launch log is kept). The
    /// scheduler trace is anchored to the clock, so it restarts too.
    pub fn reset_clock(&mut self) {
        self.elapsed_ns = 0.0;
        self.trace.events.clear();
    }

    /// Reports for every launch so far, in order.
    pub fn launches(&self) -> &[LaunchReport] {
        &self.launches
    }

    /// Clear the launch log.
    pub fn clear_launches(&mut self) {
        self.launches.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Address, AtomOp, BinOp, Operand, Scope, Space, Sreg};
    use crate::kernel::KernelBuilder;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut d = Device::new(ArchConfig::kepler_k40c());
        let a = d.alloc(100).unwrap();
        let b = d.alloc(100).unwrap();
        assert_eq!(a.addr % ALLOC_ALIGN, 0);
        assert_eq!(b.addr % ALLOC_ALIGN, 0);
        assert!(b.addr >= a.addr + 100);
    }

    #[test]
    fn upload_download_round_trip() {
        let mut d = Device::new(ArchConfig::maxwell_gtx980());
        let p = d.alloc_f32(8).unwrap();
        let data = [0.5f32, -1.0, 2.0, 3.5, 0.0, 9.25, -7.5, 1e-3];
        d.upload_f32(p, &data).unwrap();
        assert_eq!(d.download_f32(p, 8).unwrap(), data);
    }

    #[test]
    fn launch_advances_clock_and_logs() {
        let mut d = Device::new(ArchConfig::pascal_p100());
        let out = d.alloc_f32(1).unwrap();
        let mut b = KernelBuilder::new("one");
        let pp = b.param_ptr();
        let r = b.reg();
        b.mov(Ty::F32, r, Operand::ImmF(1.0));
        b.red(
            Space::Global,
            Scope::Gpu,
            AtomOp::Add,
            Ty::F32,
            Address::new(Operand::Param(pp), 0),
            Operand::Reg(r),
        );
        b.exit();
        let k = b.finish().unwrap();
        let t0 = d.elapsed_ns();
        d.launch_simple(&k, LaunchDims::new(2, 32), &[out.arg()]).unwrap();
        assert!(d.elapsed_ns() > t0);
        assert_eq!(d.launches().len(), 1);
        let total = f32::from_bits(d.read_scalar(Ty::F32, out).unwrap() as u32);
        assert_eq!(total, 64.0);
    }

    #[test]
    fn host_overhead_and_reset() {
        let mut d = Device::new(ArchConfig::kepler_k40c());
        d.host_overhead(123.0);
        assert_eq!(d.elapsed_ns(), 123.0);
        d.reset_clock();
        assert_eq!(d.elapsed_ns(), 0.0);
    }

    #[test]
    fn offset_pointer() {
        let p = DevicePtr { addr: 256, len: 64 };
        let q = p.offset(16);
        assert_eq!(q.addr, 272);
        assert_eq!(q.len, 48);
    }

    #[test]
    fn elementwise_sum_kernel_matches_host() {
        // out = a + b, then check values: exercises Device end-to-end.
        let mut d = Device::new(ArchConfig::maxwell_gtx980());
        let n = 256u64;
        let a = d.alloc_f32(n).unwrap();
        let bb = d.alloc_f32(n).unwrap();
        let o = d.alloc_f32(n).unwrap();
        let av: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let bv: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        d.upload_f32(a, &av).unwrap();
        d.upload_f32(bb, &bv).unwrap();

        let mut kb = KernelBuilder::new("vadd");
        let pa = kb.param_ptr();
        let pb = kb.param_ptr();
        let po = kb.param_ptr();
        let g = kb.reg();
        let ad = kb.reg();
        let x = kb.reg();
        let y = kb.reg();
        kb.mad(Ty::U32, g, Operand::Sreg(Sreg::CtaIdX), Operand::Sreg(Sreg::NtidX), Operand::Sreg(Sreg::TidX));
        kb.cvt(Ty::U32, Ty::U64, ad, Operand::Reg(g));
        kb.bin(BinOp::Mul, Ty::U64, ad, Operand::Reg(ad), Operand::ImmI(4));
        let a1 = kb.reg();
        kb.bin(BinOp::Add, Ty::U64, a1, Operand::Reg(ad), Operand::Param(pa));
        kb.ld(Space::Global, Ty::F32, x, Address::reg(a1));
        kb.bin(BinOp::Add, Ty::U64, a1, Operand::Reg(ad), Operand::Param(pb));
        kb.ld(Space::Global, Ty::F32, y, Address::reg(a1));
        kb.bin(BinOp::Add, Ty::F32, x, Operand::Reg(x), Operand::Reg(y));
        kb.bin(BinOp::Add, Ty::U64, a1, Operand::Reg(ad), Operand::Param(po));
        kb.st(Space::Global, Ty::F32, x, Address::reg(a1));
        kb.exit();
        let k = kb.finish().unwrap();
        d.launch_simple(&k, LaunchDims::new(4, 64), &[a.arg(), bb.arg(), o.arg()]).unwrap();
        let out = d.download_f32(o, n).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 3.0 * i as f32);
        }
    }
}
