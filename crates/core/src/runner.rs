//! Executing synthesized versions on the simulated device.

use gpu_sim::exec::BlockSelection;
use gpu_sim::isa::Ty;
use gpu_sim::{Arg, Device, DevicePtr, LaunchDims, SimError, TimingOptions};
use tangram_codegen::{SynthesizedVersion, SynthesizedWorkload};
use tangram_passes::workload::WorkloadKind;

use crate::workload::{segment_map, WorkloadValue};

/// Run a synthesized reduction over `n` `f32` elements at `input`.
///
/// Allocates the output (and, for two-kernel versions, the partials
/// buffer), launches the kernel(s), and returns the reduced value.
/// With a sampling [`BlockSelection`] the returned *value* is not
/// meaningful (only some blocks execute) but the device clock and
/// launch statistics are — that mode exists for the figure harness at
/// the paper's largest array sizes.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_reduction(
    dev: &mut Device,
    sv: &SynthesizedVersion,
    input: DevicePtr,
    n: u64,
    selection: BlockSelection,
) -> Result<f32, SimError> {
    let plan = sv.plan(n);
    let dims = LaunchDims::new(plan.grid, plan.block).with_dynamic_smem(plan.dynamic_smem);
    // Two-kernel versions pay a second launch (see `Device::set_ceiling`).
    dev.plan_launches(if sv.version.grid.atomic { 1 } else { 2 });
    if sv.version.grid.atomic {
        let out = dev.alloc_f32(1)?;
        // The global accumulator starts at the operator's identity
        // (0 for sum, ±∞ for min/max).
        dev.write_scalar(Ty::F32, out, u64::from(sv.op.identity_f32().to_bits()))?;
        dev.launch(
            &sv.main,
            dims,
            &[input.arg(), out.arg(), Arg::U32(n as u32), Arg::U32(plan.tile)],
            selection,
            TimingOptions::default(),
        )?;
        Ok(f32::from_bits(dev.read_scalar(Ty::F32, out)? as u32))
    } else {
        let partials = dev.alloc_f32(u64::from(plan.grid))?;
        let out = dev.alloc_f32(1)?;
        dev.launch(
            &sv.main,
            dims,
            &[input.arg(), partials.arg(), Arg::U32(n as u32), Arg::U32(plan.tile)],
            selection,
            TimingOptions::default(),
        )?;
        let second = sv
            .second
            .as_ref()
            .expect("non-atomic versions carry a second kernel");
        dev.launch(
            second,
            LaunchDims::new(1, 256),
            &[partials.arg(), out.arg(), Arg::U32(plan.grid)],
            BlockSelection::All,
            TimingOptions::default(),
        )?;
        Ok(f32::from_bits(dev.read_scalar(Ty::F32, out)? as u32))
    }
}

/// Run a synthesized non-reduce workload over `n` `f32` elements at
/// `input`.
///
/// Allocates and initializes the output (a packed `u64` accumulator
/// for arg-reductions, a zeroed counter array for histograms),
/// launches the single workload kernel, and reads the result back as
/// a [`WorkloadValue`]. As with [`run_reduction`], a sampling
/// [`BlockSelection`] makes the returned *value* meaningless but
/// keeps the device clock meaningful.
///
/// # Errors
///
/// Propagates simulator errors; plain-reduction keys are rejected
/// (they run through [`run_reduction`]).
pub fn run_workload(
    dev: &mut Device,
    sw: &SynthesizedWorkload,
    input: DevicePtr,
    n: u64,
    selection: BlockSelection,
) -> Result<WorkloadValue, SimError> {
    let plan = sw.plan(n);
    let dims = LaunchDims::new(plan.grid, plan.block).with_dynamic_smem(plan.dynamic_smem);
    match sw.key.kind {
        WorkloadKind::Reduce(_) => Err(SimError::InvalidLaunch(
            "plain reductions run through run_reduction, not run_workload".into(),
        )),
        WorkloadKind::ArgMax | WorkloadKind::ArgMin => {
            dev.plan_launches(1);
            let out = dev.alloc(sw.out_bytes(n))?;
            let args = [input.arg(), out.arg(), Arg::U32(n as u32), Arg::U32(plan.tile)];
            // The packed-pair identity is 0: any valid candidate has a
            // complemented index, so even the worst key beats it.
            dev.write_scalar(Ty::U64, out, 0)?;
            dev.launch(&sw.kernel, dims, &args, selection, TimingOptions::default())?;
            Ok(WorkloadValue::Packed(dev.read_scalar(Ty::U64, out)?))
        }
        WorkloadKind::Histogram { .. } => {
            dev.plan_launches(1);
            let out = dev.alloc(sw.out_bytes(n))?;
            let args = [input.arg(), out.arg(), Arg::U32(n as u32), Arg::U32(plan.tile)];
            dev.memset_zero(out, sw.out_bytes(n))?;
            dev.launch(&sw.kernel, dims, &args, selection, TimingOptions::default())?;
            let bytes = dev.download_bytes(out, sw.out_bytes(n))?;
            Ok(WorkloadValue::Bins(words_of(&bytes)))
        }
        WorkloadKind::Scan { .. } => {
            // Three launches: per-tile scan, single-warp spine over
            // the block sums, offset apply.
            dev.plan_launches(3);
            let out_bytes = sw.out_bytes(n);
            let out = dev.alloc(out_bytes)?;
            let sums = dev.alloc(4 * u64::from(plan.grid))?;
            dev.memset_zero(sums, 4 * u64::from(plan.grid))?;
            let args =
                [input.arg(), out.arg(), Arg::U32(n as u32), Arg::U32(plan.tile), sums.arg()];
            dev.launch(&sw.kernel, dims, &args, selection, TimingOptions::default())?;
            dev.launch(
                &sw.aux[0],
                LaunchDims::new(1, 32),
                &[sums.arg(), Arg::U32(plan.grid)],
                BlockSelection::All,
                TimingOptions::default(),
            )?;
            dev.launch(&sw.aux[1], dims, &args, selection, TimingOptions::default())?;
            let bytes = dev.download_bytes(out, out_bytes)?;
            Ok(WorkloadValue::Buffer(words_of(&bytes)))
        }
        WorkloadKind::SegSum => {
            let ids = segment_map(n);
            run_segsum(dev, sw, input, n, &ids, selection)
        }
    }
}

/// Run a synthesized segmented sum with explicit segment ids
/// (`ids[i]` = segment of element `i`, sorted ascending; segment
/// count = `ids.last() + 1`). [`run_workload`] calls this with the
/// canonical descriptor expansion ([`segment_map`]); the conformance
/// suite drives it with custom descriptors (one segment,
/// all-segments-length-1, …).
///
/// # Errors
///
/// Propagates simulator errors; rejects non-segsum keys and
/// descriptors shorter than `n`.
pub fn run_segsum(
    dev: &mut Device,
    sw: &SynthesizedWorkload,
    input: DevicePtr,
    n: u64,
    ids: &[u32],
    selection: BlockSelection,
) -> Result<WorkloadValue, SimError> {
    if sw.key.kind != WorkloadKind::SegSum {
        return Err(SimError::InvalidLaunch("run_segsum needs a segsum workload".into()));
    }
    if (ids.len() as u64) < n {
        return Err(SimError::InvalidLaunch(format!(
            "segment descriptor covers {} of {n} elements",
            ids.len()
        )));
    }
    let plan = sw.plan(n);
    let dims = LaunchDims::new(plan.grid, plan.block).with_dynamic_smem(plan.dynamic_smem);
    let nsegs = ids.last().map_or(0, |&s| u64::from(s) + 1);
    let out_bytes = nsegs.max(1) * 4;
    let out = dev.alloc(out_bytes)?;
    dev.memset_zero(out, out_bytes)?;
    let segs = dev.alloc(4 * ids.len().max(1) as u64)?;
    let mut seg_bytes = Vec::with_capacity(ids.len() * 4);
    for &s in ids {
        seg_bytes.extend_from_slice(&s.to_le_bytes());
    }
    dev.upload_bytes(segs, &seg_bytes)?;
    let args = [
        input.arg(),
        out.arg(),
        Arg::U32(n as u32),
        Arg::U32(plan.tile),
        segs.arg(),
        Arg::U32(nsegs as u32),
    ];
    dev.plan_launches(1);
    dev.launch(&sw.kernel, dims, &args, selection, TimingOptions::default())?;
    let bytes = dev.download_bytes(out, nsegs * 4)?;
    Ok(WorkloadValue::Buffer(words_of(&bytes)))
}

/// Reinterpret little-endian bytes as 32-bit words.
fn words_of(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// Upload `data` to a fresh allocation on `dev`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn upload(dev: &mut Device, data: &[f32]) -> Result<DevicePtr, SimError> {
    let ptr = dev.alloc_f32(data.len() as u64)?;
    dev.upload_f32(ptr, data)?;
    Ok(ptr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::ArchConfig;
    use tangram_codegen::{synthesize, Tuning};
    use tangram_passes::planner;

    #[test]
    fn atomic_and_two_kernel_paths_agree() {
        let n = 8192u64;
        let data: Vec<f32> = (0..n).map(|i| ((i % 9) as f32) - 1.0).collect();
        let expect: f32 = data.iter().sum();
        let atomic = synthesize(planner::fig6_by_label('p').unwrap(), Tuning::default()).unwrap();
        let two = synthesize(
            planner::enumerate_original()[0],
            Tuning::default(),
        )
        .unwrap();
        for sv in [&atomic, &two] {
            let mut dev = Device::new(ArchConfig::pascal_p100());
            let input = upload(&mut dev, &data).unwrap();
            let got = run_reduction(&mut dev, sv, input, n, BlockSelection::All).unwrap();
            assert_eq!(got, expect, "{}", sv.id());
        }
    }

    #[test]
    fn clock_advances_per_kernel() {
        let sv = synthesize(planner::fig6_by_label('n').unwrap(), Tuning::default()).unwrap();
        let mut dev = Device::new(ArchConfig::kepler_k40c());
        let input = upload(&mut dev, &vec![1.0; 1024]).unwrap();
        dev.reset_clock();
        run_reduction(&mut dev, &sv, input, 1024, BlockSelection::All).unwrap();
        assert!(dev.elapsed_ns() >= dev.arch().launch_overhead_ns);
        assert_eq!(dev.launches().len(), 1, "atomic versions are single-kernel");
    }
}
