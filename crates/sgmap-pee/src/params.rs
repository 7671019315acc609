//! Kernel parameter selection: choosing `W`, `S` and `F`.
//!
//! The paper stresses that all three parameters must be chosen
//! *simultaneously*: more executions (`W`) amortise the fixed costs but eat
//! shared memory; more compute threads per execution (`S`) only help filters
//! with firing rates above one; more data-transfer threads (`F`) speed up the
//! IO streaming but compete for the thread budget. The PEE performs the same
//! search the code generator performs, which is what keeps the "static
//! discrepancy" between estimation and generated code small.

use sgmap_gpusim::{GpuSpec, KernelParams};

use crate::chars::PartitionCharacteristics;
use crate::model::{latency_us, PerfModel};

/// The candidate values enumerated for each parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSearchSpace {
    /// Candidate compute-thread counts per execution.
    pub s_candidates: Vec<u32>,
    /// Candidate data-transfer thread counts.
    pub f_candidates: Vec<u32>,
    /// Upper bound on the number of executions per kernel.
    pub max_w: u32,
}

impl Default for ParamSearchSpace {
    fn default() -> Self {
        ParamSearchSpace {
            s_candidates: vec![1, 2, 4, 8, 16, 32],
            f_candidates: vec![16, 32, 64, 128, 256],
            max_w: 64,
        }
    }
}

/// Selects the kernel parameters minimising the normalised execution time
/// `T = Texec / W` under the shared-memory and thread-count constraints of
/// the device.
///
/// Returns `None` if even the smallest configuration does not fit in shared
/// memory (the partition violates the SM constraint and must not be formed).
///
/// The serial time is summed once per call and the latency term of
/// Equation III.9 once per S, so each (F, W) point costs O(1); every time
/// is bit-identical to [`PerfModel::normalized_us`] at the same point.
pub fn select_parameters(
    chars: &PartitionCharacteristics,
    model: &PerfModel,
    gpu: &GpuSpec,
    space: &ParamSearchSpace,
) -> Option<(KernelParams, f64)> {
    let shared_mem = u64::from(gpu.shared_mem_bytes);
    if chars.kernel_sm_bytes(1) > shared_mem {
        return None;
    }
    let serial_us = chars.serial_compute_us();
    let mut best: Option<(KernelParams, f64)> = None;
    for &s in &space.s_candidates {
        // S beyond the maximum firing rate wastes threads (min(f_i, S)).
        if u64::from(s) > chars.max_firing_rate.max(1) && s != 1 {
            continue;
        }
        let latency = latency_us(chars, s);
        for &f in &space.f_candidates {
            // Largest W that satisfies both the shared-memory and the
            // thread-count budgets.
            let mut w_max = space.max_w;
            if let Some(by_sm) = shared_mem
                .saturating_sub(chars.io_bytes_per_exec)
                .checked_div(chars.sm_bytes_per_exec)
            {
                w_max = w_max.min(by_sm.min(u64::from(u32::MAX)) as u32);
            }
            let by_threads = (gpu.max_threads_per_block.saturating_sub(f)) / s.max(1);
            w_max = w_max.min(by_threads);
            if w_max == 0 {
                continue;
            }
            // The normalised time is monotone enough that checking a handful
            // of W values (1, 2, 4, ..., w_max) finds the minimum; include
            // w_max itself.
            let powers = std::iter::successors(Some(1u32), |w| {
                let next = w * 2;
                (next < w_max).then_some(next)
            });
            for w in powers.chain(std::iter::once(w_max)) {
                let params = KernelParams { w, s, f };
                let t = model.normalized_from(chars, latency, serial_us, params);
                let better = match &best {
                    None => true,
                    Some((_, bt)) => t < *bt - 1e-12,
                };
                if better {
                    best = Some((params, t));
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_gpusim::GpuSpec;

    fn chars(serial_us: f64, firing: u64, io: u64, sm_per_exec: u64) -> PartitionCharacteristics {
        PartitionCharacteristics {
            filters: vec![(serial_us, firing)],
            io_bytes_per_exec: io,
            sm_bytes_per_exec: sm_per_exec,
            max_firing_rate: firing,
        }
    }

    #[test]
    fn oversized_partitions_are_rejected() {
        let gpu = GpuSpec::m2090();
        let c = chars(10.0, 1, 1024, 100_000); // > 48 KiB per execution
        assert!(
            select_parameters(&c, &PerfModel::for_gpu(&gpu), &gpu, &Default::default()).is_none()
        );
    }

    #[test]
    fn high_firing_rates_attract_more_compute_threads() {
        let gpu = GpuSpec::m2090();
        let model = PerfModel::for_gpu(&gpu);
        let sequential = chars(50.0, 1, 256, 2048);
        let parallel = chars(50.0, 32, 256, 2048);
        let (p_seq, _) = select_parameters(&sequential, &model, &gpu, &Default::default()).unwrap();
        let (p_par, t_par) =
            select_parameters(&parallel, &model, &gpu, &Default::default()).unwrap();
        assert_eq!(p_seq.s, 1, "a firing rate of 1 cannot use more threads");
        assert!(p_par.s > 1);
        let (_, t_seq) = select_parameters(&sequential, &model, &gpu, &Default::default()).unwrap();
        assert!(t_par < t_seq);
    }

    #[test]
    fn io_heavy_partitions_get_many_dt_threads() {
        let gpu = GpuSpec::m2090();
        let model = PerfModel::for_gpu(&gpu);
        let io_heavy = chars(1.0, 1, 16 * 1024, 20_000);
        let (p, _) = select_parameters(&io_heavy, &model, &gpu, &Default::default()).unwrap();
        assert!(p.f >= 128, "selected F = {}", p.f);
    }

    #[test]
    fn shared_memory_limits_w() {
        let gpu = GpuSpec::m2090();
        let model = PerfModel::for_gpu(&gpu);
        // 20 KiB per execution: at most 2 executions fit in 48 KiB.
        let big = chars(50.0, 1, 1024, 20 * 1024);
        let (p, _) = select_parameters(&big, &model, &gpu, &Default::default()).unwrap();
        assert!(p.w <= 2);
        // A small partition can use many executions.
        let small = chars(50.0, 1, 64, 512);
        let (p_small, _) = select_parameters(&small, &model, &gpu, &Default::default()).unwrap();
        assert!(p_small.w > p.w);
    }

    /// The search as first written: every (S, F, W) point priced from
    /// scratch by [`PerfModel::normalized_us`].
    fn brute_force(
        chars: &PartitionCharacteristics,
        model: &PerfModel,
        gpu: &GpuSpec,
        space: &ParamSearchSpace,
    ) -> Option<(KernelParams, f64)> {
        let shared_mem = u64::from(gpu.shared_mem_bytes);
        if chars.kernel_sm_bytes(1) > shared_mem {
            return None;
        }
        let mut best: Option<(KernelParams, f64)> = None;
        for &s in &space.s_candidates {
            if u64::from(s) > chars.max_firing_rate.max(1) && s != 1 {
                continue;
            }
            for &f in &space.f_candidates {
                let mut w_max = space.max_w;
                if let Some(by_sm) = shared_mem
                    .saturating_sub(chars.io_bytes_per_exec)
                    .checked_div(chars.sm_bytes_per_exec)
                {
                    w_max = w_max.min(by_sm.min(u64::from(u32::MAX)) as u32);
                }
                w_max = w_max.min((gpu.max_threads_per_block.saturating_sub(f)) / s.max(1));
                if w_max == 0 {
                    continue;
                }
                let mut ws: Vec<u32> =
                    std::iter::successors(Some(1u32), |w| (w * 2 < w_max).then_some(w * 2))
                        .collect();
                ws.push(w_max);
                for w in ws {
                    let params = KernelParams { w, s, f };
                    let t = model.normalized_us(chars, params);
                    if best.is_none_or(|(_, bt)| t < bt - 1e-12) {
                        best = Some((params, t));
                    }
                }
            }
        }
        best
    }

    #[test]
    fn hoisted_search_matches_the_brute_force_loop_bit_for_bit() {
        let gpu = GpuSpec::m2090();
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut found = 0;
        for case in 0..400u64 {
            let filters: Vec<(f64, u64)> = (0..1 + next() % 12)
                .map(|_| ((next() % 1_000_000) as f64 / 997.0, 1 + next() % 64))
                .collect();
            let c = PartitionCharacteristics {
                max_firing_rate: filters.iter().map(|&(_, f)| f).max().unwrap_or(1),
                filters,
                io_bytes_per_exec: next() % 40_000,
                // Every seventh case has no per-execution footprint, so W is
                // bounded by threads alone.
                sm_bytes_per_exec: if case % 7 == 0 { 0 } else { next() % 30_000 },
            };
            let space = ParamSearchSpace {
                max_w: [1, 7, 64, 200][(case % 4) as usize],
                ..Default::default()
            };
            let corrected = PerfModel::for_gpu(&gpu);
            for model in [corrected, corrected.without_throughput_correction()] {
                let hoisted = select_parameters(&c, &model, &gpu, &space);
                let reference = brute_force(&c, &model, &gpu, &space);
                assert_eq!(
                    hoisted.map(|(p, t)| (p, t.to_bits())),
                    reference.map(|(p, t)| (p, t.to_bits())),
                    "case {case}: {c:?}"
                );
                if let Some((p, t)) = hoisted {
                    assert_eq!(t.to_bits(), model.normalized_us(&c, p).to_bits());
                    found += 1;
                }
            }
        }
        assert!(found > 200, "too few feasible cases: {found}");
    }

    #[test]
    fn selection_respects_the_thread_budget() {
        let gpu = GpuSpec::m2090();
        let model = PerfModel::for_gpu(&gpu);
        let c = chars(10.0, 64, 512, 256);
        let (p, _) = select_parameters(&c, &model, &gpu, &Default::default()).unwrap();
        assert!(p.total_threads() <= gpu.max_threads_per_block);
    }
}
