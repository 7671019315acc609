//! Regression helpers, and the check that the model's constants match a
//! regression against the simulator.
//!
//! The paper fits `C1` and `C2` "empirically ... from a linear regression of
//! the profiled data" (Section 4.0.1). This reproduction derives them from
//! the simulated device instead ([`PerfModel::for_gpu`](crate::PerfModel::for_gpu)),
//! once per GPU. The tests of this module hold that derivation to the
//! paper's procedure: they run a set of probe kernels on the simulator,
//! record the observed data-transfer and buffer-swap times together with the
//! model's regressors (`D/F` and `D/(F + W·S)`), fit the slopes and compare
//! them with the analytic constants.
//!
//! [`fit_linear`] and [`r_squared`] are used by the Figure 4.1 harness to
//! report the accuracy of the full model.

/// Ordinary least-squares fit of `y = a * x + b`, returning `(a, b)`.
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean_x: f64 = xs.iter().sum::<f64>() / n;
    let mean_y: f64 = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
    if sxx <= f64::EPSILON {
        return (0.0, mean_y);
    }
    let sxy: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let a = sxy / sxx;
    (a, mean_y - a * mean_x)
}

/// Coefficient of determination between predictions and observations.
pub fn r_squared(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    if actual.is_empty() {
        return 1.0;
    }
    let mean: f64 = actual.iter().sum::<f64>() / actual.len() as f64;
    let ss_tot: f64 = actual.iter().map(|y| (y - mean).powi(2)).sum();
    let ss_res: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, y)| (y - p).powi(2))
        .sum();
    if ss_tot <= f64::EPSILON {
        return if ss_res <= f64::EPSILON { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PerfModel;
    use sgmap_gpusim::{simulate_kernel, GpuSpec, KernelFilter, KernelParams, KernelSpec};

    /// One calibration observation.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct CalibrationSample {
        /// Total IO bytes of the probe kernel (`D`).
        io_bytes: f64,
        /// Data-transfer threads (`F`).
        f: u32,
        /// Executions (`W`).
        w: u32,
        /// Compute threads per execution (`S`).
        s: u32,
        /// Observed data-transfer time, microseconds.
        measured_dt_us: f64,
        /// Observed buffer-swap time, microseconds.
        measured_db_us: f64,
    }

    /// Ordinary least-squares fit of `y = slope * x` (through the origin).
    ///
    /// Returns zero when the inputs are degenerate.
    fn fit_through_origin(xs: &[f64], ys: &[f64]) -> f64 {
        let sxx: f64 = xs.iter().map(|x| x * x).sum();
        if sxx <= f64::EPSILON {
            return 0.0;
        }
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
        sxy / sxx
    }

    /// Fits `C1` and `C2` from calibration samples and returns an updated
    /// model; degenerate samples leave `base` unchanged.
    fn fit_constants(base: PerfModel, samples: &[CalibrationSample]) -> PerfModel {
        let dt_x: Vec<f64> = samples
            .iter()
            .map(|s| s.io_bytes / f64::from(s.f.max(1)))
            .collect();
        let dt_y: Vec<f64> = samples.iter().map(|s| s.measured_dt_us).collect();
        let db_x: Vec<f64> = samples
            .iter()
            .map(|s| s.io_bytes / f64::from((s.f + s.w * s.s).max(1)))
            .collect();
        let db_y: Vec<f64> = samples.iter().map(|s| s.measured_db_us).collect();
        let c1 = fit_through_origin(&dt_x, &dt_y);
        let c2 = fit_through_origin(&db_x, &db_y);
        if c1 > 0.0 && c2 > 0.0 {
            PerfModel { c1, c2, ..base }
        } else {
            base
        }
    }

    /// Runs a sweep of synthetic probe kernels on the simulated device and
    /// fits the model constants from the observations — the reproduction
    /// of the paper's profiling-plus-regression step.
    fn calibrate_against_simulator(gpu: &GpuSpec) -> PerfModel {
        let mut samples = Vec::new();
        for &f in &[16u32, 32, 64, 128, 256] {
            for &io in &[1_024u64, 4_096, 16_384, 65_536] {
                for &w in &[1u32, 2, 4] {
                    let spec = KernelSpec {
                        name: format!("probe_f{f}_io{io}_w{w}"),
                        filters: vec![KernelFilter {
                            firing_time_us: 0.05,
                            firings: 1,
                        }],
                        io_bytes_per_exec: io,
                        sm_bytes_per_exec: 1024,
                        params: KernelParams { w, s: 1, f },
                    };
                    let m = simulate_kernel(&spec, gpu, u64::from(f) * 1_000 + io + u64::from(w));
                    samples.push(CalibrationSample {
                        io_bytes: spec.total_io_bytes() as f64,
                        f,
                        w,
                        s: 1,
                        measured_dt_us: m.data_transfer_us,
                        measured_db_us: m.buffer_swap_us,
                    });
                }
            }
        }
        fit_constants(PerfModel::for_gpu(gpu), &samples)
    }

    #[test]
    fn linear_fit_recovers_known_coefficients() {
        let xs: Vec<f64> = (1..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.5 * x + 2.0).collect();
        let (a, b) = fit_linear(&xs, &ys);
        assert!((a - 3.5).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        let slope = fit_through_origin(&xs, &xs.iter().map(|x| 2.0 * x).collect::<Vec<_>>());
        assert!((slope - 2.0).abs() < 1e-9);
    }

    #[test]
    fn r_squared_is_one_for_perfect_predictions() {
        let y = vec![1.0, 2.0, 5.0, 9.0];
        assert!((r_squared(&y, &y) - 1.0).abs() < 1e-12);
        let bad = vec![9.0, 5.0, 2.0, 1.0];
        assert!(r_squared(&bad, &y) < 0.5);
    }

    #[test]
    fn calibration_against_the_simulator_matches_the_analytic_constants() {
        let gpu = GpuSpec::m2090();
        let analytic = PerfModel::for_gpu(&gpu);
        let fitted = calibrate_against_simulator(&gpu);
        // The simulator's DT cost is the same latency model the analytic
        // constants are derived from (plus a bandwidth ceiling that the probe
        // kernels do not hit), so the fitted constants land close by.
        assert!(
            (fitted.c1 - analytic.c1).abs() / analytic.c1 < 0.25,
            "c1 fitted {} vs analytic {}",
            fitted.c1,
            analytic.c1
        );
        assert!(fitted.c2 > 0.0);
    }

    #[test]
    fn degenerate_samples_leave_the_model_unchanged() {
        let base = PerfModel::default();
        let fitted = fit_constants(base, &[]);
        assert_eq!(fitted.c1, base.c1);
        assert_eq!(fitted.c2, base.c2);
    }
}
