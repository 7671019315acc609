//! Figure 4.1 — accuracy of the GPU performance estimation.
//!
//! For every partition produced by the proposed partitioner across the whole
//! benchmark suite, compare the PEE's predicted kernel time against the
//! "actual" time measured by the cycle-approximate kernel simulator, and
//! report the R² of the correlation (the paper reports R² = 0.972 over about
//! 350 partitions).

use sgmap_apps::App;
use sgmap_bench::{full_sweep_requested, sweep};
use sgmap_codegen::generate_kernel;
use sgmap_gpusim::{simulate_kernel, GpuSpec};
use sgmap_partition::PartitionRequest;
use sgmap_pee::calibrate::r_squared;
use sgmap_pee::Estimator;

fn main() {
    let full = full_sweep_requested();
    let gpu = GpuSpec::m2090();
    let mut predicted = Vec::new();
    let mut actual = Vec::new();

    println!("# Figure 4.1: estimated vs actual kernel runtime (us, per execution)");
    println!(
        "{:<12} {:>6} {:>12} {:>12}",
        "app", "N", "partitions", "samples"
    );
    for app in App::all() {
        for n in sweep(app, full) {
            let graph = app.build(n).expect("benchmark graph builds");
            let estimator = Estimator::new(&graph, gpu.clone())
                .expect("benchmark graphs have consistent rates");
            let partitioning = PartitionRequest::new(&estimator)
                .run()
                .expect("partitioning succeeds");
            for (idx, part) in partitioning.iter().enumerate() {
                let spec = generate_kernel(&estimator, part, &format!("{app}_{n}_{idx}"));
                let measurement = simulate_kernel(&spec, &gpu, (idx as u64) << 17 | u64::from(n));
                predicted.push(part.estimate.normalized_us);
                actual.push(measurement.time_us / f64::from(spec.params.w.max(1)));
            }
            println!(
                "{:<12} {:>6} {:>12} {:>12}",
                app.name(),
                n,
                partitioning.len(),
                predicted.len()
            );
        }
    }

    let r2 = r_squared(&predicted, &actual);
    println!();
    println!("estimated-vs-actual sample pairs: {}", predicted.len());
    println!("R^2 = {r2:.4}   (paper: 0.972 over ~350 partitions)");

    // A linear fit of actual on estimated, as printed on the paper's plot
    // (y = 0.9757 x + 0.9744).
    let (slope, intercept) = sgmap_pee::calibrate::fit_linear(&predicted, &actual);
    println!("actual = {slope:.4} * estimated + {intercept:.4}");

    // A few representative points for eyeballing the scatter.
    println!();
    println!("{:>14} {:>14}", "estimated(us)", "actual(us)");
    let mut order: Vec<usize> = (0..predicted.len()).collect();
    order.sort_by(|&a, &b| predicted[a].total_cmp(&predicted[b]));
    for &i in order.iter().step_by((order.len() / 12).max(1)) {
        println!("{:>14.3} {:>14.3}", predicted[i], actual[i]);
    }
}
