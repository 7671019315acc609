//! The job list of every workload, as a pure function of the seed.
//!
//! Each workload runs a fixed set of inputs in an order the seed shuffles
//! (`sweep_cached` repeats one fixed sweep).
//! The sets are fixed because the mapping-quality metrics are averaged over
//! them: on freshly drawn synthetic graphs the geometric mean of the
//! simulated time moves by about 10% from seed to seed, which would hide any
//! quality regression smaller than that.

use sgmap_apps::App;
use sgmap_gpusim::PlatformSpec;

/// A splitmix64 generator: small, seedable and stable across platforms.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix::new(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// GPU counts of the `paper_apps` grid.
pub const PAPER_GPU_COUNTS: [usize; 2] = [2, 4];

/// Paper-grid points left out of `paper_apps` (see the benchmark README).
/// DCT-26 and DCT-30 take about 7.5 s each for their 80 branch-and-bound
/// nodes, three quarters of the workload's time together. The other five
/// take 0.4 to 0.8 s each, together more than half of a pass over the
/// jobs: with them a run times each job only four or five times, too few
/// for its fastest time to settle on a shared host.
const PAPER_EXCLUDED: [(App, u32, usize); 7] = [
    (App::Dct, 18, 4),
    (App::Dct, 22, 4),
    (App::Dct, 26, 4),
    (App::Dct, 30, 4),
    (App::FmRadio, 24, 4),
    (App::FmRadio, 28, 4),
    (App::FmRadio, 32, 4),
];

/// `(app, N, GPU count)` of every `paper_apps` job, in run order.
pub fn paper_jobs(seed: u64) -> Vec<(App, u32, usize)> {
    let mut jobs = Vec::new();
    for app in App::all() {
        for n in app.paper_n_values() {
            for gpus in PAPER_GPU_COUNTS {
                if !PAPER_EXCLUDED.contains(&(app, n, gpus)) {
                    jobs.push((app, n, gpus));
                }
            }
        }
    }
    shuffle(&mut jobs, seed ^ 0x0070_6170_6572);
    jobs
}

/// The five `hier_mapping` platforms: the four of the `hier` sweep preset
/// plus an NVLink box with half the bandwidth and twice the latency.
pub fn hier_platforms() -> Vec<PlatformSpec> {
    vec![
        PlatformSpec::paper().named("M2090"),
        PlatformSpec::nvlink8_m2090(),
        PlatformSpec::cluster2x4_m2090(),
        PlatformSpec::mixed_m2090_c2070(),
        PlatformSpec::nvlink8_m2090()
            .with_link_scales(0.5, 2.0)
            .named("nvlink8_slow"),
    ]
}

/// How many of each app's quick N values `hier_mapping` uses. The third
/// values (DES-20, FMRadio-20, DCT-18, ...) would make one pass over the jobs
/// take about 9 s instead of about 2 s, so a run could time each job only two
/// or three times, too few for its fastest time to settle on a shared host.
pub const HIER_N_VALUES: usize = 2;

/// `(app, N)` of every graph `hier_mapping` partitions during set-up: each
/// app at its first [`HIER_N_VALUES`] quick N values.
pub fn hier_graphs() -> Vec<(App, u32)> {
    App::all()
        .into_iter()
        .flat_map(|app| {
            app.quick_n_values()
                .into_iter()
                .take(HIER_N_VALUES)
                .map(move |n| (app, n))
        })
        .collect()
}

/// `(graph index, platform index)` of every `hier_mapping` job, in run
/// order; indices refer to [`hier_graphs`] and [`hier_platforms`].
pub fn hier_jobs(seed: u64) -> Vec<(usize, usize)> {
    let platforms = hier_platforms().len();
    let mut jobs: Vec<(usize, usize)> = (0..hier_graphs().len())
        .flat_map(|g| (0..platforms).map(move |p| (g, p)))
        .collect();
    shuffle(&mut jobs, seed ^ 0x6869_6572);
    jobs
}

/// Number of synthetic graphs in `synth_multilevel`.
pub const SYNTH_GRAPHS: usize = 16;
/// Smallest and largest leaf-filter target of the synthetic graphs: large
/// enough that coarsening and refinement dominate each compile, small
/// enough that one pass over the set takes about 1.5 s, so a run times
/// every graph about twenty times. Its fastest time then rarely falls in a
/// burst of load from other tenants of the host.
pub const SYNTH_FILTERS: (f64, f64) = (400.0, 1_000.0);
/// Seed of the fixed pool the synthetic graphs are drawn from.
const SYNTH_POOL_SEED: u64 = 0x5347_4d41_5042_454e;

/// `(leaf filters, generator seed)` of every `synth_multilevel` graph, in
/// run order. Sizes are log-uniform within equal strata of
/// [`SYNTH_FILTERS`], so every pass covers the whole size range.
pub fn synth_jobs(seed: u64) -> Vec<(u32, u64)> {
    let mut pool = SplitMix::new(SYNTH_POOL_SEED);
    let (lo, hi) = SYNTH_FILTERS;
    let mut jobs: Vec<(u32, u64)> = (0..SYNTH_GRAPHS)
        .map(|i| {
            let position = (i as f64 + pool.unit()) / SYNTH_GRAPHS as f64;
            let n = (lo * (hi / lo).powf(position)).round() as u32;
            (n, pool.next_u64())
        })
        .collect();
    shuffle(&mut jobs, seed ^ 0x0073_796e_7468);
    jobs
}

/// Number of sweeps in one pass of `sweep_cached`. Each is a job of its
/// own, so a run samples every one several times and keeps its fastest
/// sample, as for the other workloads. Every sweep runs the quick preset as
/// shipped, whatever the seed: it is the researcher's sweep as it stands,
/// and its 16 compile groups would run in another order under another seed
/// without exercising anything new. Five sweeps take under 1 s, so a run
/// times each of them about thirty times.
pub const SWEEP_RUNS: usize = 5;

/// The label of a `paper_apps` job.
pub fn paper_label(app: App, n: u32, gpus: usize) -> String {
    format!("{app}-{n}@{gpus}gpu")
}

/// The label of a `synth_multilevel` job, also its graph's name.
pub fn synth_label(n: u32, graph_seed: u64) -> String {
    format!("pipe{n}#{graph_seed:016x}")
}

/// The labels of the `sweep_cached` jobs, the same for every seed.
pub fn sweep_labels() -> Vec<String> {
    (0..SWEEP_RUNS).map(|run| format!("quick#{run}")).collect()
}

/// Human-readable labels of a workload's jobs, in run order.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn job_labels(workload: &str, seed: u64) -> Vec<String> {
    match workload {
        "paper_apps" => paper_jobs(seed)
            .into_iter()
            .map(|(app, n, gpus)| paper_label(app, n, gpus))
            .collect(),
        "hier_mapping" => {
            let graphs = hier_graphs();
            let platforms = hier_platforms();
            hier_jobs(seed)
                .into_iter()
                .map(|(g, p)| {
                    let (app, n) = graphs[g];
                    format!("{app}-{n}@{}", platforms[p].name)
                })
                .collect()
        }
        "synth_multilevel" => synth_jobs(seed)
            .into_iter()
            .map(|(n, graph_seed)| synth_label(n, graph_seed))
            .collect(),
        "sweep_cached" => sweep_labels(),
        other => panic!("unknown workload {other:?}"),
    }
}
