//! Declarative sweep specifications and their expansion into work lists.

use std::fmt;

use sgmap_apps::App;
use sgmap_codegen::PlanOptions;
use sgmap_gpusim::{GpuSpec, PlatformSpec, TransferMode};
use sgmap_mapping::{MappingMethod, MappingOptions};
use sgmap_partition::{Algorithm, MultilevelOptions, PartitionerKind};

/// Errors produced while validating or expanding a [`SweepSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepError {
    /// An axis of the grid is empty, so the cartesian product is empty.
    EmptyAxis(&'static str),
    /// An axis contains a degenerate value (zero N, a platform that cannot
    /// be built, conflicting platform names, a GPU-count pin that matches
    /// no platform).
    InvalidAxisValue(String),
    /// No preset with the requested name exists.
    UnknownPreset(String),
    /// The persistent estimate-cache file could not be read, parsed or
    /// written.
    CacheIo(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptyAxis(axis) => write!(f, "sweep axis '{axis}' is empty"),
            SweepError::InvalidAxisValue(msg) => write!(f, "invalid axis value: {msg}"),
            SweepError::UnknownPreset(name) => write!(
                f,
                "unknown preset '{name}' (available: {})",
                SweepSpec::PRESETS.join(", ")
            ),
            SweepError::CacheIo(msg) => write!(f, "estimate-cache file: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// The GPU models a sweep can target (a serializable stand-in for
/// [`GpuSpec`] presets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuModel {
    /// The Tesla M2090 used by the paper's evaluation.
    M2090,
    /// The Tesla C2070 used by the prior work.
    C2070,
}

impl GpuModel {
    /// The full device specification.
    pub fn spec(&self) -> GpuSpec {
        match self {
            GpuModel::M2090 => GpuSpec::m2090(),
            GpuModel::C2070 => GpuSpec::c2070(),
        }
    }

    /// Short stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            GpuModel::M2090 => "M2090",
            GpuModel::C2070 => "C2070",
        }
    }
}

/// One application together with the `N` values to sweep for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSweep {
    /// The benchmark application.
    pub app: App,
    /// The size parameters to run, in sweep order.
    pub n_values: Vec<u32>,
}

impl AppSweep {
    /// Sweeps `app` over its reduced quick-N list.
    pub fn quick(app: App) -> Self {
        AppSweep {
            app,
            n_values: app.quick_n_values(),
        }
    }

    /// Sweeps `app` over the paper's full N list.
    pub fn paper(app: App) -> Self {
        AppSweep {
            app,
            n_values: app.paper_n_values(),
        }
    }

    /// Sweeps `app` over an explicit N list.
    pub fn explicit(app: App, n_values: Vec<u32>) -> Self {
        AppSweep { app, n_values }
    }
}

/// A correlated (partitioner, mapper, transfer-mode) triple — one "stack" of
/// the comparison, optionally pinned to a subset of the GPU-count axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackConfig {
    /// Stable label used in reports (e.g. `"ours"`).
    pub label: String,
    /// Which partitioner to run.
    pub partitioner: PartitionerKind,
    /// The proposed partitioner's algorithm (flat four-phase search or the
    /// multilevel scheme). Ignored by the baseline and SPSG partitioners.
    pub algorithm: Algorithm,
    /// Which mapper to run.
    pub mapper: MappingMethod,
    /// How inter-GPU transfers are routed.
    pub transfer_mode: TransferMode,
    /// When set, this stack only runs on these GPU counts (intersected with
    /// the spec's GPU-count axis); `None` means the whole axis. At least one
    /// count must match a platform (see [`SweepSpec::validate`]).
    pub gpu_counts: Option<Vec<usize>>,
}

impl StackConfig {
    /// The paper's stack: proposed partitioner, communication-aware ILP,
    /// peer-to-peer transfers.
    pub fn ours() -> Self {
        StackConfig {
            label: "ours".to_string(),
            partitioner: PartitionerKind::Proposed,
            algorithm: Algorithm::Flat,
            mapper: MappingMethod::Ilp,
            transfer_mode: TransferMode::PeerToPeer,
            gpu_counts: None,
        }
    }

    /// The scaling stack: the proposed partitioner running its multilevel
    /// algorithm (default options), communication-aware ILP, peer-to-peer
    /// transfers. This is the stack the `synthetic` preset runs.
    pub fn multilevel() -> Self {
        StackConfig {
            label: "ml".to_string(),
            partitioner: PartitionerKind::Proposed,
            algorithm: Algorithm::Multilevel(MultilevelOptions::default()),
            mapper: MappingMethod::Ilp,
            transfer_mode: TransferMode::PeerToPeer,
            gpu_counts: None,
        }
    }

    /// The prior work's stack: SM-only partitioner, round-robin mapping,
    /// transfers staged through the host.
    pub fn previous() -> Self {
        StackConfig {
            label: "previous".to_string(),
            partitioner: PartitionerKind::Baseline,
            algorithm: Algorithm::Flat,
            mapper: MappingMethod::RoundRobin,
            transfer_mode: TransferMode::ViaHost,
            gpu_counts: None,
        }
    }

    /// The single-partition single-GPU reference stack (pinned to 1 GPU).
    pub fn spsg() -> Self {
        StackConfig {
            label: "spsg".to_string(),
            partitioner: PartitionerKind::Single,
            algorithm: Algorithm::Flat,
            mapper: MappingMethod::Greedy,
            transfer_mode: TransferMode::PeerToPeer,
            gpu_counts: Some(vec![1]),
        }
    }

    /// The full cartesian product of the given partitioner, mapper and
    /// transfer-mode axes, labelled `partitioner/mapper/transfer`.
    pub fn cartesian(
        partitioners: &[PartitionerKind],
        mappers: &[MappingMethod],
        transfer_modes: &[TransferMode],
    ) -> Vec<Self> {
        let mut stacks = Vec::new();
        for &partitioner in partitioners {
            for &mapper in mappers {
                for &transfer_mode in transfer_modes {
                    stacks.push(StackConfig {
                        label: format!(
                            "{}/{}/{}",
                            partitioner_name(partitioner),
                            mapper_name(mapper),
                            transfer_name(transfer_mode)
                        ),
                        partitioner,
                        algorithm: Algorithm::Flat,
                        mapper,
                        transfer_mode,
                        gpu_counts: None,
                    });
                }
            }
        }
        stacks
    }
}

/// Stable lower-case name of a partitioner, as used in reports.
pub fn partitioner_name(kind: PartitionerKind) -> &'static str {
    match kind {
        PartitionerKind::Proposed => "proposed",
        PartitionerKind::Baseline => "baseline",
        PartitionerKind::Single => "single",
    }
}

/// Stable lower-case name of a mapper, as used in reports.
pub fn mapper_name(method: MappingMethod) -> &'static str {
    match method {
        MappingMethod::Ilp => "ilp",
        MappingMethod::Greedy => "greedy",
        MappingMethod::RoundRobin => "round-robin",
    }
}

/// Stable lower-case name of a transfer mode, as used in reports.
pub fn transfer_name(mode: TransferMode) -> &'static str {
    match mode {
        TransferMode::PeerToPeer => "p2p",
        TransferMode::ViaHost => "via-host",
    }
}

/// A declarative experiment grid: the cartesian product of applications ×
/// size parameters × platforms × stacks × enhancement flags (stacks may pin
/// their own GPU counts).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Name of the sweep, echoed in the report.
    pub name: String,
    /// The application axis, each with its own N values.
    pub apps: Vec<AppSweep>,
    /// The platform axis: named platform descriptions, swept in order.
    /// Reference-tree platforms that share a name (the [`SweepSpec::new`]
    /// expansion of a GPU model over several counts) report that name in the
    /// `gpu_model` record field and share compile groups.
    pub platforms: Vec<PlatformSpec>,
    /// The stack axis (correlated partitioner/mapper/transfer triples).
    pub stacks: Vec<StackConfig>,
    /// The Chapter-V enhancement axis.
    pub enhanced: Vec<bool>,
    /// ILP node budget shared by every point. The default is
    /// [`SweepSpec::deterministic_mapping_options`]; a node budget, unlike a
    /// clock, keeps results independent of machine load and worker-thread
    /// count.
    pub mapping_options: MappingOptions,
    /// Plan-generation options shared by every point.
    pub plan: PlanOptions,
    /// Optional path of a persistent estimate-cache file: loaded (if it
    /// exists) before the sweep runs and saved back afterwards, so repeated
    /// sweeps warm-start. `None` (the default) keeps the cache in memory
    /// only.
    pub cache_file: Option<String>,
    /// When `true`, a corrupt or version-mismatched cache file aborts the
    /// sweep. The default (`false`) downgrades it to a structured
    /// `cache.load_failed` warning and a cold start.
    pub strict_cache: bool,
    /// When set, records carry a mapping signature and the report gains a
    /// mapping-stability section comparing every other platform against the
    /// named baseline platform (see
    /// [`StabilityReport`](crate::StabilityReport)).
    pub stability_baseline: Option<String>,
    /// Work-list indices that panic when run: a deterministic fault hook
    /// for the robustness tests and CI gates. Each panic is caught and
    /// recorded as that point's error entry; every other point must stay
    /// byte-identical.
    pub panic_points: Vec<usize>,
}

/// One expanded grid point, ready to run.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Position in the deterministic work list (also the report order).
    pub index: usize,
    /// The application.
    pub app: App,
    /// The size parameter.
    pub n: u32,
    /// The target platform.
    pub platform: PlatformSpec,
    /// The stack to run.
    pub stack: StackConfig,
    /// Whether the Chapter-V enhancement is applied.
    pub enhanced: bool,
}

impl SweepSpec {
    /// Names accepted by [`SweepSpec::preset`], in display order.
    pub const PRESETS: [&'static str; 8] = [
        "quick",
        "scaling",
        "compare",
        "enhancement",
        "paper",
        "hier",
        "synthetic",
        "robustness",
    ];

    /// A sweep with the given name and axes, deterministic ILP budget and
    /// default plan options; the enhancement axis defaults to `[false]`.
    ///
    /// The GPU-model × GPU-count product expands into reference-tree
    /// platforms named after the model (model outer, count inner), so grids
    /// written against the old `(models, counts)` axes keep their record
    /// shape and work-list order.
    pub fn new(
        name: impl Into<String>,
        apps: Vec<AppSweep>,
        gpu_models: Vec<GpuModel>,
        gpu_counts: Vec<usize>,
        stacks: Vec<StackConfig>,
    ) -> Self {
        let mut platforms = Vec::with_capacity(gpu_models.len() * gpu_counts.len());
        for model in &gpu_models {
            for &count in &gpu_counts {
                platforms.push(PlatformSpec::reference(model.spec(), count).named(model.name()));
            }
        }
        Self::on_platforms(name, apps, platforms, stacks)
    }

    /// A sweep over an explicit platform axis (hierarchical and mixed-model
    /// platforms included), deterministic ILP budget and default plan
    /// options; the enhancement axis defaults to `[false]`.
    pub fn on_platforms(
        name: impl Into<String>,
        apps: Vec<AppSweep>,
        platforms: Vec<PlatformSpec>,
        stacks: Vec<StackConfig>,
    ) -> Self {
        SweepSpec {
            name: name.into(),
            apps,
            platforms,
            stacks,
            enhanced: vec![false],
            mapping_options: Self::deterministic_mapping_options(),
            plan: PlanOptions::default(),
            cache_file: None,
            strict_cache: false,
            stability_baseline: None,
            panic_points: Vec::new(),
        }
    }

    /// Attaches a persistent estimate-cache file: [`run_sweep`] loads it (if
    /// present) before running and saves the merged cache back afterwards.
    ///
    /// [`run_sweep`]: crate::run_sweep
    pub fn with_cache_file(mut self, path: impl Into<String>) -> Self {
        self.cache_file = Some(path.into());
        self
    }

    /// The sweep's node budget: 80 branch-and-bound nodes, against the 600
    /// of [`MappingOptions::default`], whose 1e-4 relative gap it keeps.
    /// Sweeps solve hundreds of warm-started instances and the greedy warm
    /// start already matches the ILP on most grid points; the
    /// figure-fidelity presets raise it to the historical 300 via
    /// [`SweepSpec::with_figure_fidelity_ilp_budget`]. Like every
    /// ILP budget it counts nodes, not time, so multi-threaded sweep reports
    /// are byte-identical to single-threaded ones.
    pub fn deterministic_mapping_options() -> MappingOptions {
        MappingOptions {
            max_nodes: 80,
            ..MappingOptions::default()
        }
    }

    /// Raises the ILP node budget to the 300 nodes the figure harness has
    /// always used, so the sweeps backing the paper's figures keep their
    /// historical mapping quality. On the `quick` preset it measured 2.2–2.4x the ILP
    /// solve time of the default budget: 127–129 ms for 1,228 nodes against
    /// 53–58 ms for 348, three single-threaded runs on a 2-vCPU Xeon VM.
    pub fn with_figure_fidelity_ilp_budget(mut self) -> Self {
        self.mapping_options.max_nodes = 300;
        self
    }

    /// Looks up a named preset.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::UnknownPreset`] for names not in
    /// [`SweepSpec::PRESETS`].
    pub fn preset(name: &str) -> Result<Self, SweepError> {
        match name {
            "quick" => Ok(Self::quick()),
            "scaling" => Ok(Self::scaling(false)),
            "compare" => Ok(Self::compare(false)),
            "enhancement" => Ok(Self::enhancement()),
            "paper" => Ok(Self::scaling(true).with_name("paper")),
            "hier" => Ok(Self::hier()),
            "synthetic" => Ok(Self::synthetic()),
            "robustness" => Ok(Self::robustness()),
            other => Err(SweepError::UnknownPreset(other.to_string())),
        }
    }

    /// A small smoke-test grid: all eight applications at their two smallest
    /// quick N values, 1/2/4 GPUs, the paper's stack (48 points).
    pub fn quick() -> Self {
        let apps = App::all()
            .into_iter()
            .map(|app| {
                let mut ns = app.quick_n_values();
                ns.truncate(2);
                AppSweep::explicit(app, ns)
            })
            .collect();
        SweepSpec::new(
            "quick",
            apps,
            vec![GpuModel::M2090],
            vec![1, 2, 4],
            vec![StackConfig::ours()],
        )
    }

    /// The Figure 4.2 grid: every application, quick (or paper, with `full`)
    /// N values, 1–4 GPUs, the paper's stack.
    pub fn scaling(full: bool) -> Self {
        let apps = App::all()
            .into_iter()
            .map(if full {
                AppSweep::paper
            } else {
                AppSweep::quick
            })
            .collect();
        SweepSpec::new(
            "scaling",
            apps,
            vec![GpuModel::M2090],
            vec![1, 2, 3, 4],
            vec![StackConfig::ours()],
        )
        .with_figure_fidelity_ilp_budget()
    }

    /// The Figure 4.3 grid: the prior work's five applications, ours vs
    /// previous on 1–4 GPUs, plus the 1-GPU SPSG reference.
    pub fn compare(full: bool) -> Self {
        let apps = App::figure_4_3_subset()
            .into_iter()
            .map(if full {
                AppSweep::paper
            } else {
                AppSweep::quick
            })
            .collect();
        SweepSpec::new(
            "compare",
            apps,
            vec![GpuModel::M2090],
            vec![1, 2, 3, 4],
            vec![
                StackConfig::ours(),
                StackConfig::previous(),
                StackConfig::spsg(),
            ],
        )
        .with_figure_fidelity_ilp_budget()
    }

    /// The Table 5.1 grid: FFT and Bitonic at their largest sizes, SPSG on
    /// one GPU, with and without the Chapter-V enhancement.
    pub fn enhancement() -> Self {
        let mut spec = SweepSpec::new(
            "enhancement",
            vec![
                AppSweep::explicit(App::Fft, vec![512, 256, 128]),
                AppSweep::explicit(App::Bitonic, vec![64, 32, 16]),
            ],
            vec![GpuModel::M2090],
            vec![1],
            vec![StackConfig::spsg()],
        );
        spec.enhanced = vec![false, true];
        spec
    }

    /// The hierarchical-platform smoke grid: FM-Radio and DES at N=8 on the
    /// paper's reference box, an 8-GPU NVLink-island box, a 2×4 two-node
    /// cluster and a mixed M2090/C2070 box, all under the paper's stack.
    /// This is the grid CI's hierarchical-platform gate runs.
    pub fn hier() -> Self {
        SweepSpec::on_platforms(
            "hier",
            vec![
                AppSweep::explicit(App::FmRadio, vec![8]),
                AppSweep::explicit(App::Des, vec![8]),
            ],
            vec![
                PlatformSpec::paper().named("M2090"),
                PlatformSpec::nvlink8_m2090(),
                PlatformSpec::cluster2x4_m2090(),
                PlatformSpec::mixed_m2090_c2070(),
            ],
            vec![StackConfig::ours()],
        )
    }

    /// The synthetic scaling grid: the three seeded synthetic families
    /// ([`App::synthetic`]) at 1k filters, 2 and 4 GPUs, under the multilevel
    /// stack. Deliberately separate from the paper presets so their golden
    /// reports never change; larger sizes run through the perf bench's
    /// `synthetic_scaling` target or an explicit `--spec` file.
    pub fn synthetic() -> Self {
        SweepSpec::new(
            "synthetic",
            App::synthetic()
                .into_iter()
                .map(|app| AppSweep::explicit(app, vec![1_000]))
                .collect(),
            vec![GpuModel::M2090],
            vec![2, 4],
            vec![StackConfig::multilevel()],
        )
    }

    /// The robustness grid: FM-Radio and DES at N=8 on the paper's reference
    /// box plus ±5/±10/±20 % perturbations of one model axis at a time —
    /// link bandwidth, link latency (via [`PlatformSpec::with_link_scales`])
    /// and device throughput (via [`GpuSpec::with_throughput_factor`]).
    /// Each point records its mapping signature and the report carries a
    /// [`StabilityReport`](crate::StabilityReport) comparing every perturbed
    /// mapping against the unperturbed `M2090` baseline.
    pub fn robustness() -> Self {
        let base_gpu = GpuSpec::m2090();
        let mut platforms = vec![PlatformSpec::paper().named("M2090")];
        for &pct in &[5i32, 10, 20] {
            for &sign in &[1i32, -1] {
                let scale = 1.0 + f64::from(sign * pct) / 100.0;
                platforms.push(
                    PlatformSpec::reference(base_gpu.clone(), 4)
                        .named(format!("M2090:bw{:+}%", sign * pct))
                        .with_link_scales(scale, 1.0),
                );
                platforms.push(
                    PlatformSpec::reference(base_gpu.clone(), 4)
                        .named(format!("M2090:lat{:+}%", sign * pct))
                        .with_link_scales(1.0, scale),
                );
                let tp = base_gpu.with_throughput_factor(scale, &format!("tp{:+}%", sign * pct));
                platforms.push(
                    PlatformSpec::reference(tp, 4).named(format!("M2090:tp{:+}%", sign * pct)),
                );
            }
        }
        let mut spec = SweepSpec::on_platforms(
            "robustness",
            vec![
                AppSweep::explicit(App::FmRadio, vec![8]),
                AppSweep::explicit(App::Des, vec![8]),
            ],
            platforms,
            vec![StackConfig::ours()],
        );
        spec.stability_baseline = Some("M2090".to_string());
        spec
    }

    /// Replaces the sweep's name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Makes a corrupt or version-mismatched estimate cache a hard error
    /// instead of a warn-and-cold-start.
    #[must_use]
    pub fn with_strict_cache(mut self, strict: bool) -> Self {
        self.strict_cache = strict;
        self
    }

    /// Injects a deterministic panic into the named point (by expanded point
    /// index) — a test/CI hook for exercising the sweep's failure isolation.
    #[must_use]
    pub fn with_injected_panic(mut self, point: usize) -> Self {
        self.panic_points.push(point);
        self
    }

    /// Validates the axes.
    ///
    /// # Errors
    ///
    /// Returns an error for empty axes and degenerate axis values (zero `N`,
    /// platforms that cannot be built, duplicate platform coordinates, one
    /// platform name used with different estimation devices, duplicate
    /// stack labels, a stack pinned to GPU counts no platform has).
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.apps.is_empty() {
            return Err(SweepError::EmptyAxis("apps"));
        }
        if self.platforms.is_empty() {
            return Err(SweepError::EmptyAxis("platforms"));
        }
        if self.stacks.is_empty() {
            return Err(SweepError::EmptyAxis("stacks"));
        }
        if self.enhanced.is_empty() {
            return Err(SweepError::EmptyAxis("enhanced"));
        }
        for sweep in &self.apps {
            if sweep.n_values.is_empty() {
                return Err(SweepError::InvalidAxisValue(format!(
                    "application {} has no N values",
                    sweep.app
                )));
            }
            if let Some(&n) = sweep.n_values.iter().find(|&&n| n == 0) {
                return Err(SweepError::InvalidAxisValue(format!(
                    "application {} has degenerate N value {n}",
                    sweep.app
                )));
            }
        }
        let mut seen: Vec<&PlatformSpec> = Vec::new();
        for platform in &self.platforms {
            if let Err(e) = platform.build() {
                return Err(SweepError::InvalidAxisValue(format!(
                    "platform '{}': {e}",
                    platform.name
                )));
            }
            for earlier in &seen {
                if earlier.name == platform.name {
                    if earlier.gpu_count() == platform.gpu_count() {
                        return Err(SweepError::InvalidAxisValue(format!(
                            "duplicate platform '{}' with {} GPUs",
                            platform.name,
                            platform.gpu_count()
                        )));
                    }
                    // Compile groups key on the estimation device; one name
                    // must not smuggle in two different ones.
                    if earlier.primary_gpu() != platform.primary_gpu() {
                        return Err(SweepError::InvalidAxisValue(format!(
                            "platform name '{}' is used with different estimation devices \
                             ('{}' and '{}')",
                            platform.name,
                            earlier.primary_gpu().name,
                            platform.primary_gpu().name
                        )));
                    }
                }
            }
            seen.push(platform);
        }
        let mut labels: Vec<&str> = Vec::new();
        for stack in &self.stacks {
            if let Some(counts) = &stack.gpu_counts {
                if counts.is_empty() {
                    return Err(SweepError::InvalidAxisValue(format!(
                        "stack '{}' is pinned to an empty GPU-count list",
                        stack.label
                    )));
                }
                // A pin that matches no platform would expand to no points.
                if !self
                    .platforms
                    .iter()
                    .any(|p| counts.contains(&p.gpu_count()))
                {
                    return Err(SweepError::InvalidAxisValue(format!(
                        "stack '{}' is pinned to GPU counts {counts:?}, \
                         which match no platform's GPU count",
                        stack.label
                    )));
                }
            }
            if labels.contains(&stack.label.as_str()) {
                return Err(SweepError::InvalidAxisValue(format!(
                    "duplicate stack label '{}'",
                    stack.label
                )));
            }
            labels.push(&stack.label);
        }
        Ok(())
    }

    /// Expands the grid into its deterministic work list. The order is fixed
    /// by the axis order (apps, then N, then platform, then stack, then
    /// enhancement) and is independent of how the points are later scheduled
    /// across worker threads.
    ///
    /// # Errors
    ///
    /// Returns an error if [`SweepSpec::validate`] fails.
    pub fn expand(&self) -> Result<Vec<SweepPoint>, SweepError> {
        self.validate()?;
        let mut points = Vec::new();
        for app_sweep in &self.apps {
            for &n in &app_sweep.n_values {
                for platform in &self.platforms {
                    for stack in &self.stacks {
                        if let Some(counts) = &stack.gpu_counts {
                            if !counts.contains(&platform.gpu_count()) {
                                continue;
                            }
                        }
                        for &enhanced in &self.enhanced {
                            points.push(SweepPoint {
                                index: points.len(),
                                app: app_sweep.app,
                                n,
                                platform: platform.clone(),
                                stack: stack.clone(),
                                enhanced,
                            });
                        }
                    }
                }
            }
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_preset_expands_to_a_stable_grid() {
        let points = SweepSpec::quick().expand().unwrap();
        assert_eq!(points.len(), 8 * 2 * 3);
        assert!(points.iter().enumerate().all(|(i, p)| p.index == i));
        // Expansion is deterministic.
        let again = SweepSpec::quick().expand().unwrap();
        assert_eq!(points.len(), again.len());
        assert!(points
            .iter()
            .zip(&again)
            .all(|(a, b)| (a.app, a.n, a.platform.gpu_count())
                == (b.app, b.n, b.platform.gpu_count())));
        // The reference expansion names every platform after the GPU model.
        assert!(points.iter().all(|p| p.platform.name == "M2090"));
    }

    #[test]
    fn degenerate_axis_values_are_rejected() {
        let apps = || vec![AppSweep::explicit(App::Des, vec![4])];
        let spec = SweepSpec::new(
            "t",
            apps(),
            vec![GpuModel::M2090],
            vec![1, 0],
            vec![StackConfig::ours()],
        );
        assert!(matches!(
            spec.expand(),
            Err(SweepError::InvalidAxisValue(_))
        ));
        let spec = SweepSpec::new(
            "t",
            apps(),
            vec![GpuModel::M2090],
            vec![5],
            vec![StackConfig::ours()],
        );
        assert!(spec.expand().is_err());
        let mut spec = SweepSpec::quick();
        spec.apps[0].n_values = vec![0];
        assert!(spec.expand().is_err());
        let mut spec = SweepSpec::quick();
        spec.stacks.clear();
        assert!(matches!(
            spec.expand(),
            Err(SweepError::EmptyAxis("stacks"))
        ));
        let mut spec = SweepSpec::quick();
        spec.stacks = vec![StackConfig::ours(), StackConfig::ours()];
        assert!(spec.expand().is_err());
        // Platform coordinates must be unambiguous: no duplicate
        // (name, count), no reused name with another estimation device.
        let mut spec = SweepSpec::quick();
        spec.platforms.push(spec.platforms[0].clone());
        assert!(spec.expand().is_err());
        let mut spec = SweepSpec::quick();
        spec.platforms
            .push(PlatformSpec::reference(GpuSpec::c2070(), 2).named("M2090"));
        assert!(spec.expand().is_err());
    }

    #[test]
    fn gpu_count_pins_that_match_no_platform_are_rejected() {
        let spec_pinned_to = |counts: Vec<usize>| {
            let mut stack = StackConfig::ours();
            stack.gpu_counts = Some(counts);
            SweepSpec::new(
                "t",
                vec![AppSweep::explicit(App::Des, vec![4])],
                vec![GpuModel::M2090],
                vec![4],
                vec![stack],
            )
        };
        for counts in [vec![0], vec![99]] {
            let err = spec_pinned_to(counts.clone()).validate().unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, SweepError::InvalidAxisValue(_))
                    && msg.contains("stack 'ours'")
                    && msg.contains(&format!("{counts:?}")),
                "{msg}"
            );
        }
        // One matching count is enough.
        assert_eq!(spec_pinned_to(vec![4, 99]).expand().unwrap().len(), 1);
    }

    #[test]
    fn stack_gpu_count_pins_narrow_the_grid() {
        let points = SweepSpec::compare(false).expand().unwrap();
        // SPSG only runs at 1 GPU; ours/previous run at 1-4.
        assert!(points
            .iter()
            .filter(|p| p.stack.label == "spsg")
            .all(|p| p.platform.gpu_count() == 1));
        assert!(points
            .iter()
            .any(|p| p.stack.label == "ours" && p.platform.gpu_count() == 4));
        assert!(points.iter().enumerate().all(|(i, p)| p.index == i));
    }

    #[test]
    fn every_preset_name_resolves() {
        for name in SweepSpec::PRESETS {
            let spec = SweepSpec::preset(name).unwrap();
            assert!(!spec.expand().unwrap().is_empty(), "{name}");
        }
        assert!(matches!(
            SweepSpec::preset("nope"),
            Err(SweepError::UnknownPreset(_))
        ));
    }
}
