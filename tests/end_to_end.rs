//! Integration tests spanning the whole workspace: benchmark graphs flow
//! through profiling, partitioning, ILP mapping, code generation and the
//! platform simulator, and the headline qualitative results of the paper
//! hold on the simulated platform.

use sgmap::sweep::SweepSpec;
use sgmap::{compile, compile_and_run, execute, Algorithm, FlowConfig};
use sgmap_apps::App;
use sgmap_gpusim::{GpuSpec, PlatformSpec, TransferMode};
use sgmap_mapping::MappingMethod;
use sgmap_partition::PartitionerKind;

/// The prior work's full stack: SM-only partitioner, hardware-agnostic
/// round-robin mapping, transfers staged through the host.
fn previous_work() -> FlowConfig {
    FlowConfig::new()
        .with_partitioner(PartitionerKind::Baseline)
        .with_mapper(MappingMethod::RoundRobin)
        .with_transfer_mode(TransferMode::ViaHost)
}

/// The single-partition single-GPU (SPSG) reference of the SOSP metric.
fn spsg() -> FlowConfig {
    FlowConfig::new()
        .with_partitioner(PartitionerKind::Single)
        .with_gpu_count(1)
}

#[test]
fn every_app_compiles_and_runs_on_one_and_four_gpus() {
    for app in App::all() {
        let n = app.quick_n_values()[1];
        let graph = app.build(n).unwrap();
        for gpus in [1usize, 4] {
            let config = FlowConfig::default().with_gpu_count(gpus);
            let compiled =
                compile(&graph, &config).unwrap_or_else(|e| panic!("{app} N={n} G={gpus}: {e}"));
            compiled
                .partitioning
                .validate_cover(&graph)
                .unwrap_or_else(|e| panic!("{app} N={n}: bad cover: {e}"));
            assert!(
                compiled.mapping.assignment.iter().all(|&a| a < gpus),
                "{app}: invalid GPU index"
            );
            let report = execute(&compiled, &config);
            assert!(report.time_per_iteration_us > 0.0, "{app} G={gpus}");
        }
    }
}

#[test]
fn four_gpus_speed_up_large_compute_bound_apps() {
    // The core scalability claim (Figure 4.2): for large, compute-bound
    // graphs, the 4-GPU mapping clearly beats the 1-GPU multi-partition
    // mapping.
    for (app, n) in [(App::Des, 20), (App::Dct, 18)] {
        let graph = app.build(n).unwrap();
        let one = compile_and_run(&graph, &FlowConfig::default().with_gpu_count(1)).unwrap();
        let four = compile_and_run(&graph, &FlowConfig::default().with_gpu_count(4)).unwrap();
        let speedup = one.time_per_iteration_us / four.time_per_iteration_us;
        assert!(
            speedup > 1.5,
            "{app} N={n}: expected >1.5x speedup on 4 GPUs, got {speedup:.2}"
        );
    }
}

#[test]
fn small_workloads_do_not_benefit_from_many_gpus() {
    // The other half of Figure 4.2: when N is small the communication cost
    // eats the benefit, and the mapping gracefully stays close to the 1-GPU
    // throughput instead of collapsing.
    let graph = App::Bitonic.build(2).unwrap();
    let one = compile_and_run(&graph, &FlowConfig::default().with_gpu_count(1)).unwrap();
    let four = compile_and_run(&graph, &FlowConfig::default().with_gpu_count(4)).unwrap();
    let speedup = one.time_per_iteration_us / four.time_per_iteration_us;
    assert!(speedup < 2.0, "tiny bitonic should not scale: {speedup:.2}");
    assert!(
        four.time_per_iteration_us <= one.time_per_iteration_us * 1.6,
        "communication-aware mapping must not fall off a cliff"
    );
}

#[test]
fn sosp_of_our_stack_beats_the_previous_work_for_compute_bound_apps() {
    // Figure 4.3, qualitatively: measured as speedup over the same SPSG
    // reference, our partitioning + ILP mapping outperforms the prior-work
    // stack on compute-bound applications.
    let graph = App::Des.build(16).unwrap();
    let spsg = compile_and_run(&graph, &spsg()).unwrap();
    let ours = compile_and_run(&graph, &FlowConfig::default().with_gpu_count(4)).unwrap();
    let prev = compile_and_run(&graph, &previous_work().with_gpu_count(4)).unwrap();
    let sosp_ours = spsg.time_per_iteration_us / ours.time_per_iteration_us;
    let sosp_prev = spsg.time_per_iteration_us / prev.time_per_iteration_us;
    assert!(
        sosp_ours > sosp_prev,
        "ours {sosp_ours:.2} should beat previous {sosp_prev:.2}"
    );
    assert!(
        sosp_ours > 1.5,
        "ours should clearly beat SPSG: {sosp_ours:.2}"
    );
}

#[test]
fn proposed_partitioner_produces_at_least_as_many_partitions_as_baseline() {
    // Section 4.0.3's "kernel count ratio" observation.
    for (app, n) in [(App::Des, 12), (App::FmRadio, 12), (App::Bitonic, 16)] {
        let graph = app.build(n).unwrap();
        let ours = compile(&graph, &FlowConfig::default()).unwrap();
        let base = compile(
            &graph,
            &FlowConfig::default().with_partitioner(PartitionerKind::Baseline),
        )
        .unwrap();
        assert!(
            ours.partition_count() >= base.partition_count(),
            "{app}: {} < {}",
            ours.partition_count(),
            base.partition_count()
        );
    }
}

#[test]
fn peer_to_peer_transfers_beat_host_staging_for_chatty_mappings() {
    // Section 3.2.3: peer-to-peer communication is more efficient than
    // routing every transfer through the CPU.
    let graph = App::Fft.build(256).unwrap();
    let p2p = compile_and_run(
        &graph,
        &FlowConfig::default()
            .with_gpu_count(4)
            .with_mapper(MappingMethod::RoundRobin),
    )
    .unwrap();
    let via_host = compile_and_run(
        &graph,
        &FlowConfig::default()
            .with_gpu_count(4)
            .with_mapper(MappingMethod::RoundRobin)
            .with_transfer_mode(TransferMode::ViaHost),
    )
    .unwrap();
    assert!(
        p2p.time_per_iteration_us <= via_host.time_per_iteration_us * 1.01,
        "p2p {} vs via-host {}",
        p2p.time_per_iteration_us,
        via_host.time_per_iteration_us
    );
}

#[test]
fn ilp_mapping_never_loses_to_the_heuristics_on_the_model() {
    for (app, n) in [(App::FmRadio, 12), (App::MatMul3, 4)] {
        let graph = app.build(n).unwrap();
        let ilp = compile(&graph, &FlowConfig::default().with_gpu_count(3)).unwrap();
        let greedy = compile(
            &graph,
            &FlowConfig::default()
                .with_gpu_count(3)
                .with_mapper(MappingMethod::Greedy),
        )
        .unwrap();
        assert!(
            ilp.mapping.predicted_tmax_us <= greedy.mapping.predicted_tmax_us + 1e-6,
            "{app}: ILP {} worse than greedy {}",
            ilp.mapping.predicted_tmax_us,
            greedy.mapping.predicted_tmax_us
        );
    }
}

#[test]
fn splitter_elimination_helps_split_heavy_apps_more_than_fft() {
    let bitonic = App::Bitonic.build(16).unwrap();
    let fft = App::Fft.build(128).unwrap();
    let speedup = |graph: &sgmap_graph::StreamGraph| {
        let base = compile_and_run(graph, &spsg()).unwrap();
        let enhanced = compile_and_run(graph, &spsg().with_enhancement(true)).unwrap();
        base.time_per_iteration_us / enhanced.time_per_iteration_us
    };
    let bitonic_gain = speedup(&bitonic);
    let fft_gain = speedup(&fft);
    assert!(
        bitonic_gain >= 1.0,
        "enhancement must not slow bitonic down"
    );
    assert!(fft_gain >= 0.95, "enhancement must not slow FFT down");
    assert!(
        bitonic_gain >= fft_gain * 0.9,
        "bitonic (many splitters) should gain at least as much as FFT: {bitonic_gain:.2} vs {fft_gain:.2}"
    );
}

#[test]
fn dct_on_four_gpus_maps_without_a_dual_simplex_stall() {
    // A node popped from the best-bound heap restarts from its parent's
    // basis. Warm-starting it from the last node solved, often the end of a
    // dive dozens of bounds away, sends one reoptimisation of each of these
    // points past the Bland threshold: 59,502 and 45,364 iterations for the
    // 80 nodes. Counters, not a clock, so the check does not depend on the
    // machine.
    for (n, tmax) in [(26, 3.7026538461538463), (30, 6.108959549071621)] {
        let graph = App::Dct.build(n).unwrap();
        let mut config = FlowConfig::new()
            .with_platform(PlatformSpec::reference(GpuSpec::m2090(), 4))
            .with_algorithm(Algorithm::Flat);
        config.mapping_options = SweepSpec::deterministic_mapping_options();
        let compiled = compile(&graph, &config).unwrap();
        let stats = &compiled.mapping.ilp_stats;
        assert!(
            stats.lp_iterations <= 10_000,
            "DCT-{n} on 4 GPUs: {} LP iterations over {} nodes",
            stats.lp_iterations,
            stats.nodes
        );
        assert_eq!(
            compiled.mapping.predicted_tmax_us, tmax,
            "DCT-{n} on 4 GPUs"
        );
    }
}

#[test]
fn default_compile_is_node_bounded_on_the_slowest_paper_points() {
    // The interactive default, `FlowConfig::new()`, has one budget: 600
    // branch-and-bound nodes and no clock. These are the slowest points of
    // the paper grid (Fig. 4.2 apps at 4 GPUs). Without the compute floor
    // each spent the whole budget; with it, each stops, proven optimal, once
    // its incumbent meets the best compute balance, so the node count is a
    // function of the inputs alone either way. DCT-26's greedy warm start
    // already meets the floor, so it is proven before any LP (0 nodes). The
    // `Tmax` pins are the ones the 600-node searches returned without the
    // floor. DCT-26 equals its 80-node pin in
    // `dct_on_four_gpus_maps_without_a_dual_simplex_stall`; DCT-30's later
    // incumbents find a map 0.5% faster than its 80-node pin.
    for (app, n, nodes, tmax) in [
        (App::Dct, 26, 0, 3.7026538461538463),
        (App::Dct, 30, 375, 6.078315718996754),
        (App::FmRadio, 32, 357, 0.2833269230769232),
    ] {
        let graph = app.build(n).unwrap();
        let config = FlowConfig::new().with_gpu_count(4);
        let mapping = compile(&graph, &config).unwrap().mapping;
        let label = format!("{app}-{n} on 4 GPUs");
        assert_eq!(mapping.ilp_stats.nodes, nodes, "{label}");
        assert_eq!(mapping.ilp_stats.lp_iterations == 0, nodes == 0, "{label}");
        assert!(mapping.optimal, "{label}");
        assert_eq!(mapping.ilp_stats.optimality_gap, 0.0, "{label}");
        assert_eq!(mapping.predicted_tmax_us, tmax, "{label}");
    }
}

#[test]
fn compute_floor_proves_budget_limited_maps_at_the_root() {
    // Most partitions of these maps share one time (31 of FMRadio-16's 33,
    // 17 of DCT-14's 20, 23 of FMRadio-12's 25), and the greedy warm start
    // is already the best compute balance. The LP relaxation sat 3-5% below
    // it, and the 80-node searches of the `paper_apps` and `hier_mapping`
    // benchmarks stopped at their budget. The exact compute floor proves
    // each warm start optimal before the root LP: no node, no LP iteration.
    // The assignment and the `Tmax` bits are the ones the budget-limited
    // searches returned without the floor.
    let cases: [(App, u32, PlatformSpec, &[usize], f64); 3] = [
        (
            App::FmRadio,
            16,
            PlatformSpec::reference(GpuSpec::m2090(), 4),
            &[
                0, 2, 3, 2, 1, 3, 2, 3, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0,
                1, 2, 3, 0, 1,
            ],
            f64::from_bits(0x3fc3_388e_6a2e_50fa),
        ),
        (
            App::Dct,
            14,
            PlatformSpec::reference(GpuSpec::m2090(), 4),
            &[2, 1, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 1, 0, 3],
            f64::from_bits(0x3fe1_bd34_252d_d7fc),
        ),
        (
            App::FmRadio,
            12,
            PlatformSpec::mixed_m2090_c2070(),
            &[
                0, 2, 3, 2, 1, 3, 1, 2, 3, 0, 1, 0, 2, 3, 1, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1,
            ],
            f64::from_bits(0x3fbf_ee5b_0ea6_acfa),
        ),
    ];
    for (app, n, spec, assignment, tmax) in cases {
        let label = format!("{app}-{n} on {}", spec.name);
        let graph = app.build(n).unwrap();
        let mut config = FlowConfig::new()
            .with_platform(spec)
            .with_algorithm(Algorithm::Flat);
        config.mapping_options = SweepSpec::deterministic_mapping_options();
        let mapping = compile(&graph, &config).unwrap().mapping;
        assert_eq!(mapping.assignment, assignment, "{label}");
        assert_eq!(
            mapping.predicted_tmax_us.to_bits(),
            tmax.to_bits(),
            "{label}"
        );
        assert_eq!(
            (mapping.ilp_stats.nodes, mapping.ilp_stats.lp_iterations),
            (0, 0),
            "{label}: {:?}",
            mapping.ilp_stats
        );
        assert!(mapping.optimal, "{label}");
        assert_eq!(mapping.ilp_stats.optimality_gap, 0.0, "{label}");
    }
}

#[test]
fn greedy_optimal_maps_on_eight_gpus_are_proven_at_the_root() {
    // Twelve or more partitions on eight GPUs: the greedy warm start is
    // already optimal, but with average load and the largest partition as
    // its only bounds the root LP sat 23% (DES-12) and 13% (FMRadio-12)
    // below it, and the search spent all 80 nodes without closing the gap.
    // The pigeonhole bound on the largest partitions closed that gap at the
    // root LP; the exact compute floor, which the warm start meets, now
    // proves it before any LP (no node, no LP iteration). The flat
    // partitioner and the node budget of the `hier_mapping` benchmark. Each
    // `Tmax` is bit-equal to what the budget-limited 80-node search returned
    // without the bound.
    for (app, n, tmax) in [
        (App::Des, 12, 0.0408974358974359),
        (App::FmRadio, 12, 0.06296153846153846),
    ] {
        let graph = app.build(n).unwrap();
        for spec in [
            PlatformSpec::nvlink8_m2090(),
            PlatformSpec::cluster2x4_m2090(),
        ] {
            let label = format!("{app}-{n} on {}", spec.name);
            let mut config = FlowConfig::new()
                .with_platform(spec)
                .with_algorithm(Algorithm::Flat);
            config.mapping_options = SweepSpec::deterministic_mapping_options();
            let mapping = compile(&graph, &config).unwrap().mapping;
            assert_eq!(
                (mapping.ilp_stats.nodes, mapping.ilp_stats.lp_iterations),
                (0, 0),
                "{label}: {:?}",
                mapping.ilp_stats
            );
            assert!(mapping.optimal, "{label}");
            assert_eq!(mapping.ilp_stats.optimality_gap, 0.0, "{label}");
            assert_eq!(mapping.predicted_tmax_us, tmax, "{label}");
        }
    }
}
