//! Pipelined multi-GPU execution (Figure 3.5).
//!
//! The input stream is divided into `N` fragments. For every fragment each
//! partition's kernel runs on its assigned GPU, and every partition-to-
//! partition channel that crosses GPUs becomes a DMA transfer over the PCIe
//! tree. Kernels on the same GPU execute serially in plan order; transfers
//! occupy every link on their route one hop at a time (store-and-forward);
//! different fragments overlap freely, forming the pipeline that hides
//! communication latency.
//!
//! The simulation is a deterministic discrete-event model driven by resource
//! availability times (one serial resource per GPU and per directed link).

use crate::platform::Platform;
use crate::topology::Endpoint;

/// How inter-GPU transfers are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Direct peer-to-peer DMA over the PCIe tree (the paper's approach).
    PeerToPeer,
    /// Staging every inter-GPU transfer through host memory (the prior
    /// work's approach): device-to-host followed by host-to-device.
    ViaHost,
}

/// One kernel instance of the plan (one partition on one GPU).
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedKernel {
    /// Name for reports (usually the partition name).
    pub name: String,
    /// GPU executing this kernel.
    pub gpu: usize,
    /// Kernel execution time for one fragment, in microseconds.
    pub time_per_fragment_us: f64,
}

/// One data movement of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedTransfer {
    /// Source endpoint.
    pub from: Endpoint,
    /// Destination endpoint.
    pub to: Endpoint,
    /// Bytes moved per fragment.
    pub bytes_per_fragment: u64,
    /// Index (into [`ExecutionPlan::kernels`]) of the kernel that produces
    /// this data for a fragment; `None` for primary input available from the
    /// host immediately.
    pub after_kernel: Option<usize>,
    /// Index of the kernel that consumes this data; `None` for primary
    /// output.
    pub before_kernel: Option<usize>,
}

/// A complete pipelined execution plan.
///
/// `kernels` must be listed in an order that is topological with respect to
/// the transfers: for every transfer, `after_kernel` (when present) must come
/// before `before_kernel` (when present) in the list. Kernels assigned to the
/// same GPU execute serially in list order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// The kernels, in issue order.
    pub kernels: Vec<PlannedKernel>,
    /// The data movements.
    pub transfers: Vec<PlannedTransfer>,
    /// Number of input fragments pipelined through the plan.
    pub n_fragments: u32,
    /// Transfer routing policy.
    pub transfer_mode: TransferMode,
}

/// Aggregate results of simulating an [`ExecutionPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExecStats {
    /// Completion time of the last kernel or transfer, in microseconds.
    pub makespan_us: f64,
    /// Busy time of every GPU.
    pub per_gpu_busy_us: Vec<f64>,
    /// Busy time of every directed PCIe link.
    pub per_link_busy_us: Vec<f64>,
    /// Bytes carried by every directed PCIe link.
    pub per_link_bytes: Vec<u64>,
    /// Sum of all kernel execution times.
    pub kernel_total_us: f64,
    /// Sum of all transfer hop times.
    pub transfer_total_us: f64,
    /// Number of fragments executed.
    pub n_fragments: u32,
}

impl ExecStats {
    /// Average time per fragment (the throughput figure of merit).
    pub fn time_per_fragment_us(&self) -> f64 {
        self.makespan_us / f64::from(self.n_fragments.max(1))
    }
}

/// Simulates `plan` on `platform`.
///
/// Each input fragment is issued into its own logical stream, exactly as the
/// paper's runtime does: a kernel instance `(fragment, kernel)` becomes ready
/// as soon as all of its incoming transfers for that fragment have arrived,
/// and each GPU picks, among its ready instances, the one that can start
/// earliest. Transfers are dispatched the moment their producer finishes and
/// occupy every link of their route in store-and-forward fashion, each hop at
/// its own link's bandwidth and latency.
///
/// The simulation runs under an `execute` span and records kernel-launch and
/// transfer counters into the ambient trace collector. The collector is
/// write-only, so traced and untraced runs produce identical results.
///
/// # Panics
///
/// Panics if a kernel references a GPU outside the platform or if a transfer
/// references a kernel outside the plan.
pub fn simulate_plan(plan: &ExecutionPlan, platform: &Platform) -> ExecStats {
    let mut span = sgmap_trace::span("execute");
    span.arg("kernels", plan.kernels.len());
    span.arg("fragments", plan.n_fragments as u64);
    sgmap_trace::add(
        "gpusim.kernel_launches",
        plan.kernels.len() as u64 * plan.n_fragments as u64,
    );
    sgmap_trace::add("gpusim.transfers", plan.transfers.len() as u64);
    let topo = &platform.topology;
    let g = platform.gpu_count();
    let k_count = plan.kernels.len();
    for k in &plan.kernels {
        assert!(
            k.gpu < g,
            "kernel {} mapped to GPU {} of {}",
            k.name,
            k.gpu,
            g
        );
    }
    for t in &plan.transfers {
        if let Some(k) = t.after_kernel {
            assert!(k < k_count, "transfer after unknown kernel {k}");
        }
        if let Some(k) = t.before_kernel {
            assert!(k < k_count, "transfer before unknown kernel {k}");
        }
    }

    let fragments = plan.n_fragments as usize;
    let mut gpu_free = vec![0.0f64; g];
    let mut link_free = vec![0.0f64; topo.link_count()];
    let mut per_gpu_busy = vec![0.0f64; g];
    let mut per_link_busy = vec![0.0f64; topo.link_count()];
    let mut per_link_bytes = vec![0u64; topo.link_count()];
    let mut kernel_total = 0.0;
    let mut transfer_total = 0.0;
    let mut makespan: f64 = 0.0;

    // Incoming-transfer counts per kernel (identical for every fragment).
    let mut deps_per_kernel = vec![0usize; k_count];
    for t in &plan.transfers {
        if let Some(k) = t.before_kernel {
            deps_per_kernel[k] += 1;
        }
    }

    // Per (fragment, kernel) instance state.
    let idx = |frag: usize, k: usize| frag * k_count + k;
    let mut remaining_deps: Vec<usize> = (0..fragments * k_count)
        .map(|i| deps_per_kernel[i % k_count])
        .collect();
    let mut ready_time = vec![0.0f64; fragments * k_count];
    let mut done = vec![false; fragments * k_count];

    // Dispatch a transfer whose payload becomes available at `available`;
    // returns its arrival time.
    let mut dispatch = |t: &PlannedTransfer, available: f64| -> f64 {
        if t.bytes_per_fragment == 0 || t.from == t.to {
            return available;
        }
        let route: Vec<_> = match (plan.transfer_mode, t.from, t.to) {
            (TransferMode::ViaHost, Endpoint::Gpu(_), Endpoint::Gpu(_)) => {
                let mut r = topo.route(t.from, Endpoint::Host).to_vec();
                r.extend_from_slice(topo.route(Endpoint::Host, t.to));
                r
            }
            _ => topo.route(t.from, t.to).to_vec(),
        };
        let mut head = available;
        for link in route {
            let i = link.index();
            let hop_time = topo.link_transfer_us(link, t.bytes_per_fragment as f64);
            let start = head.max(link_free[i]);
            let end = start + hop_time;
            link_free[i] = end;
            per_link_busy[i] += hop_time;
            per_link_bytes[i] += t.bytes_per_fragment;
            transfer_total += hop_time;
            head = end;
        }
        head
    };

    // Primary inputs (no producer kernel) are available from the host at time
    // zero for every fragment and pipeline over the host links.
    for frag in 0..fragments {
        for t in plan.transfers.iter().filter(|t| t.after_kernel.is_none()) {
            let arrival = dispatch(t, 0.0);
            if let Some(k) = t.before_kernel {
                let i = idx(frag, k);
                ready_time[i] = ready_time[i].max(arrival);
                remaining_deps[i] -= 1;
            } else {
                makespan = makespan.max(arrival);
            }
        }
    }

    // List scheduling: repeatedly start the ready instance that can begin
    // earliest on its GPU.
    let total_instances = fragments * k_count;
    for _ in 0..total_instances {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..total_instances {
            if done[i] || remaining_deps[i] > 0 {
                continue;
            }
            let gpu = plan.kernels[i % k_count].gpu;
            let start = ready_time[i].max(gpu_free[gpu]);
            match best {
                None => best = Some((i, start)),
                Some((_, s)) if start < s - 1e-12 => best = Some((i, start)),
                _ => {}
            }
        }
        let (i, start) = best.expect("a ready kernel instance always exists for a DAG plan");
        let frag = i / k_count;
        let k = i % k_count;
        let kernel = &plan.kernels[k];
        let end = start + kernel.time_per_fragment_us;
        done[i] = true;
        gpu_free[kernel.gpu] = end;
        per_gpu_busy[kernel.gpu] += kernel.time_per_fragment_us;
        kernel_total += kernel.time_per_fragment_us;
        makespan = makespan.max(end);

        // Dispatch the outgoing transfers of this instance.
        for t in plan.transfers.iter().filter(|t| t.after_kernel == Some(k)) {
            let arrival = dispatch(t, end);
            match t.before_kernel {
                Some(consumer) => {
                    let ci = idx(frag, consumer);
                    ready_time[ci] = ready_time[ci].max(arrival);
                    remaining_deps[ci] -= 1;
                }
                None => makespan = makespan.max(arrival),
            }
        }
    }

    ExecStats {
        makespan_us: makespan,
        per_gpu_busy_us: per_gpu_busy,
        per_link_busy_us: per_link_busy,
        per_link_bytes,
        kernel_total_us: kernel_total,
        transfer_total_us: transfer_total,
        n_fragments: plan.n_fragments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuSpec;
    use crate::platform::{Platform, PlatformSpec};

    fn kernel(name: &str, gpu: usize, time: f64) -> PlannedKernel {
        PlannedKernel {
            name: name.to_string(),
            gpu,
            time_per_fragment_us: time,
        }
    }

    #[test]
    fn single_gpu_serial_execution_sums_kernel_times() {
        let plan = ExecutionPlan {
            kernels: vec![kernel("a", 0, 10.0), kernel("b", 0, 5.0)],
            transfers: vec![],
            n_fragments: 4,
            transfer_mode: TransferMode::PeerToPeer,
        };
        let stats = simulate_plan(&plan, &Platform::homogeneous(GpuSpec::m2090(), 1));
        assert!((stats.makespan_us - 4.0 * 15.0).abs() < 1e-9);
        assert!((stats.per_gpu_busy_us[0] - 60.0).abs() < 1e-9);
        assert!((stats.time_per_fragment_us() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn two_gpus_pipeline_overlaps_fragments() {
        // Two equal kernels on two GPUs connected by a transfer: after the
        // pipeline fills, throughput is one fragment per kernel time, not per
        // two kernel times.
        let platform = Platform::quad_m2090().with_gpu_count(2);
        let n = 32;
        let plan = ExecutionPlan {
            kernels: vec![kernel("p1", 0, 100.0), kernel("p2", 1, 100.0)],
            transfers: vec![PlannedTransfer {
                from: Endpoint::Gpu(0),
                to: Endpoint::Gpu(1),
                bytes_per_fragment: 1024,
                after_kernel: Some(0),
                before_kernel: Some(1),
            }],
            n_fragments: n,
            transfer_mode: TransferMode::PeerToPeer,
        };
        let stats = simulate_plan(&plan, &platform);
        let serial_estimate = f64::from(n) * 200.0;
        assert!(
            stats.makespan_us < serial_estimate * 0.65,
            "pipelining should hide most of the second stage: {} vs {}",
            stats.makespan_us,
            serial_estimate
        );
        // Each GPU did N kernels worth of work.
        assert!((stats.per_gpu_busy_us[0] - f64::from(n) * 100.0).abs() < 1e-9);
    }

    #[test]
    fn via_host_transfers_use_more_links_than_p2p() {
        let platform = Platform::quad_m2090();
        let mk_plan = |mode| ExecutionPlan {
            kernels: vec![kernel("p1", 0, 10.0), kernel("p2", 1, 10.0)],
            transfers: vec![PlannedTransfer {
                from: Endpoint::Gpu(0),
                to: Endpoint::Gpu(1),
                bytes_per_fragment: 1 << 20,
                after_kernel: Some(0),
                before_kernel: Some(1),
            }],
            n_fragments: 4,
            transfer_mode: mode,
        };
        let p2p = simulate_plan(&mk_plan(TransferMode::PeerToPeer), &platform);
        let host = simulate_plan(&mk_plan(TransferMode::ViaHost), &platform);
        assert!(host.transfer_total_us > p2p.transfer_total_us);
        assert!(host.makespan_us > p2p.makespan_us);
    }

    #[test]
    fn communication_bound_plans_are_limited_by_the_link() {
        // A tiny kernel feeding a huge transfer: the link, not the GPU, paces
        // the pipeline.
        let platform = Platform::quad_m2090().with_gpu_count(2);
        let plan = ExecutionPlan {
            kernels: vec![kernel("p1", 0, 1.0), kernel("p2", 1, 1.0)],
            transfers: vec![PlannedTransfer {
                from: Endpoint::Gpu(0),
                to: Endpoint::Gpu(1),
                bytes_per_fragment: 12_000_000, // 2 ms per hop at 6 GB/s
                after_kernel: Some(0),
                before_kernel: Some(1),
            }],
            n_fragments: 8,
            transfer_mode: TransferMode::PeerToPeer,
        };
        let stats = simulate_plan(&plan, &platform);
        // Per fragment the bottleneck hop costs ~2000 us; 8 fragments must
        // serialise on that link.
        assert!(stats.time_per_fragment_us() > 1500.0);
        let busiest_link = stats
            .per_link_busy_us
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(busiest_link > stats.per_gpu_busy_us[0]);
    }

    #[test]
    fn primary_output_transfers_extend_the_makespan() {
        let platform = Platform::homogeneous(GpuSpec::m2090(), 1);
        let plan = ExecutionPlan {
            kernels: vec![kernel("only", 0, 10.0)],
            transfers: vec![PlannedTransfer {
                from: Endpoint::Gpu(0),
                to: Endpoint::Host,
                bytes_per_fragment: 6_000_000, // 1 ms + latency per hop
                after_kernel: Some(0),
                before_kernel: None,
            }],
            n_fragments: 1,
            transfer_mode: TransferMode::PeerToPeer,
        };
        let stats = simulate_plan(&plan, &platform);
        assert!(stats.makespan_us > 10.0 + 1000.0);
    }

    #[test]
    #[should_panic(expected = "mapped to GPU")]
    fn kernels_on_missing_gpus_panic() {
        let plan = ExecutionPlan {
            kernels: vec![kernel("bad", 3, 1.0)],
            transfers: vec![],
            n_fragments: 1,
            transfer_mode: TransferMode::PeerToPeer,
        };
        let _ = simulate_plan(&plan, &Platform::homogeneous(GpuSpec::m2090(), 1));
    }

    #[test]
    fn every_hop_of_a_mixed_class_route_is_priced_by_its_own_link() {
        // GPU 0 and GPU 4 sit on different nodes of the cluster, so the
        // route climbs PCIe to the network and back down.
        let platform = PlatformSpec::cluster2x4_m2090().build().unwrap();
        let topo = &platform.topology;
        let bytes = 1u64 << 20;
        let plan = ExecutionPlan {
            kernels: vec![kernel("send", 0, 10.0), kernel("recv", 4, 20.0)],
            transfers: vec![PlannedTransfer {
                from: Endpoint::Gpu(0),
                to: Endpoint::Gpu(4),
                bytes_per_fragment: bytes,
                after_kernel: Some(0),
                before_kernel: Some(1),
            }],
            n_fragments: 1,
            transfer_mode: TransferMode::PeerToPeer,
        };
        let stats = simulate_plan(&plan, &platform);
        let route = topo.route(Endpoint::Gpu(0), Endpoint::Gpu(4));
        let first_class = topo.link_class(route[0]);
        assert!(
            route.iter().any(|&l| topo.link_class(l) != first_class),
            "the cross-node route mixes link classes"
        );
        let mut expected_makespan = 10.0;
        for &link in route {
            let hop = topo.link_transfer_us(link, bytes as f64);
            assert_eq!(
                stats.per_link_busy_us[link.index()].to_bits(),
                hop.to_bits(),
                "link {link:?} ({:?})",
                topo.link_class(link)
            );
            expected_makespan += hop;
        }
        expected_makespan += 20.0;
        assert_eq!(stats.makespan_us.to_bits(), expected_makespan.to_bits());
    }
}
