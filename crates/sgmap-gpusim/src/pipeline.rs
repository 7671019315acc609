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

use crate::fault::{FaultEvent, FaultPlan};
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

/// The result of simulating a plan under a [`FaultPlan`]: the stats of
/// whatever did execute, plus what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedExec {
    /// Stats of the (possibly partial) execution. When the run was cut short
    /// the makespan and busy times cover only the work that completed.
    pub stats: ExecStats,
    /// Faults that affected the run, in injection/occurrence order.
    pub events: Vec<FaultEvent>,
    /// Fragments whose every kernel instance finished.
    pub completed_fragments: u32,
    /// The GPU whose loss stopped the run, if any (set for both device
    /// dropouts and link failures that cut a device off).
    pub lost_device: Option<usize>,
}

impl FaultedExec {
    /// `true` if every kernel instance of every fragment ran to completion.
    pub fn completed(&self) -> bool {
        self.completed_fragments == self.stats.n_fragments
    }
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
/// occupy every link of their route in store-and-forward fashion.
///
/// # Panics
///
/// Panics if a kernel references a GPU outside the platform or if a transfer
/// references a kernel outside the plan.
pub fn simulate_plan(plan: &ExecutionPlan, platform: &Platform) -> ExecStats {
    simulate_plan_with_faults(plan, platform, &FaultPlan::none()).stats
}

/// Simulates `plan` on `platform` under the given [`FaultPlan`].
///
/// With an empty plan this is exactly [`simulate_plan`]. Link degradations
/// slow the affected hops for the whole run; a device dropout or a transfer
/// over a failed link stops the simulation at the first point where no
/// healthy work remains, returning partial stats and the triggering
/// [`FaultEvent`].
///
/// The simulation runs under an `execute` span and records kernel-launch,
/// transfer and `gpusim.fault_*` counters into the ambient trace collector.
/// The collector is write-only, so traced and untraced runs produce
/// identical results.
pub fn simulate_plan_with_faults(
    plan: &ExecutionPlan,
    platform: &Platform,
    faults: &FaultPlan,
) -> FaultedExec {
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

    let mut events: Vec<FaultEvent> = Vec::new();
    for f in &faults.link_faults {
        assert!(
            f.link < topo.link_count(),
            "fault on unknown link {}",
            f.link
        );
        if f.bandwidth_factor > 0.0 {
            events.push(FaultEvent::LinkDegraded {
                link: f.link,
                bandwidth_factor: f.bandwidth_factor,
            });
            sgmap_trace::add("gpusim.fault_link_degraded", 1);
        }
    }
    for d in &faults.device_dropouts {
        assert!(d.gpu < g, "dropout of unknown GPU {}", d.gpu);
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
    let mut finish_time = vec![0.0f64; fragments * k_count];

    // Dispatch a transfer whose payload becomes available at `available`.
    // Returns the arrival time, or the index of the dead link that makes the
    // transfer impossible (the topology is a tree, so there is no detour).
    let dispatch = |t: &PlannedTransfer,
                    available: f64,
                    link_free: &mut [f64],
                    per_link_busy: &mut [f64],
                    per_link_bytes: &mut [u64],
                    transfer_total: &mut f64|
     -> Result<f64, usize> {
        if t.bytes_per_fragment == 0 || t.from == t.to {
            return Ok(available);
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
            let factor = faults.link_factor(i);
            if factor <= 0.0 {
                return Err(i);
            }
            // Each hop runs at its own link's bandwidth and latency; a
            // degradation fault stretches only the bandwidth term. The
            // healthy path goes through the exact same expression as the
            // fault-free simulator so its floats are bit-identical.
            let hop_time = if factor == 1.0 {
                topo.link_transfer_us(link, t.bytes_per_fragment as f64)
            } else {
                topo.link_latency_us(link)
                    + t.bytes_per_fragment as f64 / (topo.link_bytes_per_us(link) * factor)
            };
            let start = head.max(link_free[i]);
            let end = start + hop_time;
            link_free[i] = end;
            per_link_busy[i] += hop_time;
            per_link_bytes[i] += t.bytes_per_fragment;
            *transfer_total += hop_time;
            head = end;
        }
        Ok(head)
    };

    // The GPU a transfer over a dead link cuts off (for the report).
    let cut_device = |t: &PlannedTransfer| match (t.to, t.from) {
        (Endpoint::Gpu(g), _) => Some(g),
        (_, Endpoint::Gpu(g)) => Some(g),
        _ => None,
    };

    // A transfer over a dead link, once hit, stops the simulation.
    let mut dead_link: Option<(usize, Option<usize>)> = None;

    // Primary inputs (no producer kernel) are available from the host at time
    // zero for every fragment and pipeline over the host links.
    'primary: for frag in 0..fragments {
        for t in plan.transfers.iter().filter(|t| t.after_kernel.is_none()) {
            let arrival = match dispatch(
                t,
                0.0,
                &mut link_free,
                &mut per_link_busy,
                &mut per_link_bytes,
                &mut transfer_total,
            ) {
                Ok(arrival) => arrival,
                Err(link) => {
                    dead_link = Some((link, cut_device(t)));
                    break 'primary;
                }
            };
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
    // earliest on its GPU. A device dropout rejects launches that would start
    // at or after the dropout time; when only such launches remain, the
    // execution is stuck and stops with a DeviceLost event.
    let total_instances = fragments * k_count;
    let mut scheduled = 0usize;
    let mut lost_device: Option<usize> = None;
    'schedule: while dead_link.is_none() && scheduled < total_instances {
        let mut best: Option<(usize, f64)> = None;
        let mut blocked_by_dropout = false;
        for i in 0..total_instances {
            if done[i] || remaining_deps[i] > 0 {
                continue;
            }
            let k = i % k_count;
            let gpu = plan.kernels[k].gpu;
            let start = ready_time[i].max(gpu_free[gpu]);
            if let Some(at) = faults.dropout_at(gpu) {
                if start >= at {
                    blocked_by_dropout = true;
                    continue;
                }
            }
            match best {
                None => best = Some((i, start)),
                Some((_, s)) if start < s - 1e-12 => best = Some((i, start)),
                _ => {}
            }
        }
        let Some((i, start)) = best else {
            // Nothing healthy can run. For a DAG plan this only happens when
            // a dropout blocks every remaining chain.
            assert!(
                blocked_by_dropout,
                "a ready kernel instance always exists for a DAG plan"
            );
            let d = faults
                .device_dropouts
                .iter()
                .min_by(|a, b| a.at_us.total_cmp(&b.at_us))
                .expect("a dropout blocked the schedule");
            events.push(FaultEvent::DeviceLost {
                gpu: d.gpu,
                at_us: d.at_us,
            });
            sgmap_trace::add("gpusim.fault_device_lost", 1);
            lost_device = Some(d.gpu);
            break 'schedule;
        };
        let frag = i / k_count;
        let k = i % k_count;
        let kernel = &plan.kernels[k];
        let end = start + kernel.time_per_fragment_us;
        done[i] = true;
        finish_time[i] = end;
        gpu_free[kernel.gpu] = end;
        per_gpu_busy[kernel.gpu] += kernel.time_per_fragment_us;
        kernel_total += kernel.time_per_fragment_us;
        makespan = makespan.max(end);
        scheduled += 1;

        // Dispatch the outgoing transfers of this instance.
        for t in plan.transfers.iter().filter(|t| t.after_kernel == Some(k)) {
            let arrival = match dispatch(
                t,
                end,
                &mut link_free,
                &mut per_link_busy,
                &mut per_link_bytes,
                &mut transfer_total,
            ) {
                Ok(arrival) => arrival,
                Err(link) => {
                    dead_link = Some((link, cut_device(t)));
                    break 'schedule;
                }
            };
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

    if let Some((link, cut)) = dead_link {
        events.push(FaultEvent::LinkFailed { link });
        sgmap_trace::add("gpusim.fault_link_failed", 1);
        lost_device = lost_device.or(cut);
    }

    let completed_fragments = if k_count == 0 {
        plan.n_fragments
    } else {
        (0..fragments)
            .filter(|&frag| (0..k_count).all(|k| done[idx(frag, k)]))
            .count() as u32
    };

    FaultedExec {
        stats: ExecStats {
            makespan_us: makespan,
            per_gpu_busy_us: per_gpu_busy,
            per_link_busy_us: per_link_busy,
            per_link_bytes,
            kernel_total_us: kernel_total,
            transfer_total_us: transfer_total,
            n_fragments: plan.n_fragments,
        },
        events,
        completed_fragments,
        lost_device,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

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
        let stats = simulate_plan(&plan, &Platform::single_m2090());
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
        let platform = Platform::single_m2090();
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
        let _ = simulate_plan(&plan, &Platform::single_m2090());
    }

    /// Two kernels on two GPUs joined by one transfer — the shared fixture
    /// for the fault tests.
    fn two_stage_plan(n: u32) -> (ExecutionPlan, Platform) {
        let platform = Platform::quad_m2090().with_gpu_count(2);
        let plan = ExecutionPlan {
            kernels: vec![kernel("p1", 0, 100.0), kernel("p2", 1, 100.0)],
            transfers: vec![PlannedTransfer {
                from: Endpoint::Gpu(0),
                to: Endpoint::Gpu(1),
                bytes_per_fragment: 1 << 20,
                after_kernel: Some(0),
                before_kernel: Some(1),
            }],
            n_fragments: n,
            transfer_mode: TransferMode::PeerToPeer,
        };
        (plan, platform)
    }

    #[test]
    fn empty_fault_plan_reproduces_the_healthy_simulation_exactly() {
        let (plan, platform) = two_stage_plan(16);
        let healthy = simulate_plan(&plan, &platform);
        let faulted = simulate_plan_with_faults(&plan, &platform, &FaultPlan::none());
        assert_eq!(faulted.stats, healthy);
        assert!(faulted.completed());
        assert!(faulted.events.is_empty());
        assert_eq!(faulted.lost_device, None);
        assert_eq!(faulted.completed_fragments, 16);
    }

    #[test]
    fn device_dropout_stops_the_run_with_a_device_lost_event() {
        let (plan, platform) = two_stage_plan(16);
        let healthy = simulate_plan(&plan, &platform);
        let faults = FaultPlan::none().with_device_dropout(1, healthy.makespan_us * 0.4);
        let faulted = simulate_plan_with_faults(&plan, &platform, &faults);
        assert!(!faulted.completed());
        assert_eq!(faulted.lost_device, Some(1));
        assert!(faulted.completed_fragments < 16);
        assert!(matches!(
            faulted.events.as_slice(),
            [FaultEvent::DeviceLost { gpu: 1, .. }]
        ));
        // Whatever did run finished before the healthy makespan... plus the
        // producer side, which keeps running until its own chain stalls.
        assert!(faulted.stats.per_gpu_busy_us[1] < healthy.per_gpu_busy_us[1]);
    }

    #[test]
    fn dropout_after_the_makespan_changes_nothing() {
        let (plan, platform) = two_stage_plan(8);
        let healthy = simulate_plan(&plan, &platform);
        let faults = FaultPlan::none().with_device_dropout(1, healthy.makespan_us + 1.0);
        let faulted = simulate_plan_with_faults(&plan, &platform, &faults);
        assert!(faulted.completed());
        assert_eq!(faulted.stats, healthy);
    }

    #[test]
    fn link_degradation_slows_the_run_but_completes_it() {
        let (plan, platform) = two_stage_plan(16);
        let healthy = simulate_plan(&plan, &platform);
        // Degrade every link so the transfer route is hit no matter which
        // direction it uses.
        let mut faults = FaultPlan::none();
        for l in platform.topology.link_ids() {
            faults = faults.with_link_degradation(l.index(), 0.25);
        }
        let faulted = simulate_plan_with_faults(&plan, &platform, &faults);
        assert!(faulted.completed());
        assert_eq!(faulted.lost_device, None);
        assert!(
            faulted.stats.transfer_total_us > healthy.transfer_total_us * 2.0,
            "quartered bandwidth should much more than double transfer time"
        );
        assert!(faulted.stats.makespan_us > healthy.makespan_us);
        assert!(faulted
            .events
            .iter()
            .all(|e| matches!(e, FaultEvent::LinkDegraded { .. })));
        assert_eq!(faulted.events.len(), platform.topology.link_count());
    }

    #[test]
    fn link_failure_on_the_route_stops_the_run() {
        let (plan, platform) = two_stage_plan(8);
        let route = platform.topology.route(Endpoint::Gpu(0), Endpoint::Gpu(1));
        let dead = route[0].index();
        let faults = FaultPlan::none().with_link_failure(dead);
        let faulted = simulate_plan_with_faults(&plan, &platform, &faults);
        assert!(!faulted.completed());
        assert!(faulted
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::LinkFailed { link } if *link == dead)));
        assert!(faulted.lost_device.is_some());
    }

    #[test]
    fn failure_off_the_route_is_harmless() {
        let (plan, platform) = two_stage_plan(8);
        let healthy = simulate_plan(&plan, &platform);
        let used: Vec<usize> = platform
            .topology
            .route(Endpoint::Gpu(0), Endpoint::Gpu(1))
            .iter()
            .map(|l| l.index())
            .collect();
        let unused = platform
            .topology
            .link_ids()
            .map(|l| l.index())
            .find(|i| !used.contains(i))
            .expect("the quad tree has links off this route");
        let faults = FaultPlan::none().with_link_failure(unused);
        let faulted = simulate_plan_with_faults(&plan, &platform, &faults);
        assert!(faulted.completed());
        assert_eq!(faulted.stats, healthy);
    }
}
