//! Communication-aware partition-to-GPU mapping (Section 3.2).
//!
//! Given the Partition Dependence Graph and the PCIe topology of the target
//! platform, the mapping step assigns every partition to a GPU so that the
//! bottleneck — the busiest GPU *or* the busiest PCIe link — is as fast as
//! possible:
//!
//! ```text
//! minimise Tmax
//!   T_gpu_j  = Σ_i n_ij · T_i              ≤ Tmax      (III.1, III.4)
//!   T_comm_l = Lat + D_l / BW              ≤ Tmax      (III.2, III.3)
//!   Σ_j n_ij = 1                                        (III.5)
//!   D_l      = Σ_{e=(i,j)∈E_P} x_e,c(l) · D_ij          (III.6, III.7)
//!   x_e,c    ≥ Σ_{k∈S_c} n_ik + Σ_{h∈D_c} n_jh − 1
//! ```
//!
//! The crossing indicator `x_e,c` belongs to the link's cut `c(l) = (S, D)`,
//! the GPU sides the link separates, not to the link itself: every link
//! with the same sides shares it (see the `ilp` module).
//!
//! Three mappers are provided:
//!
//! * [`map_ilp`] — the exact formulation above, solved with the
//!   branch-and-bound ILP solver of `sgmap-ilp` (warm-started by the greedy
//!   mapper, bounded by a node budget, and stopped early once its incumbent
//!   meets the best compute balance the partition times admit, or comes
//!   within the relative gap of [`MappingOptions`] of its bounds),
//! * [`map_greedy`] — longest-processing-time list scheduling followed by a
//!   communication-aware local search; used both as the ILP warm start and as
//!   a fast stand-alone mapper,
//! * [`map_round_robin`] — the hardware-agnostic assignment in the style of
//!   the prior work, which balances only the partition count per GPU and
//!   ignores the interconnect.
//!
//! [`evaluate_assignment`] computes the objective of any assignment and is
//! shared by all three (and by the tests, to check the ILP never loses to the
//! greedy mapper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evaluate;
mod floor;
mod greedy;
mod ilp;
mod repair;

pub use evaluate::{evaluate_assignment, MappingCost};
pub use greedy::{map_greedy, map_round_robin};
pub use ilp::{map_ilp, MappingOptions};
pub use repair::{map_on_survivors, repair_mapping, RepairStats};
pub use sgmap_ilp::SolveStats;

use sgmap_gpusim::Platform;
use sgmap_partition::Pdg;

/// Which algorithm produced a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingMethod {
    /// The communication-aware ILP formulation.
    Ilp,
    /// LPT list scheduling plus local search.
    Greedy,
    /// Hardware-agnostic round-robin (prior-work style).
    RoundRobin,
}

/// A partition-to-GPU assignment together with its predicted cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// `assignment[i]` is the GPU index of partition `i`.
    pub assignment: Vec<usize>,
    /// Predicted bottleneck time (the ILP objective `Tmax`), microseconds.
    pub predicted_tmax_us: f64,
    /// Predicted busy time of each GPU, microseconds.
    pub per_gpu_time_us: Vec<f64>,
    /// Predicted communication time of each directed PCIe link, microseconds.
    pub per_link_time_us: Vec<f64>,
    /// The algorithm that produced this mapping.
    pub method: MappingMethod,
    /// Whether the mapping is proven optimal: by the ILP search, or, for a
    /// repair patch, by meeting the survivors' compute floor (always
    /// `false` for the stand-alone heuristics).
    pub optimal: bool,
    /// Solver counters of the ILP search (all zero for the heuristics and
    /// for the trivial single-GPU / empty cases the ILP answers directly).
    pub ilp_stats: SolveStats,
}

impl Mapping {
    /// Number of distinct GPUs actually used.
    pub fn gpus_used(&self) -> usize {
        let mut used: Vec<usize> = self.assignment.clone();
        used.sort_unstable();
        used.dedup();
        used.len()
    }
}

/// Convenience entry point dispatching on [`MappingMethod`]. The whole
/// mapping step runs under a `map` span; the ILP method also records the
/// solver's spans and counters (see [`map_ilp`]).
///
/// # Errors
///
/// Returns an error only for [`MappingMethod::Ilp`] when the solver fails;
/// the heuristics cannot fail.
pub fn map_with(
    pdg: &Pdg,
    platform: &Platform,
    method: MappingMethod,
    options: &MappingOptions,
) -> Result<Mapping, sgmap_ilp::IlpError> {
    let mut span = sgmap_trace::span("map");
    span.arg("partitions", pdg.len());
    span.arg("gpus", platform.gpu_count());
    match method {
        MappingMethod::Ilp => map_ilp(pdg, platform, options),
        MappingMethod::Greedy => Ok(map_greedy(pdg, platform)),
        MappingMethod::RoundRobin => Ok(map_round_robin(pdg, platform)),
    }
}
