//! Deterministic fault injection for the pipeline simulator.
//!
//! A [`FaultPlan`] describes what goes wrong during a simulated execution:
//! a device dropping out at a simulated time, a link running at a fraction of
//! its calibrated bandwidth, or a link failing outright. The plan is plain
//! data — building one (by hand or from a seed via [`FaultPlan::seeded`]) has
//! no side effects, and injecting the same plan into the same
//! [`ExecutionPlan`](crate::ExecutionPlan) always produces the same
//! [`FaultedExec`](crate::FaultedExec), so faulted runs are as reproducible
//! as healthy ones.
//!
//! Semantics, chosen to be simple and deterministic:
//!
//! * **Device dropout at `t`** — kernel launches that would *start* at or
//!   after `t` on the lost device are rejected; in-flight work started
//!   before `t` completes. Once nothing else can make progress the
//!   simulation stops with a [`FaultEvent::DeviceLost`] and partial stats.
//! * **Link degradation** — the link's bandwidth is scaled by the factor for
//!   the whole run; the execution completes with degraded throughput and a
//!   [`FaultEvent::LinkDegraded`] on record.
//! * **Link failure** — the topology is a tree, so a transfer whose route
//!   crosses the dead link has no detour (the via-host route reuses the same
//!   edges); the first such transfer stops the simulation with a
//!   [`FaultEvent::LinkFailed`].

use crate::platform::Platform;

/// A device dropping out of the platform at a simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceDropout {
    /// Index of the lost GPU.
    pub gpu: usize,
    /// Simulated time (microseconds) from which launches are rejected.
    pub at_us: f64,
}

/// A directed link running below its calibrated bandwidth, or not at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Index of the directed link (see [`crate::Topology::link_ids`]).
    pub link: usize,
    /// Multiplier on the link's bandwidth: `0 < factor < 1` degrades it,
    /// `0.0` means the link is dead.
    pub bandwidth_factor: f64,
}

/// A deterministic, seedable description of what goes wrong during one
/// simulated execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Devices that drop out, at most one entry per GPU.
    pub device_dropouts: Vec<DeviceDropout>,
    /// Degraded or failed links, at most one entry per link.
    pub link_faults: Vec<LinkFault>,
}

impl FaultPlan {
    /// A plan with no faults (simulating with it is identical to the healthy
    /// simulator).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.device_dropouts.is_empty() && self.link_faults.is_empty()
    }

    /// Adds a device dropout at the given simulated time.
    pub fn with_device_dropout(mut self, gpu: usize, at_us: f64) -> Self {
        self.device_dropouts.retain(|d| d.gpu != gpu);
        self.device_dropouts.push(DeviceDropout { gpu, at_us });
        self
    }

    /// Adds a bandwidth degradation on one directed link.
    ///
    /// # Panics
    ///
    /// Panics if the factor is not in `(0, 1]`.
    pub fn with_link_degradation(mut self, link: usize, bandwidth_factor: f64) -> Self {
        assert!(
            bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "degradation factor must be in (0, 1], got {bandwidth_factor}"
        );
        self.link_faults.retain(|f| f.link != link);
        self.link_faults.push(LinkFault {
            link,
            bandwidth_factor,
        });
        self
    }

    /// Marks one directed link as failed.
    pub fn with_link_failure(mut self, link: usize) -> Self {
        self.link_faults.retain(|f| f.link != link);
        self.link_faults.push(LinkFault {
            link,
            bandwidth_factor: 0.0,
        });
        self
    }

    /// Generates a single-fault plan from a seed: a device dropout somewhere
    /// in `(0, horizon_us)`, a link degradation to 50–95% bandwidth, or a
    /// link failure, each chosen deterministically from the seed and the
    /// platform shape. The same `(seed, platform, horizon)` always yields the
    /// same plan.
    pub fn seeded(seed: u64, platform: &Platform, horizon_us: f64) -> Self {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            // xorshift64* — small, deterministic, good enough for picking
            // fault sites.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let links = platform.topology.link_count();
        match next() % 3 {
            0 => {
                let gpu = (next() as usize) % platform.gpu_count();
                // Between 10% and 90% of the horizon.
                let frac = 0.1 + 0.8 * ((next() % 1000) as f64 / 1000.0);
                FaultPlan::none().with_device_dropout(gpu, horizon_us * frac)
            }
            1 if links > 0 => {
                let link = (next() as usize) % links;
                let factor = 0.5 + 0.45 * ((next() % 1000) as f64 / 1000.0);
                FaultPlan::none().with_link_degradation(link, factor)
            }
            _ if links > 0 => {
                let link = (next() as usize) % links;
                FaultPlan::none().with_link_failure(link)
            }
            _ => FaultPlan::none(),
        }
    }

    /// The dropout time of a GPU, if it drops out.
    pub fn dropout_at(&self, gpu: usize) -> Option<f64> {
        self.device_dropouts
            .iter()
            .find(|d| d.gpu == gpu)
            .map(|d| d.at_us)
    }

    /// The bandwidth factor of a link: `1.0` when healthy, `0.0` when dead.
    pub fn link_factor(&self, link: usize) -> f64 {
        self.link_faults
            .iter()
            .find(|f| f.link == link)
            .map_or(1.0, |f| f.bandwidth_factor)
    }
}

/// Something that went wrong during a faulted simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A device stopped accepting launches; the execution could not finish.
    DeviceLost {
        /// Index of the lost GPU.
        gpu: usize,
        /// Simulated time the device dropped out.
        at_us: f64,
    },
    /// A link ran at reduced bandwidth for the whole execution.
    LinkDegraded {
        /// Index of the degraded directed link.
        link: usize,
        /// The bandwidth multiplier that was applied.
        bandwidth_factor: f64,
    },
    /// A transfer needed a dead link and the tree offers no detour.
    LinkFailed {
        /// Index of the failed directed link.
        link: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_single_fault() {
        let platform = Platform::quad_m2090();
        for seed in 0..32 {
            let a = FaultPlan::seeded(seed, &platform, 10_000.0);
            let b = FaultPlan::seeded(seed, &platform, 10_000.0);
            assert_eq!(a, b);
            assert_eq!(a.device_dropouts.len() + a.link_faults.len(), 1);
            for d in &a.device_dropouts {
                assert!(d.gpu < platform.gpu_count());
                assert!(d.at_us > 0.0 && d.at_us < 10_000.0);
            }
            for f in &a.link_faults {
                assert!(f.link < platform.topology.link_count());
                assert!((0.0..=1.0).contains(&f.bandwidth_factor));
            }
        }
        // Different seeds eventually pick different fault kinds.
        let kinds: std::collections::HashSet<bool> = (0..32)
            .map(|s| {
                FaultPlan::seeded(s, &platform, 10_000.0)
                    .device_dropouts
                    .is_empty()
            })
            .collect();
        assert_eq!(kinds.len(), 2, "seeds should cover both fault kinds");
    }

    #[test]
    fn builders_replace_existing_entries() {
        let plan = FaultPlan::none()
            .with_link_degradation(3, 0.5)
            .with_link_failure(3)
            .with_device_dropout(1, 100.0)
            .with_device_dropout(1, 200.0);
        assert_eq!(plan.link_faults.len(), 1);
        assert_eq!(plan.link_factor(3), 0.0);
        assert_eq!(plan.link_factor(0), 1.0);
        assert_eq!(plan.dropout_at(1), Some(200.0));
        assert_eq!(plan.dropout_at(0), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
